"""Scaling-group algebra: lambda recovery, rescaling, and models' exponent systems."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import (BlasiusFamilyRhs, FalknerSkanRhs, GridConfig, NitmResult, State3,
                  blasius_exponent_system, falkner_skan_exponent_system,
                  integrate, numeric_invariance_check, solve_invariance_exponents,
                  sweep)
from nitm.errors import ScalingBreakdownError
from nitm.models import ExponentSystem
from nitm.ode import SolutionTable
from nitm.scaling import lambda_from_asymptote, lambda_moving_wall, rescale
from nitm.solvers import VARIANTS

lam_values = st.floats(min_value=0.5, max_value=2.0)


def _classic_star(eta_max=4.0, step=0.05):
    return integrate(0.5, State3(0.0, 0.0, 1.0),
                     GridConfig(eta_max, step))


def _rescale(table, lam):
    return rescale(table.grid.step, table.f, table.fp, table.fpp, lam)


def test_lambda_square_root_branch():
    assert lambda_from_asymptote(4.0) == 2.0
    assert lambda_from_asymptote(2.0) == math.sqrt(2.0)


@pytest.mark.parametrize("fp_inf", [0.0, -1.0, math.nan, math.inf])
def test_lambda_breakdown(fp_inf):
    with pytest.raises(ScalingBreakdownError):
        lambda_from_asymptote(fp_inf)


def test_lambda_moving_wall():
    assert lambda_moving_wall(3.0, 1.0) == 2.0
    with pytest.raises(ScalingBreakdownError):
        lambda_moving_wall(0.5, -1.0)


def test_rescale_single_state():
    # lambda = 2: f scales by 1/2, fp by 1/4, fpp by 1/8,
    # and the grid stretches by lambda.
    star = SolutionTable(GridConfig(1.0, 1.0),
                         np.array([0.0, 4.0]), np.array([0.0, 8.0]),
                         np.array([0.0, 16.0]))
    out = _rescale(star, 2.0)
    assert out.grid.step == 2.0
    assert out.etas()[1] == 2.0
    assert (out.f[1], out.fp[1], out.fpp[1]) == (2.0, 2.0, 2.0)


def test_rescale_preserves_node_count():
    star = _classic_star()
    out = _rescale(star, 1.4440945365988662)
    assert out.grid.nodes == star.grid.nodes
    assert out.f[0] == 0.0


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan,
                                 1e308, 5e-324])
def test_rescale_refuses_lambda_off_the_float_grid(lam):
    # 1e308 stretches eta_max to inf, 5e-324 shrinks the step to 0
    with pytest.raises(ValueError):
        _rescale(_classic_star(), lam)


@settings(max_examples=40, deadline=None)
@given(lam_values, lam_values)
def test_group_law_composition(lam1, lam2):
    # Rescaling twice equals rescaling once by the product.
    star = _classic_star(2.0, 0.1)
    once = _rescale(star, lam1 * lam2)
    twice = _rescale(_rescale(star, lam1), lam2)
    for a, b in ((once.f, twice.f), (once.fp, twice.fp), (once.fpp, twice.fpp)):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
    assert twice.grid.step == pytest.approx(once.grid.step, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(lam_values)
def test_group_round_trip(lam):
    star = _classic_star(2.0, 0.1)
    back = _rescale(_rescale(star, lam), 1.0 / lam)
    for a, b in ((star.f, back.f), (star.fp, back.fp), (star.fpp, back.fpp)):
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


# star values each variant solves on its plus branch
_SOLVED_STARS = {"moving-wall": (-1.2, 5.0), "slip": (0.0, 5.0), "gasification": (0.0, 3.0)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SOLVED_STARS)).flatmap(
    lambda variant: st.tuples(st.just(variant), st.floats(*_SOLVED_STARS[variant]))))
def test_parameter_map_round_trip(case):
    # a sweep row's physical parameter is star * lam^-k; mapping it back
    # with 1 / lam gives the star value again
    variant, star_value = case
    (row,) = sweep(variant, [star_value])
    assert isinstance(row, NitmResult)
    k = VARIANTS[variant].k
    back = row.physical_param * (1.0 / row.lam) ** -k
    assert back == pytest.approx(star_value, rel=1e-13, abs=1e-15)


def test_exponent_system_validation():
    with pytest.raises(ValueError):
        ExponentSystem(rows=((Fraction(1), Fraction(2)), (Fraction(1),)))


def test_blasius_exponents_have_one_parameter_family():
    sol = solve_invariance_exponents(blasius_exponent_system())
    assert sol.nullity == 1
    assert not sol.trivial_only
    assert sol.generator == (Fraction(-1), Fraction(1))


def test_falkner_skan_exponents_are_trivial_only():
    sol = solve_invariance_exponents(falkner_skan_exponent_system())
    assert sol.nullity == 0
    assert sol.trivial_only
    assert sol.generator is None


def test_degenerate_system_keeps_full_nullspace():
    zero = Fraction(0)
    system = ExponentSystem(rows=((zero,) * 3,) * 3)
    sol = solve_invariance_exponents(system)
    assert sol.nullity == 3


def test_rational_elimination_is_exact():
    system = ExponentSystem(rows=((Fraction(1, 3), Fraction(2, 3)),
                                  (Fraction(2), Fraction(4))))
    sol = solve_invariance_exponents(system)
    assert sol.nullity == 1
    assert sol.generator == (Fraction(-2), Fraction(1))


def test_numeric_invariance_flags_pressure_term():
    # At the origin state the pressure-gradient term breaks invariance
    # by exactly |lam^4 - 1| = 15 for lam = 2.
    residual = numeric_invariance_check(FalknerSkanRhs(1.0), 2.0,
                                        [State3(0.0, 0.0, 0.0)])
    assert residual == 15.0
    assert residual > 0.1


@settings(max_examples=60)
@given(lam_values,
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_numeric_invariance_accepts_blasius(lam, f, fp, fpp):
    residual = numeric_invariance_check(BlasiusFamilyRhs(0.5), lam,
                                        [State3(f, fp, fpp)])
    assert residual <= 1e-12


def test_numeric_invariance_neutral_at_identity():
    residual = numeric_invariance_check(FalknerSkanRhs(1.0), 1.0,
                                        [State3(0.0, 0.0, 0.0)])
    assert residual == 0.0
