"""Scaling-group algebra: lambda recovery, rescaling, exponent systems."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import (BlasiusFamilyRhs, FalknerSkanRhs, GridConfig, ScalingGroup,
                  State3, blasius_exponent_system, falkner_skan_exponent_system,
                  integrate, numeric_invariance_check, solve_invariance_exponents)
from nitm.errors import ScalingBreakdownError
from nitm.ode import SolutionTable
from nitm.scaling import (ExponentSystem, lambda_from_asymptote,
                          lambda_moving_wall, map_parameter, rescale)

GROUP = ScalingGroup(delta=-1.0)

lam_values = st.floats(min_value=0.5, max_value=2.0)


def _classic_star(eta_max=4.0, step=0.05):
    return integrate(BlasiusFamilyRhs(0.5), State3(0.0, 0.0, 1.0),
                     GridConfig(eta_max, step))


def test_lambda_square_root_branch():
    # delta = -1 gives exponent 1/(1 - delta) = 1/2.
    assert lambda_from_asymptote(4.0, GROUP) == 2.0
    assert lambda_from_asymptote(2.0, GROUP) == math.sqrt(2.0)


def test_lambda_general_exponent_and_target():
    group = ScalingGroup(delta=-2.0)
    assert lambda_from_asymptote(8.0, group) == pytest.approx(2.0, rel=1e-15)
    group_d = ScalingGroup(delta=-1.0, d=2.0)
    assert lambda_from_asymptote(8.0, group_d) == 2.0


@pytest.mark.parametrize("fp_inf", [0.0, -1.0, math.nan, math.inf])
def test_lambda_breakdown(fp_inf):
    with pytest.raises(ScalingBreakdownError):
        lambda_from_asymptote(fp_inf, GROUP)


def test_lambda_moving_wall():
    assert lambda_moving_wall(3.0, 1.0) == 2.0
    with pytest.raises(ScalingBreakdownError):
        lambda_moving_wall(0.5, -1.0)


def test_rescale_single_state():
    # lambda = 2, delta = -1: f scales by 1/2, fp by 1/4, fpp by 1/8,
    # and the grid stretches by lambda.
    star = SolutionTable(GridConfig(1.0, 1.0),
                         np.array([0.0, 4.0]), np.array([0.0, 8.0]),
                         np.array([0.0, 16.0]))
    out = rescale(star, 2.0, GROUP)
    assert out.grid.step == 2.0
    assert out.etas()[1] == 2.0
    assert (out.f[1], out.fp[1], out.fpp[1]) == (2.0, 2.0, 2.0)


def test_rescale_preserves_node_count():
    star = _classic_star()
    out = rescale(star, 1.4440945365988662, GROUP)
    assert out.grid.nodes == star.grid.nodes
    assert out.f[0] == 0.0


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan,
                                 1e308, 5e-324])
def test_rescale_refuses_lambda_off_the_float_grid(lam):
    # 1e308 stretches eta_max to inf, 5e-324 shrinks the step to 0
    with pytest.raises(ValueError):
        rescale(_classic_star(), lam, GROUP)


@settings(max_examples=40, deadline=None)
@given(lam_values, lam_values)
def test_group_law_composition(lam1, lam2):
    # Rescaling twice equals rescaling once by the product.
    star = _classic_star(2.0, 0.1)
    once = rescale(star, lam1 * lam2, GROUP)
    twice = rescale(rescale(star, lam1, GROUP), lam2, GROUP)
    for a, b in ((once.f, twice.f), (once.fp, twice.fp), (once.fpp, twice.fpp)):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
    assert twice.grid.step == pytest.approx(once.grid.step, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(lam_values)
def test_group_round_trip(lam):
    star = _classic_star(2.0, 0.1)
    back = rescale(rescale(star, lam, GROUP), 1.0 / lam, GROUP)
    for a, b in ((star.f, back.f), (star.fp, back.fp), (star.fpp, back.fpp)):
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


@settings(max_examples=40)
@given(st.floats(min_value=-5.0, max_value=5.0), lam_values,
       st.sampled_from([2.0, -1.0, -2.0]))
def test_parameter_map_round_trip(star_value, lam, k):
    mapped = map_parameter(star_value, lam, k)
    back = map_parameter(mapped, 1.0 / lam, k)
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
    residual = numeric_invariance_check(FalknerSkanRhs(1.0), GROUP, 2.0,
                                        [State3(0.0, 0.0, 0.0)])
    assert residual == 15.0
    assert residual > 0.1


@settings(max_examples=60)
@given(lam_values,
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_numeric_invariance_accepts_blasius(lam, f, fp, fpp):
    residual = numeric_invariance_check(BlasiusFamilyRhs(0.5), GROUP, lam,
                                        [State3(f, fp, fpp)])
    assert residual <= 1e-12


def test_numeric_invariance_neutral_at_identity():
    residual = numeric_invariance_check(FalknerSkanRhs(1.0), GROUP, 1.0,
                                        [State3(0.0, 0.0, 0.0)])
    assert residual == 0.0
