"""Wall series, series-deviation check, and the truncation error bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import (GridConfig, State3, _kernels_py, analysis, integrate, kernels,
                  rubel_bound, series_coefficients, series_deviation, series_eval,
                  truncated_solution)


def test_series_coefficient_values():
    series = series_coefficients(1.0)
    assert series.shear == 1.0
    # the coefficients of eta^2, eta^5, eta^8 and eta^11
    assert series.coefficients == (0.5, -1.0 / 240.0, 11.0 / 161280.0,
                                   -375.0 / 319334400.0)


@pytest.mark.parametrize("shear", [0.0, math.nan, math.inf])
def test_series_rejects_bad_shear(shear):
    with pytest.raises(ValueError):
        series_coefficients(shear)


def test_series_eval_exact_rational_point():
    # At shear 1 and eta 1 the partial sum is 10557203/21288960.
    expected = 10557203 / 21288960
    assert series_eval(series_coefficients(1.0), 1.0) == pytest.approx(
        expected, rel=1e-15)


def test_series_eval_vanishes_at_wall():
    assert series_eval(series_coefficients(0.332), 0.0) == 0.0


@settings(max_examples=60)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.0, max_value=0.5))
def test_series_scaling_identity(shear, eta):
    # f_shear(eta) = shear^(1/3) * f_1(shear^(1/3) * eta): the series
    # must inherit the one-parameter group of the equation it solves.
    nu = shear ** (1.0 / 3.0)
    lhs = series_eval(series_coefficients(shear), eta)
    rhs = nu * series_eval(series_coefficients(1.0), nu * eta)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.5, max_value=3.0),
       st.integers(min_value=500, max_value=4000))
def test_series_eval_array_matches_scalar_calls_bitwise(shear, eta_max, nodes):
    # Written with a power, the cube differs from the scalar pow in the
    # last bit at about one node in twenty; on grids this long some of
    # those differences survive into the sum.
    series = series_coefficients(shear)
    etas = GridConfig(eta_max, eta_max / nodes).etas()
    scalars = np.array([series_eval(series, float(e)) for e in etas])
    assert series_eval(series, etas).tobytes() == scalars.tobytes()


def test_series_deviation_evaluates_series_once(monkeypatch):
    calls = []

    def counting(series, eta):
        calls.append(eta)
        return series_eval(series, eta)

    monkeypatch.setattr(analysis, "series_eval", counting)
    series_deviation(0.5, 0.5 / 4250)
    assert len(calls) == 1


@pytest.mark.parametrize("eta_max, step", [(0.3, 2e-4), (0.36, 0.01), (0.5, 0.25)])
def test_series_deviation_checks_its_fit_window_first(monkeypatch, eta_max, step):
    # the fit needs two window nodes past eta ~ 0.355, where the first
    # dropped term, C14 eta^14, clears the 1e-14 roundoff floor
    def no_integrate(*args):
        raise AssertionError("integrated before the window was checked")

    monkeypatch.setattr(analysis, "integrate", no_integrate)
    with pytest.raises(ValueError) as err:
        series_deviation(eta_max, step)
    message = str(err.value)
    assert f"eta_max = {eta_max:g}" in message and f"step {step:g}" in message


def test_series_deviation_window_check_admits_a_short_populated_window():
    # nodes 0.36 and 0.37 clear the floor: the fit runs
    deviation, order = series_deviation(0.37, 0.01)
    assert math.isfinite(deviation) and math.isfinite(order)


def test_series_against_fine_integration():
    deviation, order = series_deviation()
    assert deviation < 5e-12
    assert 13.0 <= order <= 15.0


def test_truncated_solution_at_four():
    sol = truncated_solution(4.0)
    assert sol.t_star == pytest.approx(3.1125348476653962, rel=1e-10)
    assert sol.lam == pytest.approx(1.2851261739287065, rel=1e-10)
    table = sol.table
    assert table.grid.eta_max == pytest.approx(4.0, rel=1e-12)
    assert table.grid.nodes == 4001
    # the boundary condition the rescaling enforces
    assert table.fp_inf == pytest.approx(1.0, abs=1e-9)
    assert table.f[0] == 0.0


def _count_integrations(monkeypatch):
    """The passes of truncated_solution: kernel fills of its n >= 8 steps.

    _crossing's one-step checks are not counted.
    """
    calls = []
    original = kernels.fill_blasius_family

    def counting(*args):
        start, stop = args[5], args[6]
        if stop - start > 1:
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "fill_blasius_family", counting)
    return calls


@pytest.mark.parametrize("M", [3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0])
def test_truncated_solution_takes_two_passes_past_its_first_guess(monkeypatch, M):
    # T < 0.8 M here: the first pass overshoots, and the Hermite root of
    # its table lands the second pass on the 1e-12 gate
    calls = _count_integrations(monkeypatch)
    truncated_solution(M)
    assert len(calls) == 2


@pytest.mark.parametrize("M", [1.0, 1.3, 1.7, 2.0, 2.4, 2.699])
def test_truncated_solution_takes_at_most_three_passes_below(monkeypatch, M):
    # T > 0.8 M: the sqrt step overshoots first, then the Hermite root
    calls = _count_integrations(monkeypatch)
    truncated_solution(M)
    assert len(calls) <= 3


# every M in [0.01, 0.335] on a 0.005 grid: before the Hermite root was
# checked by one RK4 step, 41 of these took 4 or 5 passes
_SMALL_M = [round(0.01 + 0.005 * i, 3) for i in range(66)]


def test_truncated_solution_takes_at_most_three_passes_for_small_m(monkeypatch):
    calls = _count_integrations(monkeypatch)
    passes = {}
    for M in _SMALL_M:
        calls.clear()
        truncated_solution(M)
        passes[M] = len(calls)
    assert max(passes.values()) == 3, passes


def test_a_hermite_root_left_uncorrected_ends_in_one_newton_pass(monkeypatch):
    # with the one-step check off, a pass at the Hermite root that misses
    # takes a Newton step from its end node, and the next pass meets the gate
    monkeypatch.setattr(analysis, "_CROSSING_GATE", math.inf)
    calls = _count_integrations(monkeypatch)
    for M in _SMALL_M:
        calls.clear()
        sol = truncated_solution(M)
        assert len(calls) <= 4
        # fp(M) = T^2 fp*(T) / M^2, up to the rescale's rounding
        assert sol.table.fp_inf == pytest.approx(1.0, rel=0.0, abs=1.01e-12)


# t_star of M that took at most three passes before the one-step check
# of the Hermite root, recorded then: a root whose pass met the gate as
# it was is not moved (0.209683 met it by 2e-15 relative)
_T_STAR_BITS = {0.045: "0x1.031c1c00bfa37p-3", 0.2: "0x1.5e65d3d9f0a1ap-2",
                0.209683: "0x1.69a355c381de8p-2", 0.3: "0x1.cb78688e754f0p-2",
                0.335: "0x1.eeb2e43979bfbp-2", 1.0: "0x1.039d738681e1ap+0",
                2.0: "0x1.ae5261d4c50c0p+0"}


@pytest.mark.parametrize("M", sorted(_T_STAR_BITS))
def test_truncated_solution_keeps_the_bits_of_three_pass_m(M):
    assert truncated_solution(M).t_star.hex() == _T_STAR_BITS[M]


# t_star of the secant iteration this solve replaced, on the same grids
_SECANT_T_STAR = {3.0: 2.365346283454826, 4.0: 3.1125348476658585,
                  5.0: 3.8865114212603844, 6.0: 4.6636659098441555}


@pytest.mark.parametrize("M", sorted(_SECANT_T_STAR))
def test_truncated_solution_matches_the_secant_boundary(M):
    sol = truncated_solution(M)
    assert sol.t_star == pytest.approx(_SECANT_T_STAR[M], rel=1e-12, abs=0.0)
    assert sol.lam == M / sol.t_star


def test_truncated_solution_rejects_tiny_m():
    with pytest.raises(ValueError):
        truncated_solution(0.004)


def _no_fill(*args):
    raise AssertionError("a kernel fill ran")


@pytest.mark.parametrize("M", [math.nan, math.inf])
def test_truncated_solution_refuses_non_finite_m(monkeypatch, M):
    monkeypatch.setattr(kernels, "fill_blasius_family", _no_fill)
    with pytest.raises(ValueError, match="M must be"):
        truncated_solution(M)


@pytest.mark.parametrize("M", [1e5, 1e306])
def test_truncated_solution_refuses_m_past_the_node_ceiling(monkeypatch, M):
    # the buffers are allocated once, for n + 1 nodes, after this check
    monkeypatch.setattr(kernels, "fill_blasius_family", _no_fill)
    with pytest.raises(ValueError, match="grid nodes"):
        truncated_solution(M)


@pytest.mark.parametrize("M", [6e4, 5e4])
def test_rubel_check_refuses_a_2m_solution_past_the_node_ceiling(monkeypatch, M):
    # the M solution alone would fit: the check runs before it is integrated,
    # and the error names M, not 2M
    monkeypatch.setattr(kernels, "fill_blasius_family", _no_fill)
    with pytest.raises(ValueError, match=f"M = {M} needs a 2M solution on more "
                                         f"than 100000000 grid nodes"):
        analysis.rubel_check(M)


@pytest.mark.parametrize("M", [math.nan, math.inf, -1.0])
def test_rubel_check_refuses_m_like_truncated_solution(monkeypatch, M):
    monkeypatch.setattr(kernels, "fill_blasius_family", _no_fill)
    with pytest.raises(ValueError, match="M must be positive and finite"):
        analysis.rubel_check(M)


@pytest.mark.parametrize("backend", ["active", "pure"])
@pytest.mark.parametrize("M", [1.0, 1.3, 2.699, 3.0, 4.0, 8.0])
def test_rubel_check_equals_the_table_route_bit_for_bit(monkeypatch, backend, M):
    if backend == "pure":
        monkeypatch.setattr(kernels, "fill_blasius_family",
                            _kernels_py.fill_blasius_family)
    check = analysis.rubel_check(M)
    sol, sol2 = check.solution, check.solution_2M
    assert sol.t_star.hex() == truncated_solution(M).t_star.hex()
    assert sol2.t_star.hex() == truncated_solution(2.0 * M).t_star.hex()
    # check came from the star buffers; these tables are rescaled only now
    want = rubel_bound(sol.table)
    assert [x.hex() for x in check.bound] == [x.hex() for x in want]
    n = sol.table.grid.nodes
    empirical = float(np.max(np.abs(sol2.table.f[:n] - sol.table.f[:n])))
    assert check.empirical_max_error.hex() == empirical.hex()


def test_rubel_bound_at_four():
    sol = truncated_solution(4.0)
    bound = rubel_bound(sol.table)
    assert bound.M == 4.0
    assert bound.fM_at_M == pytest.approx(2.7913554549209993, rel=1e-9)
    assert bound.fppM_at_M == pytest.approx(0.006812689518132146, rel=1e-9)
    assert bound.bound == pytest.approx(0.009762553896347045, rel=1e-9)
    assert bound.bound == pytest.approx(
        bound.M * bound.fppM_at_M / bound.fM_at_M, rel=1e-15)


def test_rubel_bound_requires_unit_far_field():
    table = integrate(0.5, State3(0.0, 0.0, 1.0), GridConfig(6.0, 0.01))
    with pytest.raises(ValueError):
        rubel_bound(table)


def test_bound_shrinks_with_longer_truncation():
    b3 = rubel_bound(truncated_solution(3.0).table).bound
    b5 = rubel_bound(truncated_solution(5.0).table).bound
    assert b5 < b3


def test_truncated_solutions_nest_on_shared_nodes():
    # The M and 2M grids share their first M worth of nodes; the two
    # solutions must agree there to within the error bound.
    sol4 = truncated_solution(4.0)
    sol8 = truncated_solution(8.0)
    assert sol8.table.grid.step == pytest.approx(sol4.table.grid.step,
                                                 rel=1e-12)
    n = sol4.table.grid.nodes
    gap = float(np.max(np.abs(sol8.table.f[:n] - sol4.table.f[:n])))
    assert gap == pytest.approx(7.468992e-3, rel=1e-5)
    assert gap <= rubel_bound(sol4.table).bound
