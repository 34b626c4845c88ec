"""Wall series, series-deviation check, and the truncation error bound."""

import math
import sys
import threading
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import (GridConfig, State3, _kernels_py, analysis, integrate, kernels,
                  rubel_bound, series_coefficients, series_deviation, series_eval,
                  truncated_solution)
from nitm.errors import BlowupError
from nitm.ode import SolutionTable


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


def _series_errors(eta_max, step):
    """series_deviation's nodes and per-node errors, computed here."""
    star = integrate(0.5, (0.0, 0.0, 1.0), GridConfig(eta_max, step))
    etas = star.etas()
    return etas, np.abs(star.f - series_eval(series_coefficients(1.0), etas))


def _polyfit_order(etas, errs, start):
    usable = (etas >= start) & (errs > analysis.ROUNDOFF_FLOOR)
    return np.polyfit(np.log(etas[usable]), np.log(errs[usable]), 1)[0]


def _series_grids(draws):
    # the benchmark's fine workload: window end in [0.4, 0.6], 2500-6000 nodes
    rng = np.random.default_rng(2020)
    grids = [(0.5, 1e-4), (1.5, 1e-3)]
    for _ in range(draws):
        eta_max = rng.uniform(0.4, 0.6)
        grids.append((eta_max, eta_max / round(rng.uniform(2500, 6000))))
    return grids


@pytest.mark.parametrize("eta_max, step", _series_grids(40))
def test_series_order_closed_form_matches_polyfit(eta_max, step):
    etas, errs = _series_errors(eta_max, step)
    deviation, order = series_deviation(eta_max, step)
    assert deviation == errs.max()
    assert order == pytest.approx(_polyfit_order(etas, errs, 0.6 * eta_max),
                                  rel=1e-12)


def test_series_deviation_needs_no_polyfit(monkeypatch):
    def no_polyfit(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np, "polyfit", no_polyfit)
    deviation, order = series_deviation()
    assert deviation < 5e-12 and 13.0 <= order <= 15.0


def test_series_deviation_fits_through_the_last_node():
    # (nodes - 1) * step rounds past eta_max on this grid; the last node
    # is the boundary all the same, and the fit keeps it
    eta_max, step = 0.4250258030570981, 0.000124750749356354
    etas, errs = _series_errors(eta_max, step)
    assert etas[-1] > eta_max
    _, order = series_deviation(eta_max, step)
    start = 0.6 * eta_max
    assert order == pytest.approx(_polyfit_order(etas, errs, start), rel=1e-12)
    # without the last node the order is 13.92065, not 13.92082
    assert abs(order - _polyfit_order(etas[:-1], errs[:-1], start)) > 1e-4


def test_truncated_solution_at_four():
    sol = truncated_solution(4.0)
    assert sol.t_star == pytest.approx(3.1125348476653962, rel=1e-10)
    assert sol.lam == pytest.approx(1.2851261739287065, rel=1e-10)
    table = sol.table
    assert table.grid.eta_max == pytest.approx(4.0, rel=1e-12)
    assert table.grid.nodes == 4001
    # the boundary condition the rescaling enforces
    assert table.fp[-1] == pytest.approx(1.0, abs=1e-9)
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
        # each M from an empty store, so that its first pass is counted
        analysis._FIRST_PASSES.clear()
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
        # each M from an empty store, so that its first pass is counted
        analysis._FIRST_PASSES.clear()
        calls.clear()
        sol = truncated_solution(M)
        assert len(calls) <= 4
        # fp(M) = T^2 fp*(T) / M^2, up to the rescale's rounding
        assert sol.table.fp[-1] == pytest.approx(1.0, rel=0.0, abs=1.01e-12)


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


def test_truncated_solution_reports_a_blowup_where_the_pass_left_the_range(
        monkeypatch):
    def blowup_at_node_5(*args):
        return 5

    monkeypatch.setattr(kernels, "fill_blasius_family", blowup_at_node_5)
    with pytest.raises(BlowupError) as err:
        truncated_solution(1.0)
    # the first pass runs to 0.8 M on n = 1000 steps
    assert err.value.eta == 5 * (0.8 / 1000)


def test_truncated_solution_gives_up_after_its_pass_limit(monkeypatch):
    # each pass's end node misses by 1e-3 relative, alternately high and
    # low, so no pass meets the 1e-12 gate that the last one aimed at
    passes = []
    original = kernels.fill_blasius_family

    def jittered(beta, f, fp, fpp, step, start, stop):
        bad = original(beta, f, fp, fpp, step, start, stop)
        if stop - start > 1:
            passes.append(step)
            fp[stop] *= 1.0 + (-1.0) ** len(passes) * 1e-3
        return bad

    monkeypatch.setattr(kernels, "fill_blasius_family", jittered)
    with pytest.raises(ValueError, match="truncated boundary for M = 4.0 not "
                                         "matched in 60 passes"):
        truncated_solution(4.0)
    assert len(passes) == analysis._TRUNCATION_MAX_ITER == 60


def _use_backend(monkeypatch, backend):
    if backend == "pure":
        monkeypatch.setattr(kernels, "fill_blasius_family",
                            _kernels_py.fill_blasius_family)


def _recording_fills(monkeypatch):
    """Every kernel fill, as (f, start, stop), through the fill in use."""
    calls = []
    original = kernels.fill_blasius_family

    def recording(beta, f, fp, fpp, step, start, stop):
        calls.append((f, start, stop))
        return original(beta, f, fp, fpp, step, start, stop)

    monkeypatch.setattr(kernels, "fill_blasius_family", recording)
    return calls


def _store_bytes():
    return {step: [column.tobytes() for column in columns]
            for step, columns in analysis._FIRST_PASSES.items()}


def _solution_bits(sol):
    """t_star, lam and the table of a TruncatedSolution, as hex and bytes."""
    table = sol.table
    return (sol.t_star.hex(), sol.lam.hex(),
            [column.tobytes() for column in (table.f, table.fp, table.fpp)])


def _check_bits(check):
    """Every field of a RubelCheck, the solutions' tables included."""
    return (_solution_bits(check.solution), _solution_bits(check.solution_2M),
            [x.hex() for x in check.bound], check.empirical_max_error.hex())


def _store_bits(M):
    """_check_bits of rubel_check(M); for an M whose 2M grid misses its
    nodes (0.209683: 419 steps to its 210), which rubel_check refuses,
    the bits of the M and 2M solutions that it would have run."""
    if round(2.0 * M * analysis.NODES_PER_UNIT) % 2:
        return (_solution_bits(truncated_solution(M)),
                _solution_bits(truncated_solution(2.0 * M)))
    return _check_bits(analysis.rubel_check(M))


_STORE_M = sorted({*_T_STAR_BITS, *_SECANT_T_STAR, 2.699, 4.0, 8.0, 16.0})


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_cold_and_warm_stores_give_the_same_bits(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    # the reference never reads the store: every pass fills the buffers
    monkeypatch.setattr(analysis, "_STORE_NODES", 0)
    want = {M: _store_bits(M) for M in _STORE_M}
    assert analysis._FIRST_PASSES == {}
    monkeypatch.setattr(analysis, "_STORE_NODES", 1 << 16)
    for M, bits in _T_STAR_BITS.items():
        assert want[M][0][0] == bits
    # each M from an empty store
    for M in _STORE_M:
        analysis._FIRST_PASSES.clear()
        assert _store_bits(M) == want[M], M
        analysis._FIRST_PASSES.clear()
        assert _solution_bits(truncated_solution(M)) == want[M][0], M
    # the store filled in increasing, then in decreasing order of M
    for order in (_STORE_M, _STORE_M[::-1]):
        analysis._FIRST_PASSES.clear()
        for M in order:
            assert _solution_bits(truncated_solution(M)) == want[M][0], M
            assert _store_bits(M) == want[M], M


@pytest.mark.parametrize("backend", ["active", "pure"])
@pytest.mark.parametrize("M", [2.7, 3.0, 4.0, 8.0, 16.0])
def test_a_warm_first_pass_leaves_one_integration(monkeypatch, backend, M):
    _use_backend(monkeypatch, backend)
    truncated_solution(M)
    calls = _recording_fills(monkeypatch)
    sol = truncated_solution(M)
    n = round(M * analysis.NODES_PER_UNIT)
    # the Hermite root's one-step check, into a scratch, then one pass
    # into the solution's own buffers
    assert [(start, stop) for _, start, stop in calls] == [(0, 1), (0, n)]
    assert calls[1][0] is sol._star[1]


@pytest.mark.parametrize("backend", ["active", "pure"])
@pytest.mark.parametrize("M", [1.0, 3.0, 4.0, 8.0])
def test_the_2m_first_pass_extends_the_stored_m_pass(monkeypatch, backend, M):
    _use_backend(monkeypatch, backend)
    truncated_solution(M)
    step = 0.8 * M / round(M * analysis.NODES_PER_UNIT)
    assert step == 0.8 * (2.0 * M) / round(2.0 * M * analysis.NODES_PER_UNIT)
    calls = _recording_fills(monkeypatch)
    truncated_solution(2.0 * M)
    n = round(M * analysis.NODES_PER_UNIT)
    stored = analysis._FIRST_PASSES[step]
    grows = [(start, stop) for f, start, stop in calls if f is stored[0]]
    assert grows == [(n, 2 * n)]
    assert len(stored[0]) == 2 * n + 1
    # the other fills, the passes and one-step checks, write no stored array
    assert not any(f is columns[0] for f, _, _ in calls
                   for columns in analysis._FIRST_PASSES.values()
                   if columns is not stored)


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_m_past_the_store_bound_leaves_it_as_it_was(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    M = 66.0
    assert round(M * analysis.NODES_PER_UNIT) >= analysis._STORE_NODES
    truncated_solution(4.0)
    before = _store_bytes()
    ids = {step: [id(c) for c in cols] for step, cols in analysis._FIRST_PASSES.items()}
    sol = truncated_solution(M)
    assert _store_bytes() == before
    assert {step: [id(c) for c in cols]
            for step, cols in analysis._FIRST_PASSES.items()} == ids
    # the same bits as a first pass read from a store that admits it
    monkeypatch.setattr(analysis, "_STORE_NODES", 1 << 17)
    analysis._FIRST_PASSES.clear()
    stored = truncated_solution(M)
    assert stored.t_star.hex() == sol.t_star.hex()
    assert stored.table.f.tobytes() == sol.table.f.tobytes()


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_a_first_pass_that_blows_up_stores_nothing(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    original = kernels.fill_blasius_family

    def blowup_past_node_1500(beta, f, fp, fpp, step, start, stop):
        bad = original(beta, f, fp, fpp, step, start, stop)
        return 1500 if start < 1500 <= stop else bad

    monkeypatch.setattr(kernels, "fill_blasius_family", blowup_past_node_1500)
    with pytest.raises(BlowupError):
        truncated_solution(2.0)
    assert analysis._FIRST_PASSES == {}
    # a stored pass that blows up as it grows, from node 1000, is kept as it was
    truncated_solution(1.0)
    assert [len(cols[0]) for cols in analysis._FIRST_PASSES.values()] == [1001]
    assert 1.6 / 2000 in analysis._FIRST_PASSES
    before = _store_bytes()
    with pytest.raises(BlowupError) as err:
        truncated_solution(2.0)
    assert err.value.eta == 1500 * (1.6 / 2000)
    assert _store_bytes() == before


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_a_first_pass_that_meets_the_gate_is_copied_out_of_the_store(
        monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    # a gate this wide is met by the first pass, at t = 0.8 M
    monkeypatch.setattr(analysis, "_TRUNCATION_TOL", 1.0)
    truncated_solution(8.0)
    sol = truncated_solution(4.0)
    assert sol.t_star == 0.8 * 4.0
    (stored,) = analysis._FIRST_PASSES.values()
    assert len(stored[0]) == 8001
    before = [c.tobytes() for c in stored]
    step, *columns = sol._star
    assert step == 3.2 / 4000
    for column, stored_column in zip(columns, stored):
        assert column is not stored_column
        assert column.tobytes() == stored_column[:4001].tobytes()
    # reading and writing the solution's nodes leaves the store alone
    sol.table
    columns[1][5] = 0.0
    assert [c.tobytes() for c in stored] == before


@pytest.mark.parametrize("backend", ["active", "pure"])
@pytest.mark.parametrize("M", [0.045, 0.2, 1.0, 4.0])
def test_crossing_leaves_its_input_arrays_as_they_were(monkeypatch, backend, M):
    _use_backend(monkeypatch, backend)
    n = round(M * analysis.NODES_PER_UNIT)
    step = 0.8 * M / n
    columns = analysis._first_pass(step, n)
    # the stored pass runs to 0.8 M; M^2 is crossed below its end for M >= 2.7,
    # and a target inside its range stands in for M^2 below that
    target = min(M * M, 0.5 * (0.8 * M) ** 2 * columns[1][n])
    before = [c.tobytes() for c in columns]
    t = analysis._crossing(step, *columns, n, target)
    assert 0.0 < t < 0.8 * M
    assert [c.tobytes() for c in columns] == before


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_the_store_stays_within_its_bounds_over_off_grid_m(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    steps = set()
    for k in range(50):
        M = 1.0 + k / 7.0 + 1e-4
        n = round(M * analysis.NODES_PER_UNIT)
        steps.add(0.8 * M / n)
        truncated_solution(M)
        assert len(analysis._FIRST_PASSES) <= analysis._STORE_STEPS
        assert all(len(c) <= analysis._STORE_NODES
                   for cols in analysis._FIRST_PASSES.values() for c in cols)
    assert len(steps) > analysis._STORE_STEPS


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_threads_reading_and_growing_the_store_get_the_bits_of_one(
        monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    # grid and off-grid M: six steps, so the store grows and evicts while
    # other threads read it
    ms = [0.3, 1.0, 2.0, 2.699, 3.0, 1.0001, 2.5003, 0.7007]
    assert len({0.8 * M / round(M * analysis.NODES_PER_UNIT) for M in ms}) == 6
    want = {}
    for M in ms:
        analysis._FIRST_PASSES.clear()
        want[M] = truncated_solution(M).t_star.hex()
    analysis._FIRST_PASSES.clear()
    got, errors = [], []

    def work(first):
        try:
            for k in range(2 * len(ms)):
                M = ms[(first + k) % len(ms)]
                got.append((M, truncated_solution(M).t_star.hex()))
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 6 * 2 * len(ms)
    assert all(bits == want[M] for M, bits in got)
    assert len(analysis._FIRST_PASSES) <= analysis._STORE_STEPS
    # each stored trajectory holds the nodes of one fill from the seed
    for step, columns in analysis._FIRST_PASSES.items():
        fresh = [array("d", (0.0,)) * len(columns[0]) for _ in range(3)]
        fresh[2][0] = 1.0
        assert kernels.fill_blasius_family(1.0, *fresh, step, 0,
                                           len(columns[0]) - 1) == -1
        assert [c.tobytes() for c in fresh] == [c.tobytes() for c in columns]


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


@pytest.mark.parametrize("M", [8.0005, 6.0005, 2.0015])
def test_rubel_check_refuses_m_whose_2m_grid_misses_its_nodes(monkeypatch, M):
    # round(2000 M) is odd, so the 2M grid's nodes fall between the M
    # grid's: the error would be taken between different eta
    assert round(2.0 * M * analysis.NODES_PER_UNIT) % 2 == 1
    monkeypatch.setattr(kernels, "fill_blasius_family", _no_fill)
    with pytest.raises(ValueError, match=rf"^M = {M} .*1/1000 grid"):
        analysis.rubel_check(M)


@pytest.mark.parametrize("M", [8.0002, 3.0002])
def test_rubel_check_takes_m_off_the_grid_whose_nodes_coincide(M):
    # round(2000 M) is twice round(1000 M): the grids share their nodes
    check = analysis.rubel_check(M)
    n = check.solution.table.grid.nodes
    assert 2 * (n - 1) == check.solution_2M.table.grid.nodes - 1
    assert check.empirical_max_error <= check.bound.bound


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


@pytest.mark.parametrize("f_end", [0.0, -1.0])
def test_rubel_bound_requires_positive_f_at_m(f_end):
    table = SolutionTable(GridConfig(0.02, 0.01), np.array([0.0, 0.5, f_end]),
                          np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="f_M\\(M\\) must be positive"):
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
