"""End-to-end non-iterative solves, sweeps, and parameter searches."""

import gc
import math
import random
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import (DEFAULT_SCHEDULE, GridConfig, NitmConfig, NitmResult, ProblemSpec,
                  State3, _kernels_py, analysis, classic_problem,
                  find_critical_b, find_star_for_target, initial_state, integrate,
                  kernels, models, scaling, solve_auxiliary, solve_gasification,
                  solve_moving_wall, solve_slip, solve_variant, solvers, sweep)
from nitm.errors import (BlowupError, BracketingError, NitmError,
                         NoConvergenceError, ScalingBreakdownError,
                         UnsupportedVariantError)


def _fixed(boundary, step=0.01):
    return NitmConfig(step=step, boundary_schedule=(boundary,))


# ---------------------------------------------------------------------------
# problem construction


def test_initial_states():
    assert initial_state(classic_problem()) == State3(0.0, 0.0, 1.0)
    assert initial_state(classic_problem(p=-1.0)) == State3(0.0, 0.0, -1.0)
    for variant, star, start in (("moving-wall", -5.0, (0.0, -5.0, 1.0)),
                                 ("slip", 2.0, (0.0, 2.0, 1.0)),
                                 ("gasification", 1.5, (-1.5, 0.0, 1.0))):
        assert initial_state(ProblemSpec(variant, star, 1.0)) == State3(*start)


def test_problem_validation():
    with pytest.raises(ValueError):
        classic_problem(p=0.5)
    with pytest.raises(ValueError):
        ProblemSpec("slip", -1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec("gasification", -0.1, 1.0)


@pytest.mark.parametrize("solve, value", [(solve_moving_wall, math.nan),
                                          (solve_slip, math.nan),
                                          (solve_gasification, math.inf),
                                          pytest.param(solve_slip, 10**400,
                                                       id="slip-int-past-float"),
                                          pytest.param(solve_moving_wall, -10**400,
                                                       id="moving-wall-int-past-float")])
def test_non_finite_star_param_rejected(solve, value):
    with pytest.raises(ValueError, match="star_param"):
        solve(value)


@pytest.mark.parametrize("variant, star, sign", [
    ("slip", -1.0, 1.0),             # c* < 0
    ("gasification", -0.1, 1.0),     # s* < 0
    ("gasification", 1.0, -1.0),     # gasification has only the +1 branch
    ("blasius", 1.0, 1.0),           # no such variant
    ("classic", 1.0, 1.0),           # the classic problem has no star value
])
def test_raw_problem_spec_checks_the_variant_rules(variant, star, sign):
    with pytest.raises(ValueError):
        ProblemSpec(variant, star, sign)


def test_gasification_uses_unit_beta():
    assert solvers.VARIANTS["gasification"].beta == 1.0
    assert solvers.VARIANTS["classic"].beta == 0.5
    assert solvers.VARIANTS["moving-wall"].beta == 0.5
    # beta follows from the variant: a spec holds only what varies
    assert list(ProblemSpec._fields) == ["variant", "star_param", "p"]


def test_config_validation():
    with pytest.raises(ValueError):
        NitmConfig(step=0.0)
    with pytest.raises(ValueError):
        NitmConfig(boundary_schedule=())
    with pytest.raises(ValueError):
        NitmConfig(lambda_tol=0.0)
    # an int past the float range, refused by name rather than by a bare
    # OverflowError from its conversion
    with pytest.raises(ValueError, match="^step must be finite"):
        NitmConfig(step=10**400)
    assert NitmConfig().boundary_schedule == DEFAULT_SCHEDULE


def test_boundary_must_sit_on_grid():
    with pytest.raises(ValueError):
        _fixed(4.005)
    # the default schedule is off a 0.03 grid: rejected before any solve
    with pytest.raises(ValueError, match="boundary"):
        NitmConfig(step=0.03)
    assert NitmConfig(step=0.1, boundary_schedule=(4.0, 6.0)).stops == (40, 60)
    with pytest.raises(TypeError):
        NitmConfig(stops=(40,))


@pytest.mark.parametrize("kwargs", [
    {"boundary_schedule": (1e9,)},     # 1e11 nodes at the default step
    {"step": 1e-300},                  # about 4e300 nodes to the first boundary
])
def test_config_refuses_grids_over_the_node_ceiling(kwargs):
    # refused while the config is built, before any array is allocated
    with pytest.raises(ValueError, match="boundary = .* grid nodes"):
        NitmConfig(**kwargs)


# ---------------------------------------------------------------------------
# classic problem


def test_classic_converged_solve():
    res = solve_auxiliary(classic_problem())
    assert res.eta_inf_star == 8.0
    assert res.lam == pytest.approx(1.4440945870745767, rel=1e-12)
    assert res.fp_inf_star == pytest.approx(2.0854091764180924, rel=1e-12)
    assert res.fpp0 == pytest.approx(0.3320573362199281, rel=1e-12)
    assert res.f0 == 0.0 and res.fp0 == 0.0
    assert res.physical_param is None and res.star_param is None
    # one lambda per boundary walked: 4, 6 and the accepted 8
    assert len(res.lambdas) == DEFAULT_SCHEDULE.index(res.eta_inf_star) + 1 == 3
    assert res.lambdas[-1] == res.lam


def test_classic_shear_against_published_digits():
    # Benchmark value 0.332057336215196 for the wall shear.
    res = solve_auxiliary(classic_problem())
    assert res.fpp0 == pytest.approx(0.33205733621519630, abs=1e-6)
    # Far-field auxiliary slope commonly quoted as 2.085393 at lower
    # resolution.
    assert res.fp_inf_star == pytest.approx(2.085393, abs=5e-5)


def test_classic_fixed_boundaries_at_coarse_step():
    res4 = solve_auxiliary(classic_problem(), _fixed(4.0, 0.1))
    res6 = solve_auxiliary(classic_problem(), _fixed(6.0, 0.1))
    assert res4.fpp0 == pytest.approx(0.33291241050166887, rel=1e-12)
    assert res6.fpp0 == pytest.approx(0.33205755954478089, rel=1e-12)
    assert res4.eta_inf_star == 4.0
    assert res6.table.grid.nodes == 61


def test_classic_agreement_walk_at_coarse_step():
    res = solve_auxiliary(classic_problem(), NitmConfig(step=0.1))
    assert res.eta_inf_star == 8.0
    assert res.lam == pytest.approx(1.4440945365988662, rel=1e-12)


def test_classic_solve_integrates_only_to_the_accepted_boundary(monkeypatch):
    fills = []
    fill = kernels.fill_blasius_family

    def counting_fill(beta, f, fp, fpp, h, start, stop):
        fills.append(stop - start)
        return fill(beta, f, fp, fpp, h, start, stop)

    monkeypatch.setattr(kernels, "fill_blasius_family", counting_fill)
    res = solve_auxiliary(classic_problem())
    assert fills == [400, 200, 200]            # boundaries 4, 6 and 8
    assert sum(fills) == round(res.eta_inf_star / 0.01)


def test_walk_buffers_hold_no_node_past_the_accepted_boundary(monkeypatch):
    # the buffers grow stop by stop, never to the whole schedule
    lengths, buffers = [], []
    fill = kernels.fill_blasius_family

    def recording_fill(beta, f, fp, fpp, h, start, stop):
        lengths.append((stop, len(f), len(fp), len(fpp)))
        buffers[:] = (f, fp, fpp)
        return fill(beta, f, fp, fpp, h, start, stop)

    monkeypatch.setattr(kernels, "fill_blasius_family", recording_fill)
    step = 1.0 / 1500
    res = solve_auxiliary(classic_problem(), NitmConfig(step=step))
    accepted = round(res.eta_inf_star / step)
    assert res.eta_inf_star < DEFAULT_SCHEDULE[-1]
    assert lengths == [(stop, stop + 1, stop + 1, stop + 1) for stop, *_ in lengths]
    assert lengths[-1][0] == accepted
    # the result keeps those buffers until its table is read
    assert [len(b) for b in buffers] == [accepted + 1] * 3
    assert res.table.grid.nodes == accepted + 1
    assert np.array_equal(res.table.fp, np.frombuffer(buffers[1]) * res.lam ** -2.0)

    # a sweep's rows come from the batched walk: each keeps its member's
    # buffers, which hold its accepted boundary's nodes and no more
    rows = sweep("moving-wall", [-1.0, 0.0, 0.5, 2.0, 6.0], 1.0, NitmConfig(step=step))
    assert len({row.eta_inf_star for row in rows}) > 1
    for row in rows:
        accepted = round(row.eta_inf_star / step)
        assert row.eta_inf_star < DEFAULT_SCHEDULE[-1]
        _, *buffers = row._star
        assert [np.frombuffer(b).size for b in buffers] == [accepted + 1] * 3
        assert row.table.grid.nodes == accepted + 1
        assert np.array_equal(row.table.fp,
                              np.frombuffer(buffers[1]) * row.lam ** -2.0)


def test_classic_no_convergence_with_tight_tolerance():
    config = NitmConfig(step=0.1, boundary_schedule=(4.0, 6.0),
                        lambda_tol=1e-12)
    with pytest.raises(NoConvergenceError) as err:
        solve_auxiliary(classic_problem(), config)
    lambdas = list(err.value.values)
    assert len(lambdas) == 2
    assert lambdas[0] == pytest.approx(1.4428571576470879, rel=1e-12)
    assert lambdas[1] == pytest.approx(1.4440942633332312, rel=1e-12)


def test_classic_profile_shape():
    res = solve_auxiliary(classic_problem())
    table = res.table
    # Physical step is lambda times the auxiliary step.
    assert table.grid.step == pytest.approx(0.01 * res.lam, rel=1e-12)
    assert np.all(np.diff(table.fp) >= 0.0)          # monotone velocity
    assert table.fp[-1] <= 1.0 * (1.0 + 1e-9)
    assert table.fp[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(table.fpp > 0.0)                   # positive curvature


# ---------------------------------------------------------------------------
# moving wall


def test_moving_wall_unit_star():
    res = solve_moving_wall(1.0)
    assert res.fp_inf_star == pytest.approx(2.4405858082222247, rel=1e-12)
    assert res.lam == pytest.approx(1.8548816156893206, rel=1e-12)
    assert res.physical_param == pytest.approx(0.29064817904271573, rel=1e-12)
    assert res.fp0 == res.physical_param
    assert res.fpp0 == pytest.approx(0.15669365450835177, rel=1e-12)
    # wall-to-stream asymptote: fp must climb from b to 1 - b... the
    # rescaled far field equals d = 1 - b.
    assert res.table.fp[-1] == pytest.approx(1.0 - res.physical_param,
                                             abs=1e-10)


def test_sakiadis_flow():
    res = solve_moving_wall(1.719, sign=-1.0)
    assert res.eta_inf_star == 16.0
    assert abs(res.fp_inf_star) < 1e-3
    assert res.physical_param == pytest.approx(0.99982180667864018, rel=1e-11)
    assert res.fpp0 == pytest.approx(-0.44357809561955247, rel=1e-11)
    # published digits for the Sakiadis wall shear
    assert res.fpp0 == pytest.approx(-0.443715, abs=5e-4)


def test_branch_sign_selects_side_of_half():
    plus = solve_moving_wall(100.0, sign=1.0)
    minus = solve_moving_wall(100.0, sign=-1.0)
    assert plus.physical_param < 0.5 < minus.physical_param
    assert plus.fpp0 > 0.0 > minus.fpp0


def test_moving_wall_breakdown_below_sakiadis_star():
    with pytest.raises(ScalingBreakdownError):
        solve_moving_wall(1.2, sign=-1.0)


def test_parameter_map_identity_per_solve():
    for res, star, k in [
        (solve_moving_wall(5.0), 5.0, 2.0),
        (solve_slip(1.0), 1.0, -1.0),
        (solve_gasification(1.0), 1.0, -2.0),
    ]:
        expected = star * res.lam ** -k
        assert res.physical_param == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# slip and gasification


def test_slip_unit_star():
    res = solve_slip(1.0)
    # Same auxiliary IVP as the moving wall with b* = 1.
    assert res.fp_inf_star == pytest.approx(2.4405858082222247, rel=1e-12)
    assert res.lam == pytest.approx(1.5622374365704546, rel=1e-12)
    assert res.physical_param == pytest.approx(res.lam, rel=1e-12)
    assert res.fp0 == pytest.approx(0.40973769356153938, rel=1e-12)
    assert res.fpp0 == pytest.approx(0.26227619692754744, rel=1e-11)
    # slip condition at the wall: fp(0) = c * fpp(0)
    assert res.fp0 == pytest.approx(res.physical_param * res.fpp0, rel=1e-10)


def test_slip_trend_toward_plug_flow():
    results = [solve_slip(c) for c in (0.0, 1.0, 5.0, 10.0, 25.0)]
    fp0 = [r.fp0 for r in results]
    fpp0 = [r.fpp0 for r in results]
    assert fp0 == sorted(fp0)
    assert fpp0 == sorted(fpp0, reverse=True)
    assert all(0.0 <= v < 1.0 for v in fp0)
    assert fp0[-1] > 0.98
    assert fpp0[-1] < 0.01


def test_gasification_unit_star():
    res = solve_gasification(1.0)
    assert res.eta_inf_star == 6.0
    assert res.fp_inf_star == pytest.approx(3.7281691270980932, rel=1e-12)
    assert res.lam == pytest.approx(1.9308467383762216, rel=1e-12)
    assert res.physical_param == pytest.approx(3.7281691270980928, rel=1e-12)
    assert res.f0 == pytest.approx(-0.51790749629406996, rel=1e-11)
    assert res.fp0 == 0.0
    # gasification coupling at the wall: f(0) = -s * fpp(0)
    assert res.f0 == pytest.approx(-res.physical_param * res.fpp0, rel=1e-10)


def test_gasification_zero_star_is_unit_beta_blasius():
    res = solve_gasification(0.0)
    assert res.physical_param == 0.0
    assert res.f0 == 0.0
    assert res.fpp0 == pytest.approx(0.46959998837518335, rel=1e-11)


def test_gasification_trend_with_transfer_number():
    f0 = [solve_gasification(s).f0 for s in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert f0 == sorted(f0, reverse=True)
    assert f0[-1] > -0.894  # bounded below by the large-s asymptote


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_collects_rows_and_errors():
    rows = sweep("moving-wall", [1.2, 2.0], sign=-1.0)
    assert isinstance(rows[0], ScalingBreakdownError)
    assert rows[1].physical_param == pytest.approx(0.79092739, abs=5e-5)


def test_sweep_error_rows_keep_no_reference_cycle():
    # a failed row's traceback would hold sweep's frame and so the rows
    # list: every table of the sweep would then wait for a full collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = sweep("moving-wall", [1.2, 2.0], sign=-1.0)
        assert isinstance(rows[0], ScalingBreakdownError)
        solved, failed = weakref.ref(rows[1]), weakref.ref(rows[0])
        del rows
        assert solved() is None and failed() is None
    finally:
        if enabled:
            gc.enable()


def test_sweep_non_finite_value_fails_the_call(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solvers, "solve_auxiliary", no_solve)
    monkeypatch.setattr(kernels, "walk_blasius_family", no_solve)
    with pytest.raises(ValueError, match="star_param"):
        sweep("slip", [1.0, math.nan])


def test_sweep_honours_sign_on_every_variant():
    # slip's -1 branch blows up for every c*; gasification has no -1 branch
    rows = sweep("slip", [0.0, 1.0, 2.0], sign=-1.0)
    assert all(isinstance(row, BlowupError) for row in rows)
    assert ProblemSpec("slip", 1.0, -1.0).p == -1.0
    with pytest.raises(ValueError, match="sign"):
        sweep("gasification", [1.0, 2.0], sign=-1.0)


def test_sweep_classic_is_rejected():
    with pytest.raises(UnsupportedVariantError):
        sweep("classic", [1.0])


def test_sweep_empty_values_rejected():
    with pytest.raises(ValueError):
        sweep("slip", [])


def test_sweep_matches_single_solves():
    rows = sweep("gasification", [0.5, 1.0])
    singles = [solve_gasification(0.5), solve_gasification(1.0)]
    for star, row, single in zip((0.5, 1.0), rows, singles):
        assert row.star_param == single.star_param == star
        assert row.fpp0 == single.fpp0
        assert row.physical_param == single.physical_param


def test_rescale_runs_through_the_module_globals(monkeypatch):
    # tracing tools wrap solvers.rescale and analysis.rescale by name: an
    # accepted solve and a truncated solution rescale through them once,
    # on the first read of their table and never before, and a failed row
    # never reaches the rescale
    calls = {solvers: 0, analysis: 0}

    def count(module):
        original = module.rescale

        def counting(*args):
            calls[module] += 1
            return original(*args)

        monkeypatch.setattr(module, "rescale", counting)

    count(solvers)
    count(analysis)
    rows = (sweep("moving-wall", [1.2, 2.0, 5.0], sign=-1.0)
            + sweep("slip", [1.0], sign=-1.0))
    assert [type(row) for row in rows] == [ScalingBreakdownError, NitmResult,
                                           NitmResult, BlowupError]
    assert calls == {solvers: 0, analysis: 0}
    first = [rows[1].table, rows[2].table]
    assert calls == {solvers: 2, analysis: 0}
    assert [rows[1].table, rows[2].table] == first    # the same objects
    assert calls == {solvers: 2, analysis: 0}
    sol = analysis.truncated_solution(4.0)
    assert calls == {solvers: 2, analysis: 0}
    assert sol.table is sol.table
    assert calls == {solvers: 2, analysis: 1}


# ---------------------------------------------------------------------------
# critical parameter and dual solutions


def test_critical_b():
    crit = find_critical_b()
    assert crit.b_c == pytest.approx(-0.5482461651938919, rel=1e-9)
    assert crit.b_star == pytest.approx(-1.23227, abs=1e-3)
    # the default bracket for a negative target starts just right of b*
    assert crit.b_star < solvers._CRITICAL_B_STAR < crit.b_star + 1e-3


def test_critical_b_needs_interior_minimum():
    with pytest.raises(BracketingError):
        find_critical_b(scan_lo=-0.3, scan_hi=-1e-3)


def test_critical_b_scan_validation():
    with pytest.raises(ValueError):
        find_critical_b(scan_lo=-1e-3, scan_hi=-5.0)
    with pytest.raises(ValueError):
        find_critical_b(scan_points=2)


def test_critical_b_scan_points_are_refused_before_the_scan(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before scan_points was checked")

    monkeypatch.setattr(solvers, "solve_auxiliary", no_solve)
    monkeypatch.setattr(solvers, "iter_sweep", no_solve)
    for points in (10**12, solvers.MAX_SCAN_POINTS + 1):
        with pytest.raises(ValueError, match="scan_points"):
            find_critical_b(scan_points=points)


def test_critical_b_takes_a_numpy_integer_scan_count():
    assert (find_critical_b(scan_points=np.int64(12))
            == find_critical_b(scan_points=12))


def test_critical_b_stops_when_the_bracket_stops_shrinking(monkeypatch):
    # one ulp of b* = -1e12 is about 1.2e-4, wider than the fixed 1e-6
    # tolerance: Brent's relative term must keep the minimiser's steps
    # wider than that, so that it stops
    calls = []

    def b_of(b_star, sign=1.0, config=None):
        calls.append(b_star)
        if len(calls) >= 2000:
            raise AssertionError("the minimiser did not stop")
        return SimpleNamespace(star_param=b_star,
                               physical_param=((b_star + 1e12) / 1e11) ** 2 - 0.55)

    monkeypatch.setattr(solvers, "solve_moving_wall", b_of)
    monkeypatch.setattr(solvers, "iter_sweep",
                        lambda variant, stars, sign, config: map(b_of, stars))
    crit = find_critical_b(scan_lo=-2e12, scan_hi=-1e11)
    assert crit.b_star == pytest.approx(-1e12, rel=1e-8)
    assert crit.b_c == pytest.approx(-0.55, abs=1e-12)


def _fake_moving_wall(monkeypatch, fails):
    """Patch solve_moving_wall and the scan's iter_sweep to b(b*) =
    (b* + 1.2)^2 - 0.55, failing with BlowupError at each b* that fails(b*)
    is true for; returns the b* asked for, in order."""
    asked = []

    def row(b_star):
        asked.append(b_star)
        if fails(b_star):
            return BlowupError(1.0)
        return SimpleNamespace(star_param=b_star,
                               physical_param=(b_star + 1.2) ** 2 - 0.55)

    def b_of(b_star, sign, config):
        res = row(b_star)
        if isinstance(res, NitmError):
            raise res
        return res

    monkeypatch.setattr(solvers, "solve_moving_wall", b_of)
    monkeypatch.setattr(solvers, "iter_sweep",
                        lambda variant, stars, sign, config: map(row, stars))
    return asked


def test_critical_b_skips_a_scan_point_whose_solve_fails(monkeypatch):
    # the scan's second point, b* = -1.94, is the left neighbour of the
    # least scanned b; without it the minimiser starts from (-5, -0.29)
    # and still finds the minimum
    asked = _fake_moving_wall(monkeypatch, lambda b_star: -2.0 < b_star < -1.9)
    crit = find_critical_b()
    assert sum(-2.0 < b < -1.9 for b in asked) == 1
    assert crit.b_star == pytest.approx(-1.2, abs=1e-5)
    assert crit.b_c == pytest.approx(-0.55, abs=1e-9)


def test_critical_b_needs_three_solvable_scan_points(monkeypatch):
    asked = _fake_moving_wall(monkeypatch, lambda b_star: b_star > -1.0)
    with pytest.raises(BracketingError, match="too few solvable points") as err:
        find_critical_b()
    # every scan point was tried, and none of the minimiser's
    assert len(asked) == solvers.SCAN_POINTS
    assert list(err.value.scanned) == asked
    assert sum(b <= -1.0 for b in asked) == 2


def _record_critical_solves(monkeypatch):
    """(b*, b) of each solve find_critical_b makes, scan rows included, in order;
    a failed solve has no b and is left out."""
    solved = []
    original, original_rows = solvers.solve_moving_wall, solvers.iter_sweep

    def recording(b_star, *args):
        res = original(b_star, *args)
        solved.append((b_star, res.physical_param))
        return res

    def recording_rows(variant, stars, sign, config=None):
        for row in original_rows(variant, stars, sign, config):
            if not isinstance(row, NitmError):
                solved.append((row.star_param, row.physical_param))
            yield row

    monkeypatch.setattr(solvers, "solve_moving_wall", recording)
    monkeypatch.setattr(solvers, "iter_sweep", recording_rows)
    return solved


def test_critical_b_takes_at_most_25_solves(monkeypatch):
    solved = _record_critical_solves(monkeypatch)
    crit = find_critical_b()
    assert len(solved) <= 25
    # the least b solved, not one more solve at the returned b*
    assert min(b for _, b in solved) == crit.b_c
    assert (crit.b_star, crit.b_c) in solved


def test_critical_b_scans_in_one_batched_walk(monkeypatch):
    seeds = []
    walk = kernels.walk_blasius_family

    def recording_walk(beta, h, stops, starts, offsets, lambda_tol):
        seeds.append(list(starts))
        return walk(beta, h, stops, starts, offsets, lambda_tol)

    monkeypatch.setattr(kernels, "walk_blasius_family", recording_walk)
    find_critical_b()
    # each scan point's b* seeds f'*(0); Brent's steps are single solves
    assert len(seeds) == 1
    b_stars = [fp for _, fp, _ in seeds[0]]
    assert len(b_stars) == solvers.SCAN_POINTS and b_stars == sorted(b_stars)
    assert (b_stars[0], b_stars[-1]) == pytest.approx((solvers.SCAN_LO, solvers.SCAN_HI))


# b_c of the golden section this scan and minimiser replaced: the default
# call, then 20 scan ranges drawn as the layered benchmark's _critical_scan
# draws them, from random.Random(13)
_GOLDEN_SECTION_B_C = (
    -0.5482461651938921, -0.5482461651938931, -0.5482461651938686,
    -0.5482461651938885, -0.5482461651938927, -0.5482461651938862,
    -0.5482461651938735, -0.5482461651938895, -0.5482461651938688,
    -0.5482461651938907, -0.5482461651938917, -0.5482461651938842,
    -0.5482461651938914, -0.5482461651938658, -0.5482461651938814,
    -0.5482461651938769, -0.5482461651938828, -0.5482461651938842,
    -0.5482461651938851, -0.5482461651938798, -0.5482461651938859,
)


def test_critical_b_matches_the_golden_section(monkeypatch):
    rng = random.Random(13)
    scans = [{}] + [{"scan_lo": rng.uniform(-6.0, -4.0),
                     "scan_hi": -10.0 ** rng.uniform(-3.5, -2.5)}
                    for _ in range(20)]
    solved = _record_critical_solves(monkeypatch)
    for scan, want in zip(scans, _GOLDEN_SECTION_B_C, strict=True):
        solved.clear()
        assert find_critical_b(**scan).b_c == pytest.approx(want, rel=0.0,
                                                             abs=1e-12)
        assert len(solved) <= 25


def test_brent_minimum_agrees_with_scipy_bounded():
    optimize = pytest.importorskip("scipy.optimize")

    def b_of(b_star):
        return solve_moving_wall(b_star, 1.0).physical_param

    # the least b of the default scan, at its second point, and the
    # first and third points around it
    lo, x, hi = -5.0, -1.9407667236782142, -0.753315095147334
    b_star, b_c = solvers._brent_minimum(b_of, lo, hi, x, b_of(x))
    ref = optimize.minimize_scalar(b_of, bounds=(lo, hi), method="bounded",
                                   options={"xatol": solvers._CRITICAL_B_TOL})
    assert lo < b_star < hi
    assert b_star == pytest.approx(ref.x, rel=0.0, abs=solvers._CRITICAL_B_TOL)
    assert b_c == pytest.approx(ref.fun, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("call, name", [
    (lambda: find_critical_b(scan_points=3.5), "scan_points"),
    (lambda: find_critical_b(scan_points="200"), "scan_points"),
    (lambda: find_star_for_target("slip", 1.0, bracket=(0.0, 1.0, 2.0)),
     "bracket"),
    (lambda: find_star_for_target("slip", 1.0, bracket=(1.0,)), "bracket"),
    (lambda: find_star_for_target("gasification", 0.5, sign=-1.0),
     "sign p of gasification"),
], ids=["critical-b-scan-points-fractional", "critical-b-scan-points-text",
        "target-bracket-of-three", "target-bracket-of-one",
        "target-gasification-sign"])
def test_drivers_refuse_bad_iteration_settings_before_solving(monkeypatch,
                                                              call, name):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_auxiliary ran")

    monkeypatch.setattr(solvers, "solve_auxiliary", no_solve)
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: analysis.truncated_solution("4"), "M"),
    (lambda: analysis.series_deviation("0.5"), "eta_max"),
    (lambda: find_critical_b(scan_lo="x"), "scan_lo"),
    (lambda: find_star_for_target("slip", "1.0"), "target"),
    (lambda: find_star_for_target("slip", 1.0, bracket=("a", 1.0)), "bracket"),
    (lambda: find_star_for_target("slip", 1.0, bracket=5), "bracket"),
    (lambda: sweep("slip", ["1.0"]), "star_param"),
    (lambda: NitmConfig(step="0.01"), "step"),
    (lambda: NitmConfig(lambda_tol="x"), "lambda_tol"),
    (lambda: NitmConfig(boundary_schedule=4.0), "boundary_schedule"),
    (lambda: NitmConfig(boundary_schedule=("4", "6")), "boundary"),
    (lambda: GridConfig("1"), "eta_max"),
    (lambda: GridConfig(1.0, "0.01"), "step"),
    (lambda: sweep("slip", 1.0), "star_values"),
    (lambda: integrate("x", (0.0, 0.0, 1.0), GridConfig(1.0)), "beta"),
    (lambda: integrate(0.5, ("a", 0.0, 1.0), GridConfig(1.0)), "initial state"),
    (lambda: models.BlasiusFamilyRhs("x"), "beta"),
    (lambda: models.FalknerSkanRhs("x"), "P"),
    (lambda: analysis.series_coefficients("x"), "shear"),
    (lambda: models.numeric_invariance_check(models.BlasiusFamilyRhs(0.5), "x", []),
     "lam_test"),
    (lambda: scaling.rescale(0.01, *np.zeros((3, 2)), lam="x"), "lam"),
    (lambda: NitmConfig(step=True), "step"),
    (lambda: analysis.truncated_solution(True), "M"),
    (lambda: sweep("slip", [True]), "star_param"),
    (lambda: find_star_for_target("slip", True), "target"),
    (lambda: solve_auxiliary(classic_problem(), "x"), "config"),
    (lambda: solvers.iter_sweep("slip", [1.0], 1.0, "x"), "config"),
    (lambda: sweep("slip", [1.0], config="x"), "config"),
    (lambda: find_star_for_target("slip", 1.5, config="x"), "config"),
    (lambda: find_critical_b(config="x"), "config"),
    (lambda: ProblemSpec(["slip"], 1.0, 1.0), "variant"),
    (lambda: classic_problem(p=True), "sign"),
    (lambda: ProblemSpec("slip", 1.0, "1"), "sign"),
    (lambda: sweep("moving-wall", [1.0], sign=False), "sign"),
    (lambda: find_star_for_target("slip", 1.5, sign="+1"), "sign"),
], ids=["truncated-M", "series-eta-max", "critical-b-scan-lo", "target-value",
        "target-bracket-end", "target-bracket-not-a-pair", "sweep-value",
        "config-step", "config-lambda-tol", "config-schedule-not-a-sequence",
        "config-boundary", "grid-eta-max", "grid-step",
        "sweep-values-not-a-sequence", "integrate-beta", "integrate-initial-state",
        "blasius-rhs-beta", "falkner-skan-p", "series-shear",
        "invariance-lam-test", "rescale-lam", "config-step-bool",
        "truncated-M-bool", "sweep-value-bool", "target-value-bool",
        "solve-config", "iter-sweep-config", "sweep-config", "target-config",
        "critical-b-config", "spec-variant-list", "classic-sign-bool", "spec-sign-text",
        "sweep-sign-bool", "target-sign-text"])
def test_non_numbers_are_refused_by_name_before_solving(monkeypatch, call, name):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input was checked")

    monkeypatch.setattr(solvers, "solve_auxiliary", no_solve)
    monkeypatch.setattr(kernels, "walk_blasius_family", no_solve)
    monkeypatch.setattr(analysis, "integrate", no_solve)
    with pytest.raises(TypeError, match=f"^{name} "):
        call()


@pytest.mark.parametrize("solve", [
    lambda: find_star_for_target("slip", 1.5, bracket=np.array([0.0, 10.0])),
    lambda: sweep("slip", np.array([1.0]))[0],
    lambda: sweep("slip", [1.0], sign=np.float64(1.0))[0],
    lambda: solve_moving_wall(-1.0, np.int64(1)),
    lambda: find_star_for_target("moving-wall", 0.3, sign=np.float64(1.0)),
], ids=["target-numpy-bracket", "sweep-numpy-values", "sweep-numpy-sign",
        "moving-wall-numpy-sign", "target-numpy-sign"])
def test_numpy_inputs_give_results_of_plain_floats(solve):
    res = solve()
    assert type(res.star_param) is float
    # a numpy sign seeds f''*(0), and so every wall value
    assert all(type(value) is float for value in (
        res.lam, res.fp_inf_star, res.physical_param, res.f0, res.fp0, res.fpp0))


@pytest.mark.parametrize("sign", [1, -1, np.float64(1.0), np.int64(-1)])
def test_a_sign_is_stored_as_a_float(sign):
    assert type(ProblemSpec("slip", 1.0, sign).p) is float
    assert type(classic_problem(sign).p) is float


def test_critical_b_rejects_infinite_scan_end_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_moving_wall ran")

    monkeypatch.setattr(solvers, "solve_moving_wall", no_solve)
    monkeypatch.setattr(solvers, "iter_sweep", no_solve)
    with pytest.raises(ValueError, match="scan range"):
        find_critical_b(scan_lo=-math.inf)


def test_dual_solutions_share_one_physical_parameter():
    # Two distinct star values on either side of the critical star both
    # map to b = -0.5.
    left = find_star_for_target("moving-wall", -0.5,
                                bracket=(-1.2322, -0.05))
    right = find_star_for_target("moving-wall", -0.5,
                                 bracket=(-5.0, -1.2323))
    b_star_left = -0.5 * left.lam ** 2
    b_star_right = -0.5 * right.lam ** 2
    assert left.physical_param == pytest.approx(-0.5, abs=1e-6)
    assert right.physical_param == pytest.approx(-0.5, abs=1e-6)
    assert b_star_left == pytest.approx(-0.92432406145962887, abs=1e-4)
    assert b_star_right == pytest.approx(-1.6227551072253847, abs=1e-4)


# ---------------------------------------------------------------------------
# target search


def test_target_search_on_each_variant():
    gas = find_star_for_target("gasification", 3.7281691270980932)
    assert gas.physical_param == pytest.approx(3.7281691270980932, abs=1e-6)
    slip = find_star_for_target("slip", 1.5622374365704546)
    assert slip.physical_param == pytest.approx(1.5622374365704546, abs=1e-6)
    assert slip.lam == pytest.approx(1.5622374365704546, abs=1e-5)
    mw = find_star_for_target("moving-wall", 0.8, sign=-1.0)
    assert mw.physical_param == pytest.approx(0.8, abs=1e-6)


@pytest.mark.parametrize("variant, target, sign, bracket", [
    ("moving-wall", -0.5, 1.0, None),
    ("moving-wall", -0.5, 1.0, (-5.0, -1.2323)),
    ("moving-wall", 0.7, -1.0, None),
    ("slip", 1.5, 1.0, None),
    ("gasification", 0.5, 1.0, None),
])
def test_target_result_carries_the_star_value_it_solved(variant, target, sign,
                                                        bracket):
    # star * lam**k, rebuilt from the result, can miss the solved value
    # by an ulp; star_param re-solves to the same bits
    res = find_star_for_target(variant, target, sign, bracket=bracket)
    again = solve_variant(variant, res.star_param, sign)
    assert again.physical_param.hex() == res.physical_param.hex()
    assert again.fpp0.hex() == res.fpp0.hex()


def test_target_rejects_classic():
    with pytest.raises(UnsupportedVariantError):
        find_star_for_target("classic", 1.0)


def test_target_requires_sign_change():
    with pytest.raises(BracketingError) as err:
        find_star_for_target("moving-wall", -0.7, bracket=(-1.2322, -0.05))
    assert err.value.scanned  # reports the achieved parameters


def test_target_below_b_c_says_no_solution_exists():
    # the default plus-branch bracket starts at the critical b*, where b
    # is least; an explicit bracket keeps the bare message
    with pytest.raises(BracketingError) as err:
        find_star_for_target("moving-wall", -0.6)
    assert str(err.value) == (
        "target -0.6 not bracketed by (-1.2322, -1e-06): no solution exists "
        "below b_c ~ -0.548246 (scanned: -0.548246, -4.79522e-07)")
    assert err.value.scanned[0] == pytest.approx(-0.54824616283, abs=1e-11)
    with pytest.raises(BracketingError) as err:
        find_star_for_target("moving-wall", -0.6, bracket=(-1.2322, -1e-6))
    assert str(err.value) == ("target -0.6 not bracketed by (-1.2322, -1e-06) "
                              "(scanned: -0.548246, -4.79522e-07)")


def test_target_bracketing_error_reports_the_solved_ends():
    # rebuilt as g + target, both ends would read 0 at this target
    with pytest.raises(BracketingError) as err:
        find_star_for_target("moving-wall", 1e17)
    assert err.value.scanned == (solve_moving_wall(1e-6).physical_param,
                                 solve_moving_wall(100.0).physical_param)
    assert err.value.scanned == (4.795219718920497e-07, 0.49955742121566177)


def test_target_no_convergence_reports_the_last_two_solved_values(monkeypatch):
    solved = []
    solve = solvers.solve_auxiliary

    def recording_solve(spec, config=None):
        res = solve(spec, config)
        solved.append(res.physical_param)
        return res

    monkeypatch.setattr(solvers, "solve_auxiliary", recording_solve)
    monkeypatch.setattr(solvers, "_TARGET_MAX_ITER", 1)
    # at this target, g + target misses the second value by an ulp
    with pytest.raises(NoConvergenceError) as err:
        find_star_for_target("moving-wall", 0.1)
    assert len(solved) == 3
    assert err.value.values == tuple(solved[1:])


def test_target_returns_the_lower_end_when_it_already_hits(monkeypatch):
    hit = solve_slip(0.5).physical_param
    solved = []
    solve = solvers.solve_variant

    def recording_solve(variant, star, *args):
        solved.append(star)
        return solve(variant, star, *args)

    monkeypatch.setattr(solvers, "solve_variant", recording_solve)
    res = find_star_for_target("slip", hit, bracket=(0.5, 2.0))
    assert solved == [0.5]
    assert res.star_param == 0.5 and res.physical_param == hit


def test_target_bisects_when_two_iterates_share_g(monkeypatch):
    # a map flat past 1.5: the secant step from the ends lands on the flat
    # part at 2, where g equals g at the upper end, so the next step is the
    # bracket's midpoint, 1, which hits the target 0
    solved = []

    def clamped(variant, star, sign, config):
        solved.append(star)
        return SimpleNamespace(physical_param=min(max(star - 1.0, -0.5), 0.5))

    monkeypatch.setattr(solvers, "solve_variant", clamped)
    res = find_star_for_target("slip", 0.0, bracket=(0.0, 4.0))
    assert solved == [0.0, 4.0, 2.0, 1.0]
    assert res.physical_param == 0.0


def test_target_slip_minus_has_no_default_bracket(monkeypatch):
    # -1 is a valid slip sign, so the missing bracket is what is refused
    monkeypatch.setattr(solvers, "solve_auxiliary", None)
    with pytest.raises(BracketingError, match="no default bracket"):
        find_star_for_target("slip", 1.0, sign=-1.0)


def test_target_rejects_empty_bracket():
    with pytest.raises(BracketingError):
        find_star_for_target("slip", 1.0, bracket=(2.0, 1.0))


@pytest.mark.parametrize("target, bracket, name", [
    (math.nan, None, "target"),
    (math.inf, (0.5, 2.0), "target"),
    (1.0, (0.5, math.nan), "bracket"),
    (1.0, (-math.inf, 2.0), "bracket"),
])
def test_target_rejects_non_finite_input_before_solving(monkeypatch, target,
                                                        bracket, name):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_variant ran")

    monkeypatch.setattr(solvers, "solve_variant", no_solve)
    with pytest.raises(ValueError, match=name):
        find_star_for_target("slip", target, bracket=bracket)


def test_solve_variant_dispatch():
    res = solve_variant("slip", 1.0)
    assert res.lam == solve_slip(1.0).lam
    with pytest.raises(UnsupportedVariantError):
        solve_variant("classic", 1.0)


# ---------------------------------------------------------------------------
# asymptote contract across variants


@pytest.mark.parametrize("res_fn, d_fn", [
    (lambda: solve_auxiliary(classic_problem()), lambda r: 1.0),
    (lambda: solve_moving_wall(1.0), lambda r: 1.0 - r.physical_param),
    (lambda: solve_moving_wall(5.0, sign=-1.0),
     lambda r: 1.0 - r.physical_param),
    (lambda: solve_slip(0.5), lambda r: 1.0),
    (lambda: solve_gasification(0.75), lambda r: 1.0),
])
def test_rescaled_far_field_hits_target(res_fn, d_fn):
    res = res_fn()
    assert res.table.fp[-1] == pytest.approx(d_fn(res), abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0))
def test_gasification_identity_holds_along_branch(s_star):
    res = solve_gasification(s_star)
    assert res.physical_param == pytest.approx(s_star * res.lam ** 2,
                                               rel=1e-13)


# ---------------------------------------------------------------------------
# the lean solve path: wall values in closed form, tables owning their rows

# (variant, sign, star range) where the branch has solutions
_SOLVABLE = (
    ("classic", 1.0, None),
    ("moving-wall", 1.0, (-1.2, 5.0)),
    ("moving-wall", -1.0, (1.75, 5.0)),
    ("slip", 1.0, (0.0, 5.0)),
    ("gasification", 1.0, (0.0, 3.0)),
)


@st.composite
def _solvable_specs(draw):
    variant, sign, stars = draw(st.sampled_from(_SOLVABLE))
    star = (None if stars is None
            else draw(st.floats(min_value=stars[0], max_value=stars[1])))
    return ProblemSpec(variant, star, sign)


_CONFIGS = st.sampled_from([NitmConfig(), NitmConfig(step=0.02),
                            NitmConfig(step=0.005), _fixed(6.0)])


def _backend(name):
    """Both kernel entries of the named backend, to patch onto nitm.kernels."""
    module = _kernels_py if name == "pure" else kernels
    return {"fill_blasius_family": module.fill_blasius_family,
            "walk_blasius_family": module.walk_blasius_family}


@pytest.mark.parametrize("backend", ["active", "pure"])
@settings(max_examples=30, deadline=None)
@given(spec=_solvable_specs(), config=_CONFIGS)
def test_lean_solve_wall_values_and_table_ownership(backend, spec, config):
    with mock.patch.multiple(kernels, **_backend(backend)):
        try:
            single = solve_auxiliary(spec, config)
        except NitmError:
            return
        # the classic problem has no star value to sweep
        rows = [single] if spec.star_param is None else [
            single, *sweep(spec.variant, [spec.star_param], spec.p, config)]
    for res in rows:
        table = res.table
        for wall, column in ((res.f0, table.f), (res.fp0, table.fp),
                             (res.fpp0, table.fpp)):
            assert type(wall) is float
            assert wall.hex() == float(column[0]).hex()
            # the table owns exactly its rows, not a view of the walk buffer
            assert column.base is None
            assert column.dtype == np.float64 and column.size == table.grid.nodes


# ---------------------------------------------------------------------------
# sweeps from star values: one batched walk core, no ProblemSpec per row

# every variant with star values, over ranges that reach blow-ups (slip -1)
# and scaling breakdowns (moving wall -1 below about b* = 1.68)
_STARS = {"moving-wall": (-1.5, 6.0), "slip": (0.0, 6.0), "gasification": (0.0, 4.0)}

# steps 0.1 and a tolerance of 1e-4 on three boundaries: most rows agree,
# the moving wall -1 near b* = 1.75 does not
_COARSE = NitmConfig(step=0.1, boundary_schedule=(4.0, 6.0, 8.0), lambda_tol=1e-4)


def _single(spec, config):
    try:
        return solve_auxiliary(spec, config)
    except NitmError as exc:
        return exc


def _assert_same_row(batched, single):
    assert type(batched) is type(single)
    if isinstance(single, NitmError):
        assert str(batched) == str(single)
        return
    for name in NitmResult._fields:
        # repr tells every float apart but NaN, which no field holds
        assert repr(getattr(batched, name)) == repr(getattr(single, name))
    assert batched.table.grid == single.table.grid
    for column in ("f", "fp", "fpp"):
        assert (getattr(batched.table, column).tobytes()
                == getattr(single.table, column).tobytes())


@pytest.mark.parametrize("backend", ["active", "pure"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), config=st.sampled_from([NitmConfig(), NitmConfig(step=0.02),
                                               _fixed(6.0), _COARSE]))
def test_sweep_matches_single_solves_bit_for_bit(backend, data, config):
    # sizes around _BATCH on the coarse step, around the kernel's blocks of
    # eight members on the finer ones
    size = data.draw(st.sampled_from([1, 8, 63, 64, 65, 129] if config is _COARSE
                                     else [1, 7, 8, 9, 17]))
    variant = data.draw(st.sampled_from(solvers.PARAMETRIZED))
    sign = data.draw(st.sampled_from(solvers.VARIANTS[variant].signs))
    values = data.draw(st.lists(st.floats(*_STARS[variant]), min_size=size,
                                max_size=size))
    with mock.patch.multiple(kernels, **_backend(backend)):
        singles = [_single(ProblemSpec(variant, value, sign), config)
                   for value in values]
        rows = sweep(variant, values, sign, config)
    assert len(rows) == size
    for row, single in zip(rows, singles):
        _assert_same_row(row, single)


@pytest.mark.parametrize("backend", ["active", "pure"])
@pytest.mark.parametrize("variant, values, kinds", [
    # slip -1 has no solvable row: it blows up, or breaks down at c* = 0
    ("slip", [1.0, 0.0, 2.0], [BlowupError, ScalingBreakdownError, BlowupError]),
    ("moving-wall", [1.2, 1.75, 2.0, 3.0],
     [ScalingBreakdownError, NoConvergenceError, NitmResult, NitmResult]),
], ids=["slip", "moving-wall"])
def test_a_sweep_keeps_every_kind_of_failure_beside_its_solved_rows(
        backend, variant, values, kinds):
    with mock.patch.multiple(kernels, **_backend(backend)):
        singles = [_single(ProblemSpec(variant, value, -1.0), _COARSE)
                   for value in values]
        rows = sweep(variant, values, -1.0, _COARSE)
    assert [type(row) for row in rows] == kinds
    for row, single in zip(rows, singles):
        _assert_same_row(row, single)


def test_a_sweep_walks_at_most_one_batch_at_a_time(monkeypatch):
    sizes = []
    walk = kernels.walk_blasius_family

    def recording_walk(beta, h, stops, seeds, offsets, lambda_tol):
        sizes.append(len(seeds))
        return walk(beta, h, stops, seeds, offsets, lambda_tol)

    monkeypatch.setattr(kernels, "walk_blasius_family", recording_walk)
    values = [0.01 * i for i in range(150)]
    rows = sweep("slip", values, 1.0, _COARSE)
    assert sizes == [64, 64, 22]
    assert [row.star_param for row in rows] == values


def test_iter_sweep_walks_the_next_batch_only_when_its_rows_are_read(monkeypatch):
    sizes = []
    walk = kernels.walk_blasius_family

    def recording_walk(beta, h, stops, seeds, offsets, lambda_tol):
        sizes.append(len(seeds))
        return walk(beta, h, stops, seeds, offsets, lambda_tol)

    monkeypatch.setattr(kernels, "walk_blasius_family", recording_walk)
    values = [0.01 * i for i in range(150)]
    rows = solvers.iter_sweep("slip", values, 1.0, _COARSE)
    assert sizes == []
    read = [next(rows) for _ in range(64)]
    assert sizes == [64]
    read.append(next(rows))
    assert sizes == [64, 64]
    read.extend(rows)
    assert sizes == [64, 64, 22]
    assert [row.star_param for row in read] == values


@pytest.mark.parametrize("variant, value, sign", [
    ("slip", True, 1.0),
    ("moving-wall", math.nan, 1.0),
    ("moving-wall", -math.inf, -1.0),
    ("slip", 10**400, 1.0),
    ("slip", -0.5, 1.0),
    ("gasification", -1e-300, 1.0),
    ("moving-wall", 1.0, 2.0),
    ("gasification", 1.0, -1.0),
    ("slip", 1.0, True),
    ("slip", 1.0, math.nan),
])
def test_sweep_refuses_what_a_problem_spec_refuses_with_its_message(
        monkeypatch, variant, value, sign):
    with pytest.raises((TypeError, ValueError)) as single:
        ProblemSpec(variant, value, sign)
    # a good value first: the bad one is still refused before any solve
    monkeypatch.setattr(solvers, "_walk_stars", None)
    with pytest.raises(type(single.value)) as swept:
        sweep(variant, [1.0, value], sign)
    assert str(swept.value) == str(single.value)


@pytest.mark.parametrize("variant", ["classic", "nope", ["moving-wall"]])
def test_sweep_refuses_a_variant_without_star_values(variant):
    with pytest.raises(UnsupportedVariantError) as err:
        sweep(variant, [1.0])
    assert str(err.value) == f"need one of {solvers.PARAMETRIZED}, got {variant!r}"


def test_sweep_builds_no_problem_spec(monkeypatch):
    expected = sweep("moving-wall", [-1.0, 0.5, 2.0], -1.0, _COARSE)
    monkeypatch.setattr(solvers, "ProblemSpec", None)
    for row, single in zip(sweep("moving-wall", [-1.0, 0.5, 2.0], -1.0, _COARSE),
                           expected):
        _assert_same_row(row, single)
