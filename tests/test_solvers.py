"""End-to-end non-iterative solves, sweeps, and parameter searches."""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import (DEFAULT_SCHEDULE, NitmConfig, State3, _kernels_py,
                  classic_problem, find_critical_b, find_star_for_target,
                  gasification_problem, initial_state, kernels,
                  moving_wall_problem, slip_problem, solve_auxiliary,
                  solve_gasification, solve_moving_wall, solve_slip,
                  solve_variant, solvers, sweep)
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
    assert initial_state(moving_wall_problem(-5.0)) == State3(0.0, -5.0, 1.0)
    assert initial_state(slip_problem(2.0)) == State3(0.0, 2.0, 1.0)
    assert initial_state(gasification_problem(1.5)) == State3(-1.5, 0.0, 1.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        classic_problem(p=0.5)
    with pytest.raises(ValueError):
        slip_problem(-1.0)
    with pytest.raises(ValueError):
        gasification_problem(-0.1)


@pytest.mark.parametrize("solve, value", [(solve_moving_wall, math.nan),
                                          (solve_slip, math.nan),
                                          (solve_gasification, math.inf)])
def test_non_finite_star_param_rejected(solve, value):
    with pytest.raises(ValueError, match="star_param"):
        solve(value)


def test_gasification_uses_unit_beta():
    assert gasification_problem(1.0).beta == 1.0
    assert classic_problem().beta == 0.5
    assert moving_wall_problem(1.0).beta == 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        NitmConfig(step=0.0)
    with pytest.raises(ValueError):
        NitmConfig(boundary_schedule=())
    with pytest.raises(ValueError):
        NitmConfig(lambda_tol=0.0)
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
    assert res.physical_param is None
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
    assert table.fp_inf == pytest.approx(1.0, abs=1e-10)
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
    assert res.table.fp_inf == pytest.approx(1.0 - res.physical_param,
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
        raise AssertionError("solve_auxiliary ran")

    monkeypatch.setattr(solvers, "solve_auxiliary", no_solve)
    with pytest.raises(ValueError, match="star_param"):
        sweep("slip", [1.0, math.nan])


def test_sweep_honours_sign_on_every_variant():
    # slip's -1 branch blows up for every c*; gasification has no -1 branch
    rows = sweep("slip", [0.0, 1.0, 2.0], sign=-1.0)
    assert all(isinstance(row, BlowupError) for row in rows)
    assert slip_problem(1.0, -1.0).p == -1.0
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
    for row, single in zip(rows, singles):
        assert row.fpp0 == single.fpp0
        assert row.physical_param == single.physical_param


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


def test_critical_b_rejects_infinite_scan_end_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_moving_wall ran")

    monkeypatch.setattr(solvers, "solve_moving_wall", no_solve)
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


def test_target_rejects_classic():
    with pytest.raises(UnsupportedVariantError):
        find_star_for_target("classic", 1.0)


def test_target_requires_sign_change():
    with pytest.raises(BracketingError) as err:
        find_star_for_target("moving-wall", -0.7, bracket=(-1.2322, -0.05))
    assert err.value.scanned  # reports the achieved parameters


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
    assert res.table.fp_inf == pytest.approx(d_fn(res), abs=1e-10)


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
    if stars is None:
        return classic_problem(sign)
    star = draw(st.floats(min_value=stars[0], max_value=stars[1]))
    return solvers.PROBLEMS[variant](star, sign)


_CONFIGS = st.sampled_from([NitmConfig(), NitmConfig(step=0.02),
                            NitmConfig(step=0.005), _fixed(6.0)])


@pytest.mark.parametrize("backend", ["active", "pure"])
@settings(max_examples=30, deadline=None)
@given(spec=_solvable_specs(), config=_CONFIGS)
def test_lean_solve_wall_values_and_table_ownership(backend, spec, config):
    fill = (_kernels_py.fill_blasius_family if backend == "pure"
            else kernels.fill_blasius_family)
    with mock.patch.object(kernels, "fill_blasius_family", fill):
        try:
            res = solve_auxiliary(spec, config)
        except NitmError:
            return
    table = res.table
    for wall, column in ((res.f0, table.f), (res.fp0, table.fp),
                         (res.fpp0, table.fpp)):
        assert type(wall) is float
        assert wall.hex() == float(column[0]).hex()
        # the table owns exactly its rows, not a view of the walk buffer
        assert column.base is None
        assert column.dtype == np.float64 and column.size == table.grid.nodes
