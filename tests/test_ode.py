"""Grid, state-table, and RK4 stepper behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nitm import BlasiusFamilyRhs, GridConfig, State3, integrate, kernels
from nitm.errors import BlowupError
from rk4_reference import rk4_step


def test_grid_nodes_and_etas():
    grid = GridConfig(eta_max=6.0, step=0.01)
    assert grid.nodes == 601
    etas = grid.etas()
    assert etas[0] == 0.0
    assert etas[-1] == pytest.approx(6.0, abs=1e-12)
    assert np.all(np.diff(etas) > 0)


def test_grid_default_step():
    assert GridConfig(4.0).step == 0.01


@pytest.mark.parametrize("eta_max, step", [
    (6.0, 0.0),
    (6.0, -0.01),
    (0.005, 0.01),      # shorter than one step
    (4.005, 0.01),      # not a whole number of steps
    (1e9, 0.01),        # over the node ceiling; refused before allocating
])
def test_grid_rejects_bad_shapes(eta_max, step):
    with pytest.raises(ValueError):
        GridConfig(eta_max, step)


def test_rk4_single_step_blasius():
    # One step from the classic seeded wall data; the update is a fixed
    # dyadic-rational computation, so the expected floats are exact.
    out = rk4_step(BlasiusFamilyRhs(0.5), 0.0, State3(0.0, 0.0, 1.0), 0.1)
    assert out.f == 0.005000000000000001
    assert out.fp == 0.09999791666666667
    assert out.fpp == 0.999916671875


def test_rk4_single_step_exponential():
    # y' = y in every slot reproduces the classical RK4 growth factor
    # 1 + h + h^2/2 + h^3/6 + h^4/24 = 1.10517083...
    out = rk4_step(lambda eta, s: s, 0.0, State3(1.0, 1.0, 1.0), 0.1)
    factor = 1.0 + 0.1 + 0.1 ** 2 / 2 + 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    assert out.f == pytest.approx(factor, rel=1e-15)
    assert out.f == out.fp == out.fpp


def test_rk4_step_rejects_bad_h():
    with pytest.raises(ValueError):
        rk4_step(BlasiusFamilyRhs(0.5), 0.0, State3(0.0, 0.0, 1.0), 0.0)


def test_rk4_global_fourth_order():
    # Halving the step should shrink the far-field slope error by about
    # 2^4; the reference uses a step 8x finer than the finest probe.
    def fp_inf(h):
        table = integrate(0.5, State3(0.0, 0.0, 1.0),
                          GridConfig(4.0, h))
        return table.fp_inf

    ref = fp_inf(0.0025)
    ratio = abs(fp_inf(0.04) - ref) / abs(fp_inf(0.02) - ref)
    assert 14.0 <= ratio <= 18.0


def test_integrate_matches_fine_reference():
    # Very fine step near the wall; values frozen from an independent
    # run at step 1e-5.
    table = integrate(0.5, State3(0.0, 0.0, 1.0),
                      GridConfig(0.1, 1e-5))
    assert table.f[-1] == pytest.approx(0.0049999583340153723, rel=1e-12)
    assert table.fp[-1] == pytest.approx(0.099997916721229041, rel=1e-12)
    assert table.fpp[-1] == pytest.approx(0.99991667048598443, rel=1e-12)


def test_integrate_rejects_nonfinite_initial():
    with pytest.raises(ValueError):
        integrate(0.5, State3(0.0, math.nan, 1.0),
                  GridConfig(1.0, 0.01))


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_non_finite_initial_state_before_integrating(
        monkeypatch, slot, bad):
    def no_fill(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(kernels, "fill_blasius_family", no_fill)
    initial = [0.0, 0.0, 1.0]
    initial[slot] = bad
    with pytest.raises(ValueError, match="initial state"):
        integrate(0.5, State3(*initial), GridConfig(1.0, 0.01))


def test_integrate_blowup_reports_location():
    # A large negative f(0) with unit curvature feeds exponential growth
    # of fpp; the guard must trip and report where.
    with pytest.raises(BlowupError) as err:
        integrate(1.0, State3(-20.0, 0.0, 1.0),
                  GridConfig(4.0, 0.01))
    assert 0.0 < err.value.eta <= 4.0
    assert "blew up" in str(err.value)


def test_solution_table_views():
    table = integrate(0.5, State3(0.0, 0.0, 1.0),
                      GridConfig(1.0, 0.1))
    assert len(table.f) == len(table.fp) == len(table.fpp) == table.grid.nodes == 11
    assert (table.f[0], table.fp[0], table.fpp[0]) == (0.0, 0.0, 1.0)
    assert table.fp_inf == table.fp[-1]
    assert np.array_equal(table.etas(), table.grid.etas())


def test_generic_rhs_path_matches_kernel_path():
    # The textbook rk4_step, stepped over the grid, lands on the kernel's
    # floats at every node.
    rhs = BlasiusFamilyRhs(0.5)
    grid = GridConfig(2.0, 0.05)
    table = integrate(rhs.beta, State3(0.0, 0.0, 1.0), grid)
    state = State3(0.0, 0.0, 1.0)
    for i in range(grid.nodes):
        assert state == (table.f[i], table.fp[i], table.fpp[i])
        if i < grid.nodes - 1:
            state = rk4_step(rhs, i * grid.step, state, grid.step)


@pytest.mark.parametrize("beta", [0.0, -0.5, math.nan, math.inf])
def test_integrate_refuses_bad_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        integrate(beta, State3(0.0, 0.0, 1.0), GridConfig(1.0, 0.1))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.2),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=0.2, max_value=2.0))
def test_rk4_step_is_deterministic(h, f0, fpp0):
    rhs = BlasiusFamilyRhs(0.5)
    first = rk4_step(rhs, 0.0, State3(f0, 0.0, fpp0), h)
    second = rk4_step(rhs, 0.0, State3(f0, 0.0, fpp0), h)
    assert first == second
