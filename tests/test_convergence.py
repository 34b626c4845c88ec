"""Convergence evidence for the reference values of tests/test_acceptance.py.

The two fixed-boundary shears of criterion 1 and the moving-wall, slip
and gasification tables hold values of one independent integration: SciPy's
DOP853 at rtol 1e-13 of the stated star IVPs, with the physical cells
taken from the closed-form maps of the scaling group. The cases below
carry those values to ten significant digits, and check for each case:

* every printed acceptance reference is its value rounded to the print
  precision of the cell;
* nitm at a fixed boundary and steps h, h/2 and h/4 converges with a
  Richardson order within 0.5 of RK4's 4 (of 5 on five stiff rows, see
  FIFTH_ORDER and SLIP_FIFTH_ORDER), changes by less than a hundredth of the cell's
  acceptance gate, and ends that close to the value;
* for the table rows, whose cells are far-field quantities, doubling
  the fixed boundary moves no cell by more than the same margin (the
  criterion-1 shears are defined at their boundary);
* DOP853 reproduces every value to 1e-8 relative (needs SciPy).
"""

import math
from typing import NamedTuple

import pytest

from nitm import NitmConfig, ProblemSpec, classic_problem, solve_auxiliary
from test_acceptance import (GASIFICATION_ROWS, MOVING_WALL_ROWS, SAKIADIS_B,
                             SHEAR_AT_4, SHEAR_AT_6, SLIP_ROWS, _half_ulp)


class Cell(NamedTuple):
    column: str        # "fp_inf_star", "fp0", "fpp0", "-f0" or "param"
    printed: str       # the acceptance reference
    gate: float        # its acceptance tolerance
    converged: float   # the independent value, ten significant digits


class Case(NamedTuple):
    label: str
    variant: str
    star: float
    sign: float
    boundary: float    # fixed boundary of the study
    step: float        # coarsest step of the refinement
    cells: tuple[Cell, ...]
    order: float = 4.0  # expected Richardson order


def _cell_gate(printed):
    """The tolerance _cell_check applies (criterion 2)."""
    ref = float(printed)
    if abs(ref) < 0.01:
        return max(1e-6, _half_ulp(printed))
    return max(1e-4 * abs(ref), _half_ulp(printed))


def _table_gate(printed):
    """The tolerance _table_cell applies (criteria 4 and 5)."""
    ref = float(printed)
    return 1e-6 if ref == 0.0 else 1e-4 * abs(ref)


# (sign, b*): (boundary, step, converged fp_inf_star, fpp0, b)
MOVING_WALL_CONVERGED = {
    (1.0, -500.0): (1.0, 2.5e-4, (15458.45337, 5.466004214e-7, -0.03342591561)),
    (1.0, -100.0): (2.0, 5e-4, (2338.760312, 9.440360982e-6, -0.04466757763)),
    (1.0, -5.0): (6.0, 4e-3, (36.27567246, 0.005717287288, -0.1598686649)),
    (1.0, -1.0): (10.0, 0.02, (2.917831297, 0.3765168335, -0.5214222969)),
    (1.0, 0.0): (10.0, 0.02, (2.085409176, 0.3320573362, 0.0)),
    (1.0, 1.0): (8.0, 0.01, (2.440585808, 0.1566936545, 0.2906481790)),
    (1.0, 5.0): (6.0, 0.02, (5.771402837, 0.02828730659, 0.4641920905)),
    (1.0, 100.0): (2.0, 0.02, (100.1771884, 0.0003530840688, 0.4995574212)),
    (1.0, 500.0): (1.0, 0.01, (500.0792643, 3.161901714e-5, 0.4999603710)),
    (-1.0, 100.0): (2.0, 0.02, (99.82269749, -0.0003540240564, 0.5004436496)),
    (-1.0, 10.0): (4.0, 0.02, (9.433635005, -0.01167263586, 0.5145717719)),
    (-1.0, 5.0): (6.0, 0.02, (4.182585271, -0.03593788752, 0.5445089648)),
    (-1.0, 2.0): (16.0, 0.02, (0.5286771380, -0.2486909188, 0.7909273865)),
}

# On these rows the far-field error of RK4 is led by its h^5 term: the
# h^4 term stays below it at every stable step whose error is above
# round-off (measured orders 4.94 to 5.07 for steps 0.005 to 0.05).
FIFTH_ORDER = {(1.0, 100.0), (1.0, 500.0), (-1.0, 100.0)}

# c*: (boundary, step, converged fp_inf_star, fp0, fpp0, c). The IVPs of
# c* = 0, 1 and 5 are those of the moving wall at b* = 0, 1 and 5 (sign
# +1), so those rows are studied the same way. c = lambda c* is kept for
# c* = 15 although its acceptance cell is not checked. From c* = 10 up,
# the order of the three-step estimate wanders at every step whose error
# is above round-off: at c* = 10 and 15 it nears 4 from below (3.61,
# 3.84, 3.93 at h = 0.04, 0.02, 0.01 for c* = 10; 3.14, 3.43, 3.80 at
# h = 0.025, 0.02, 0.01 for c* = 15), while at c* = 20 and 25 the h^4
# and higher terms cancel near h = 0.02 (orders 1.6 and 4.6 there, 3.5
# and 2.8 at h = 0.01) and the coarse steps show a plateau above 5
# (5.34, 5.46 at h = 0.125, 0.1 for c* = 20; 5.50, 5.22, 5.32 at h =
# 0.125, 0.1, 0.08 for c* = 25), as for the moving wall at b* = 100.
SLIP_CONVERGED = {
    0.0: (10.0, 0.02, (2.085409176, 0.0, 0.3320573362, 0.0)),
    0.1: (8.0, 0.02, (2.090428921, 0.04783707257, 0.3308620011, 0.1445831567)),
    0.5: (8.0, 0.01, (2.191885310, 0.2281141252, 0.3081578682, 0.7402508544)),
    1.0: (8.0, 0.01, (2.440585808, 0.4097376936, 0.2622761969, 1.562237437)),
    5.0: (6.0, 0.02, (5.771402837, 0.8663404967, 0.07212368653, 12.01187208)),
    10.0: (4.0, 0.02, (10.55493832, 0.9474238212, 0.02916194255, 32.48836457)),
    15.0: (2.0, 0.01, (15.45514490, 0.9705505897, 0.01645850479, 58.96954810)),
    20.0: (2.0, 0.125, (20.39491904, 0.9806364008, 0.01085717959, 90.32146818)),
    25.0: (2.0, 0.1, (25.35358361, 0.9860539002, 0.007833231647, 125.8808554)),
}
SLIP_FIFTH_ORDER = {20.0, 25.0}

# s*: (boundary, step, converged fp_inf_star, -f0, fpp0, s). At s* = 0.5
# the h^4 and h^5 error terms nearly cancel, so the order only nears 4
# below h = 0.02 (3.48, 3.63, 3.72, 3.86 at h = 0.016, 0.0125, 0.01,
# 0.008); every row is studied from the default step 0.01.
GASIFICATION_CONVERGED = {
    0.0: (8.0, 0.01, (1.655190360, 0.0, 0.4695999884, 0.0)),
    0.25: (8.0, 0.01, (2.025898694, 0.1756431214, 0.3467954680, 0.5064746734)),
    0.5: (8.0, 0.01, (2.486424141, 0.3170898915, 0.2550569601, 1.243212071)),
    0.75: (8.0, 0.01, (3.049877180, 0.4294573977, 0.1877484993, 2.287407885)),
    1.0: (8.0, 0.01, (3.728169127, 0.5179074963, 0.1389173824, 3.728169127)),
    1.25: (8.0, 0.01, (4.531629270, 0.5871956456, 0.1036617270, 5.664536588)),
    1.5: (8.0, 0.01, (5.468878542, 0.6414194424, 0.07819024656, 8.203317813)),
    1.75: (8.0, 0.01, (6.546898733, 0.6839435165, 0.05969618326, 11.45707278)),
    2.0: (8.0, 0.01, (7.771216929, 0.7174398232, 0.04616006925, 15.54243386)),
}

CRITERION_1_CASES = [
    Case(f"criterion 1 boundary {boundary:g}", "classic", 0.0, 1.0,
         boundary, 0.025, (Cell("fpp0", repr(shear), 5e-7, converged),))
    for boundary, shear, converged in ((4.0, SHEAR_AT_4, 0.3329122851),
                                       (6.0, SHEAR_AT_6, 0.3320575242))
]

TABLE_CASES = [
    Case(f"moving wall {sign:+g} b*={b_star:g}", "moving-wall", b_star, sign,
         *MOVING_WALL_CONVERGED[(sign, b_star)][:2],
         tuple(Cell(column, printed, _cell_gate(printed), value)
               for column, printed, value in zip(
                   ("fp_inf_star", "fpp0", "param"), printed_cells,
                   MOVING_WALL_CONVERGED[(sign, b_star)][2])),
         5.0 if (sign, b_star) in FIFTH_ORDER else 4.0)
    for sign, b_star, _, *printed_cells in MOVING_WALL_ROWS
] + [
    Case("sakiadis b*=1.719", "moving-wall", 1.719, -1.0, 32.0, 0.04,
         (Cell("param", SAKIADIS_B, _cell_gate(SAKIADIS_B), 0.9998218803),)),
] + [
    Case(f"slip c*={c_star:g}", "slip", c_star, 1.0,
         *SLIP_CONVERGED[c_star][:2],
         tuple(Cell(column, printed, _table_gate(printed), value)
               for column, printed, value in zip(
                   ("fp_inf_star", "fp0", "fpp0", "param"), printed_cells,
                   SLIP_CONVERGED[c_star][2])
               if printed is not None),
         5.0 if c_star in SLIP_FIFTH_ORDER else 4.0)
    for c_star, *printed_cells in SLIP_ROWS
] + [
    Case(f"gasification s*={s_star:g}", "gasification", s_star, 1.0,
         *GASIFICATION_CONVERGED[s_star][:2],
         tuple(Cell(column, printed, _table_gate(printed), value)
               for column, printed, value in zip(
                   ("fp_inf_star", "-f0", "fpp0", "param"), printed_cells,
                   GASIFICATION_CONVERGED[s_star][2])))
    for s_star, *printed_cells in GASIFICATION_ROWS
]

CASES = CRITERION_1_CASES + TABLE_CASES


def _label(case):
    return case.label


def _problem(case):
    if case.variant == "classic":
        return classic_problem()
    return ProblemSpec(case.variant, case.star, case.sign)


def _nitm_cells(case, boundary, step):
    res = solve_auxiliary(_problem(case), NitmConfig(
        step=step, boundary_schedule=(boundary,)))
    values = {"fp_inf_star": res.fp_inf_star, "fp0": res.fp0,
              "fpp0": res.fpp0, "-f0": -res.f0, "param": res.physical_param}
    return [values[cell.column] for cell in case.cells]


def _dop853_cells(case):
    """Integrate the star IVP with SciPy and map its far-field slope by hand.

    f''' = -beta f f'' from (0, 0, 1) (classic), (0, b*, sign) (moving
    wall, beta 1/2), (0, c* sign, sign) (slip, beta 1/2) or (-s*, 0, 1)
    (gasification, beta 1); lambda^2 is f'*(inf) + b* for the moving wall
    and f'*(inf) otherwise.
    """
    from scipy.integrate import solve_ivp

    if case.variant == "gasification":
        beta, start = 1.0, (-case.star, 0.0, 1.0)
    elif case.variant == "slip":
        beta, start = 0.5, (0.0, case.star * case.sign, case.sign)
    else:
        beta, start = 0.5, (0.0, case.star, case.sign)
    sol = solve_ivp(
        lambda _, y: (y[1], y[2], -beta * y[0] * y[2]), (0.0, case.boundary),
        start, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.status == 0, sol.message
    fp_inf_star = float(sol.y[1, -1])
    if case.variant == "gasification":
        lam2 = fp_inf_star
        values = {"-f0": case.star / math.sqrt(lam2), "param": case.star * lam2}
    elif case.variant == "slip":
        lam2 = fp_inf_star
        values = {"fp0": case.star * case.sign / lam2,
                  "param": case.star * math.sqrt(lam2)}
    else:
        lam2 = fp_inf_star + case.star
        values = {"param": case.star / lam2}
    values.update(fp_inf_star=fp_inf_star, fpp0=case.sign * lam2 ** -1.5)
    return [values[cell.column] for cell in case.cells]


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_references_round_converged_values(case):
    for cell in case.cells:
        assert abs(float(cell.printed) - cell.converged) \
            <= _half_ulp(cell.printed) + 1e-15 * abs(cell.converged), cell


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_step_refinement(case):
    h = case.step
    runs = [_nitm_cells(case, case.boundary, s) for s in (h, h / 2, h / 4)]
    for cell, (coarse, mid, fine) in zip(case.cells, zip(*runs)):
        if cell.converged == 0.0:
            # zero by construction (b at b* = 0, f(0) and s at s* = 0)
            assert coarse == mid == fine == 0.0, cell
            continue
        order = (math.log2(abs(coarse - mid) / abs(mid - fine))
                 if mid != fine else math.inf)
        assert abs(order - case.order) <= 0.5, \
            f"{cell}: Richardson order {order:.2f}"
        assert abs(coarse - fine) <= cell.gate / 100, \
            f"{cell}: refinement moves it by {abs(coarse - fine):.3g}"
        assert abs(fine - cell.converged) <= cell.gate / 100, \
            f"{cell}: refined value {fine:.10g}"


@pytest.mark.parametrize("case", TABLE_CASES, ids=_label)
def test_boundary_doubling(case):
    fine = case.step / 4
    at_boundary = _nitm_cells(case, case.boundary, fine)
    doubled = _nitm_cells(case, 2.0 * case.boundary, fine)
    for cell, once, twice in zip(case.cells, at_boundary, doubled):
        assert abs(twice - once) <= cell.gate / 100, \
            f"{cell}: doubling the boundary moves it by {abs(twice - once):.3g}"


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_dop853_reproduces_converged_values(case):
    pytest.importorskip("scipy")
    for cell, value in zip(case.cells, _dop853_cells(case)):
        assert abs(value - cell.converged) <= 1e-8 * abs(cell.converged), \
            f"{cell}: DOP853 gives {value:.10g}"

