"""Independent verification instruments.

The wall power series of the Blasius solution and the Rubel error bound
for boundary truncation. Both are checks on the solver, produced by
routes independent of the lambda-agreement machinery.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .errors import check_real
from .ode import MAX_NODES, GridConfig, Record, SolutionTable, integrate
from .scaling import rescale

if TYPE_CHECKING:
    import numpy as np

# a deviation below this is roundoff, and the order fit leaves its node out
ROUNDOFF_FLOOR = 1e-14
# series_deviation's default window end and step, which series-check uses
SERIES_ETA_MAX, SERIES_STEP = 0.5, 1e-4
# the first dropped term of the unit-shear series, C14 eta^14: 27897 / (16 * 14!)
_C14 = 27897.0 / (16.0 * math.factorial(14))

# truncated_solution's physical grid has this many steps per unit of M;
# its passes stop once T^2 fp*(T) is within _TRUNCATION_TOL of M^2,
# relatively, and fail after _TRUNCATION_MAX_ITER of them
NODES_PER_UNIT = 1000
_TRUNCATION_TOL = 1e-12
_TRUNCATION_MAX_ITER = 60
# _crossing moves the Hermite root only when g there misses M^2 by more
# than this, relatively. The pass at the root integrates on its own
# step, which near the gate makes its miss 0.6-4e-14 of M^2 smaller
# (seen over 3000 random M in [0.008, 0.5]), so a root whose pass lands
# inside _TRUNCATION_TOL as it is keeps its bits.
_CROSSING_GATE = 1.05e-12


class BlasiusSeries(NamedTuple):
    """Wall expansion f = C2 eta^2 + C5 eta^5 + C8 eta^8 + C11 eta^11."""

    shear: float
    coefficients: tuple[float, float, float, float]


def series_coefficients(shear: float) -> BlasiusSeries:
    """Series coefficients in terms of the wall shear.

    C2 = shear/2, C5 = -shear^2/(2*5!), C8 = 11 shear^3/(4*8!),
    C11 = -375 shear^4/(8*11!).
    """
    if shear == 0.0 or not math.isfinite(shear):
        raise ValueError(f"shear must be finite and nonzero, got {shear}")
    return BlasiusSeries(shear, (
        shear / 2.0,
        -shear ** 2 / 240.0,
        11.0 * shear ** 3 / 161280.0,
        -375.0 * shear ** 4 / 319334400.0,
    ))


def series_eval(series: BlasiusSeries, eta: float | np.ndarray) -> float | np.ndarray:
    """Sum of the series through the eta^11 term, elementwise for an array.

    The cube is a product, not a power: numpy's vectorised pow can
    differ from the scalar one in the last bit, while products round
    alike, so an array call equals scalar calls bit for bit.
    """
    c2, c5, c8, c11 = series.coefficients
    e3 = eta * eta * eta
    return eta * eta * (c2 + e3 * (c5 + e3 * (c8 + e3 * c11)))


def _fit_order(etas: np.ndarray, errs: np.ndarray,
               window: tuple[float, float]) -> float:
    """Least-squares slope of log errs versus log etas over the window."""
    import numpy as np

    mask = (etas >= window[0]) & (etas <= window[1]) & (errs > ROUNDOFF_FLOOR)
    if mask.sum() < 2:
        raise ValueError("window leaves too few usable nodes for the fit")
    slope = np.polyfit(np.log(etas[mask]), np.log(errs[mask]), 1)[0]
    return float(slope)


class RubelBound(NamedTuple):
    """Computable truncation-error bound M * fpp_M(M) / f_M(M)."""

    M: float
    fM_at_M: float
    fppM_at_M: float
    bound: float


class TruncatedSolution(Record):
    """beta=1 problem solved on [0, M] with fp(M) = 1 enforced exactly."""

    _fields = ("t_star", "lam", "table")
    __slots__ = tuple("_" + name for name in _fields)

    def __init__(self, t_star: float, lam: float, table: SolutionTable):
        self._t_star, self._lam, self._table = t_star, lam, table


def _crossing(star: SolutionTable, target: float) -> float:
    """eta* at which the cubic Hermite fit of g = eta*^2 fp* reaches target.

    The fit spans the two nodes of star whose g values bracket target,
    found by bisection since g increases along the table; its end slopes
    are g' = 2 eta* fp* + eta*^2 fpp*. The root is three Newton steps on
    the cubic from the chord's root, whose error, a thousandth of a step
    or so, squares at each. The cubic itself misses the table's
    trajectory by up to a few 1e-9 of target on the coarsest grids: one
    RK4 step of the beta = 1 ODE from the node below the root gives g
    there, and past _CROSSING_GATE the root takes one Newton step on g.
    """
    step, fp, fpp = star.grid.step, star.fp, star.fpp
    lo, hi = 0, star.grid.nodes - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        eta = mid * step
        if eta * eta * fp[mid] <= target:
            lo = mid
        else:
            hi = mid
    a, b = lo * step, hi * step
    g0, g1 = a * a * fp[lo], b * b * fp[hi]
    d0 = step * (2.0 * a * fp[lo] + a * a * fpp[lo])
    d1 = step * (2.0 * b * fp[hi] + b * b * fpp[hi])
    # the fit g0 + s (c1 + s (c2 + s c3)) for s in [0, 1]
    c2 = 3.0 * (g1 - g0) - 2.0 * d0 - d1
    c3 = 2.0 * (g0 - g1) + d0 + d1
    s = (target - g0) / (g1 - g0)
    for _ in range(3):
        s -= (g0 - target + s * (d0 + s * (c2 + s * c3))) / (
            d0 + s * (2.0 * c2 + 3.0 * s * c3))
    t = float(a + s * step)
    f1, fp1, fpp1 = (array("d", (float(x[lo]), 0.0)) for x in (star.f, fp, fpp))
    # looked up at each call, so a kernel patched onto the module is used
    kernels.fill_blasius_family(1.0, f1, fp1, fpp1, t - a, 0, 1)
    miss = t * t * fp1[1] - target
    if abs(miss) > _CROSSING_GATE * target:
        t = _newton(t, miss, fp1[1], fpp1[1])
    return t


def _newton(t: float, miss: float, fp: float, fpp: float) -> float:
    """t after one Newton step on g = t^2 fp*(t), which misses its target by miss."""
    return t - miss / (t * (2.0 * fp + t * fpp))


def truncated_solution(M: float) -> TruncatedSolution:
    """Truncated-boundary solution by the non-iterative method.

    The star boundary T solves g(T) = M^2 with g(eta*) = eta*^2 fp*(eta*),
    an event on the star trajectory, since g increases along it. Each
    pass integrates the star IVP to a candidate t on n = M*NODES_PER_UNIT
    steps, starting at t = 0.8 M. Short of M^2, t grows by
    sqrt(M^2/g(t)), which overshoots T because fp* increases; past it,
    the next t is where the Hermite fit of g between the bracketing
    nodes reaches M^2, and a pass there that still misses takes one
    Newton step on g. Two passes do for M >= 2.7, where T < 0.8 M, and
    three below.
    lambda = M/T then rescales the star table so the physical boundary
    lands on M with fp(M) = 1. The physical grid step is M/n, so
    solutions for M and 2M share their nodes on [0, M].
    """
    check_real("M", M)
    if not (math.isfinite(M) and M > 0.0):
        raise ValueError(f"M must be positive and finite, got {M}")
    if M * NODES_PER_UNIT >= MAX_NODES:
        raise ValueError(f"M = {M} needs more than {MAX_NODES} grid nodes")
    n = round(M * NODES_PER_UNIT)
    if n < 8:
        raise ValueError(f"grid too coarse for M = {M}")
    target = M * M

    t = 0.8 * M
    crossed = False
    for _ in range(_TRUNCATION_MAX_ITER):
        star = integrate(1.0, (0.0, 0.0, 1.0), GridConfig.of_nodes(n + 1, t / n))
        g = t * t * star.fp_inf
        if abs(g - target) <= _TRUNCATION_TOL * target:
            break
        if crossed:
            # a Hermite root left in _CROSSING_GATE that still misses: one
            # Newton step on g from the end node
            t = _newton(t, g - target, star.fp_inf, float(star.fpp[-1]))
            crossed = False
        elif g < target:
            t = t * math.sqrt(target / g)
        else:
            t, crossed = _crossing(star, target), True
    else:
        raise ValueError(f"truncated boundary for M = {M} not matched in "
                         f"{_TRUNCATION_MAX_ITER} passes")

    lam = M / t
    # physical step lam * (t/n) equals M/n up to rounding, and fp(M) =
    # fp*(t)/lam^2 = 1 by the choice of t
    table = rescale(star.grid.step, star.f, star.fp, star.fpp, lam)
    return TruncatedSolution(t_star=t, lam=lam, table=table)


def rubel_bound(table: SolutionTable) -> RubelBound:
    """Error bound for truncating the beta=1 problem at M = eta_max.

    The table must hold a truncated-boundary solution with fp(M)
    rescaled to 1 (as produced by truncated_solution); the bound is
    M * fpp(M) / f(M).
    """
    M = table.grid.eta_max
    fM = float(table.f[-1])
    fpM = float(table.fp[-1])
    fppM = float(table.fpp[-1])
    if abs(fpM - 1.0) > 1e-6:
        raise ValueError(f"table is not rescaled to fp(M) = 1, got fp = {fpM!r}")
    if fM <= 0.0:
        raise ValueError(f"f_M(M) must be positive, got {fM!r}")
    return RubelBound(M=M, fM_at_M=fM, fppM_at_M=fppM, bound=M * fppM / fM)


def series_deviation(eta_max: float = SERIES_ETA_MAX,
                     step: float = SERIES_STEP) -> tuple[float, float]:
    """Max series-versus-solve deviation on (0, eta_max] and fitted order.

    Integrates the star IVP of the classic problem, seeded with unit
    wall shear, on a fine grid, compares it against the unit-shear wall
    series, and fits the truncation order on the upper part of the
    window, [0.6 eta_max, eta_max]. The fit needs two nodes there where
    the first dropped term, C14 eta^14, clears ROUNDOFF_FLOOR; eta_max
    and step are refused before integrating if the grid has fewer.
    """
    check_real("eta_max", eta_max)
    check_real("step", step)
    grid = GridConfig(eta_max=eta_max, step=step)
    # the first node where the series error is predicted above the floor
    eta_floor = (ROUNDOFF_FLOOR / _C14) ** (1.0 / 14.0)
    first = math.ceil(max(0.6 * eta_max, eta_floor) / step)
    if grid.nodes - first < 2:
        raise ValueError(
            f"eta_max = {eta_max:g} at step {step:g} leaves fewer than 2 nodes "
            f"for the order fit, which uses the nodes in [0.6 eta_max, eta_max] "
            f"past eta = {eta_floor:.3g}, where the series error clears "
            f"{ROUNDOFF_FLOOR:g}")
    import numpy as np

    star = integrate(0.5, (0.0, 0.0, 1.0), grid)
    etas = star.etas()
    errs = np.abs(star.f - series_eval(series_coefficients(1.0), etas))
    return float(errs.max()), _fit_order(etas, errs, (0.6 * eta_max, eta_max))
