"""Independent verification instruments.

The wall power series of the Blasius solution and the Rubel error bound
for boundary truncation. Both are checks on the solver, produced by
routes independent of the lambda-agreement machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ode import GridConfig, SolutionTable, integrate
from .scaling import rescale

if TYPE_CHECKING:
    import numpy as np

# a deviation below this is roundoff, and the order fit leaves its node out
ROUNDOFF_FLOOR = 1e-14
# the first dropped term of the unit-shear series, C14 eta^14: 27897 / (16 * 14!)
_C14 = 27897.0 / (16.0 * math.factorial(14))

# truncated_solution's physical grid has this many steps per unit of M;
# its secant stops once T^2 fp*(T) is within _TRUNCATION_TOL of M^2,
# relatively, and fails after _TRUNCATION_MAX_ITER steps
NODES_PER_UNIT = 1000
_TRUNCATION_TOL = 1e-12
_TRUNCATION_MAX_ITER = 60


@dataclass(frozen=True)
class BlasiusSeries:
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


@dataclass(frozen=True)
class RubelBound:
    """Computable truncation-error bound M * fpp_M(M) / f_M(M)."""

    M: float
    fM_at_M: float
    fppM_at_M: float
    bound: float


@dataclass(frozen=True, eq=False)
class TruncatedSolution:
    """beta=1 problem solved on [0, M] with fp(M) = 1 enforced exactly."""

    t_star: float
    lam: float
    table: SolutionTable


def truncated_solution(M: float) -> TruncatedSolution:
    """Truncated-boundary solution by the non-iterative method.

    The star boundary T solves T^2 fp*(T) = M^2 by secant iteration
    (each evaluation is one IVP solve); lambda = M/T then rescales the
    star table so the physical boundary lands on M with fp(M) = 1.
    The physical grid step is M/(M*NODES_PER_UNIT), so solutions for
    M and 2M share their nodes on [0, M].
    """
    if not (math.isfinite(M) and M > 0.0):
        raise ValueError(f"M must be positive and finite, got {M}")
    n = round(M * NODES_PER_UNIT)
    if n < 8:
        raise ValueError(f"grid too coarse for M = {M}")
    target = M * M

    def residual(t: float) -> tuple[float, SolutionTable]:
        star = integrate(1.0, (0.0, 0.0, 1.0), GridConfig(eta_max=t, step=t / n))
        return t * t * star.fp_inf - target, star

    t0, t1 = 0.75 * M, 0.8 * M
    g0, _ = residual(t0)
    g1, star = residual(t1)
    for _ in range(_TRUNCATION_MAX_ITER):
        if abs(g1) <= _TRUNCATION_TOL * target:
            break
        if g1 == g0:
            raise ValueError("secant stalled while matching the truncated boundary")
        t0, t1 = t1, t1 - g1 * (t1 - t0) / (g1 - g0)
        g0 = g1
        g1, star = residual(t1)
    else:
        raise ValueError(f"no secant convergence for M = {M}")

    lam = M / t1
    # physical step lam * (T/n) equals M/n up to rounding, and fp(M) =
    # fp*(T)/lam^2 = 1 by the choice of T
    table = rescale(star.grid.step, star.f, star.fp, star.fpp, lam)
    return TruncatedSolution(t_star=t1, lam=lam, table=table)


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


def series_deviation(eta_max: float = 0.5, step: float = 1e-4) -> tuple[float, float]:
    """Max series-versus-solve deviation on (0, eta_max] and fitted order.

    Integrates the star IVP of the classic problem, seeded with unit
    wall shear, on a fine grid, compares it against the unit-shear wall
    series, and fits the truncation order on the upper part of the
    window, [0.6 eta_max, eta_max]. The fit needs two nodes there where
    the first dropped term, C14 eta^14, clears ROUNDOFF_FLOOR; eta_max
    and step are refused before integrating if the grid has fewer.
    """
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
