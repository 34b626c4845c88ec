"""Independent verification instruments.

The wall power series of the Blasius solution and the Rubel error bound
for boundary truncation. Both are checks on the solver, produced by
routes independent of the lambda-agreement machinery.
"""

from __future__ import annotations

import math
import threading
from array import array
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .errors import BlowupError, check_finite, check_positive
from .ode import MAX_NODES, GridConfig, SolutionTable, StarTableRecord, integrate
from .scaling import physical_values, rescale

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
# relatively, and fail after _TRUNCATION_MAX_ITER of them. Its first
# pass, at the star step 0.8 M / n, is read from _FIRST_PASSES: on the
# 1/1000 grid of M that step is one of three doubles
NODES_PER_UNIT = 1000
_TRUNCATION_TOL = 1e-12
_TRUNCATION_MAX_ITER = 60
# _crossing moves the Hermite root only when g there misses M^2 by more
# than this, relatively. The pass at the root integrates on its own
# step, which near the gate makes its miss 0.6-4e-14 of M^2 smaller
# (seen over 3000 random M in [0.008, 0.5]), so a root whose pass lands
# inside _TRUNCATION_TOL as it is keeps its bits.
_CROSSING_GATE = 1.05e-12
# The beta = 1 trajectory from (0, 0, 1), keyed by its exact step: f, fp
# and fpp as array('d') through the largest node asked for so far. It
# holds at most _STORE_STEPS steps, the least recently read going first,
# of at most _STORE_NODES nodes each: 9 arrays of 2^16 doubles, 4.7 MB.
# _STORE_LOCK makes each lookup, growth and eviction one step for threads.
_STORE_STEPS = 3
_STORE_NODES = 1 << 16
_FIRST_PASSES: dict[float, tuple[array, array, array]] = {}
_STORE_LOCK = threading.Lock()


class BlasiusSeries(NamedTuple):
    """Wall expansion f = C2 eta^2 + C5 eta^5 + C8 eta^8 + C11 eta^11."""

    shear: float
    coefficients: tuple[float, float, float, float]


def series_coefficients(shear: float) -> BlasiusSeries:
    """Series coefficients in terms of the wall shear.

    C2 = shear/2, C5 = -shear^2/(2*5!), C8 = 11 shear^3/(4*8!),
    C11 = -375 shear^4/(8*11!).
    """
    shear = check_finite("shear", shear)
    if shear == 0.0:
        raise ValueError("shear must be nonzero")
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


def _fit_order(etas: np.ndarray, errs: np.ndarray, start: float) -> float:
    """Least-squares slope of log errs versus log etas from start on.

    The window is the slice of nodes from the first at or past start
    through the last node, less those whose error is at or below
    ROUNDOFF_FLOOR. The slope is the closed form sum(dx (y - mean y)) /
    sum(dx^2) with x = log eta, y = log err and dx = x - mean x.
    """
    import numpy as np

    lo = int(np.searchsorted(etas, start))
    usable = errs[lo:] > ROUNDOFF_FLOOR
    if np.count_nonzero(usable) < 2:
        raise ValueError("window leaves too few usable nodes for the fit")
    x, y = np.log(etas[lo:][usable]), np.log(errs[lo:][usable])
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


class RubelBound(NamedTuple):
    """Computable truncation-error bound M * fpp_M(M) / f_M(M)."""

    M: float
    fM_at_M: float
    fppM_at_M: float
    bound: float


class TruncatedSolution(StarTableRecord):
    """beta=1 problem solved on [0, M] with fp(M) = 1 enforced exactly.

    truncated_solution builds it with the star step and its last pass's
    f, fp and fpp buffers in _star, so table is rescaled from them on
    first read and kept; a table given to the constructor is kept as is.
    The buffers are the solution's own: none is an array of the store
    of first passes, so writing them leaves other solutions alone.
    """

    _fields = ("t_star", "lam", "table")
    __slots__ = ("_t_star", "_lam")

    def __init__(self, t_star: float, lam: float, table: SolutionTable | None = None,
                 _star: tuple | None = None):
        self._t_star, self._lam, self._table, self._star = t_star, lam, table, _star

    @property
    def table(self) -> SolutionTable:
        """The physical table on [0, M], rescaled on first read and kept."""
        # rescale is looked up here, so a wrapper patched onto the module is used
        return self._read_table(rescale)


class RubelCheck(NamedTuple):
    """Rubel's bound at M against the 2M solution on the nodes the two share.

    solution and solution_2M are the truncated solutions for M and 2M,
    bound is rubel_bound of the first, and empirical_max_error the most
    that their f differ by on [0, M].
    """

    solution: TruncatedSolution
    solution_2M: TruncatedSolution
    bound: RubelBound
    empirical_max_error: float


def _crossing(step: float, f, fp, fpp, last: int, target: float) -> float:
    """eta* at which the cubic Hermite fit of g = eta*^2 fp* reaches target.

    f, fp and fpp hold the star trajectory on the nodes i * step through
    node last, and are only read. The fit spans the two nodes whose g
    values bracket target, found by bisection since g increases along
    the trajectory; its end slopes are g' = 2 eta* fp* + eta*^2 fpp*.
    The root is three Newton steps on the cubic from the chord's root,
    whose error, a thousandth of a step or so, squares at each. The
    cubic itself misses the trajectory by up to a few 1e-9 of target on
    the coarsest grids: one RK4 step of the beta = 1 ODE from the node
    below the root, into a two-node scratch, gives g there, and past
    _CROSSING_GATE the root takes one Newton step on g.
    """
    lo, hi = 0, last
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
    t = a + s * step
    scratch = [array("d", (column[lo], 0.0)) for column in (f, fp, fpp)]
    # looked up at each call, so a kernel patched onto the module is used
    kernels.fill_blasius_family(1.0, *scratch, t - a, 0, 1)
    sfp, sfpp = scratch[1][1], scratch[2][1]
    miss = t * t * sfp - target
    if abs(miss) > _CROSSING_GATE * target:
        t = _newton(t, miss, sfp, sfpp)
    return t


def _newton(t: float, miss: float, fp: float, fpp: float) -> float:
    """t after one Newton step on g = t^2 fp*(t), which misses its target by miss."""
    return t - miss / (t * (2.0 * fp + t * fpp))


def _first_pass(step: float, n: int) -> tuple[array, array, array] | None:
    """The stored trajectory at step, through node n or past it.

    None if n + 1 nodes exceed _STORE_NODES; the store is then left as
    it was. A trajectory short of node n grows by filling its new nodes
    from its old last node, into fresh arrays that replace it only after
    the fill: a reader never sees a half-written trajectory, and a pass
    that blows up raises BlowupError and stores nothing. The fill is
    sequential, so node i has the same bits however the trajectory grew.
    """
    if n >= _STORE_NODES:
        return None
    with _STORE_LOCK:
        stored = _FIRST_PASSES.get(step)
        if stored is None:
            stored = (array("d", (0.0,)), array("d", (0.0,)), array("d", (1.0,)))
        last = len(stored[0]) - 1
        if last < n:
            zeros = array("d", (0.0,)) * (n - last)
            grown = tuple(column + zeros for column in stored)
            # looked up at each call, so a kernel patched onto the module is used
            bad = kernels.fill_blasius_family(1.0, *grown, step, last, n)
            if bad >= 0:
                raise BlowupError(bad * step)
            stored = grown
        # the step read last moves to the end, and the first is dropped
        # past the bound
        _FIRST_PASSES.pop(step, None)
        _FIRST_PASSES[step] = stored
        if len(_FIRST_PASSES) > _STORE_STEPS:
            del _FIRST_PASSES[next(iter(_FIRST_PASSES))]
    return stored


def truncated_solution(M: float) -> TruncatedSolution:
    """Truncated-boundary solution by the non-iterative method.

    The star boundary T solves g(T) = M^2 with g(eta*) = eta*^2 fp*(eta*),
    an event on the star trajectory, since g increases along it. The
    grid has n = M*NODES_PER_UNIT steps, and the first pass runs the
    star IVP to t = 0.8 M on it. Its step is one of few doubles, so it
    is read from the stored trajectory at that step (_FIRST_PASSES),
    which grows to node n, into fresh arrays, if it is shorter and is
    otherwise only read; for n of _STORE_NODES or more, the pass
    integrates as the later ones do. Each later pass fills the
    solution's own three array('d') buffers of n + 1 nodes to a
    candidate t. Short of M^2, t grows by sqrt(M^2/g(t)), which
    overshoots T because fp* increases; past it, the next t is where
    the Hermite fit of g between the bracketing nodes reaches M^2, and
    a pass there that still misses takes one Newton step on g. With the
    first pass stored, one integration does for M >= 2.7, where
    T < 0.8 M, and at most two below.
    lambda = M/T then rescales the last pass's buffers, on the first
    read of table, so the physical boundary lands on M with fp(M) = 1;
    if the first pass met the gate, its nodes are copied into the
    buffers, so that no solution shares the store's arrays.
    The physical grid step is M/n, so the 2M solution's nodes fall on
    the M solution's on [0, M] only where its n is twice this one's, as
    for every M on the 1/NODES_PER_UNIT grid. The nodes are allocated
    once, so M is refused before anything runs if n would reach
    MAX_NODES.
    """
    M = check_positive("M", M)
    if M * NODES_PER_UNIT >= MAX_NODES:
        raise ValueError(f"M = {M} needs more than {MAX_NODES} grid nodes")
    n = round(M * NODES_PER_UNIT)
    if n < 8:
        raise ValueError(f"grid too coarse for M = {M}")
    target = M * M
    # node 0 holds the star seed (0, 0, 1); every pass writes nodes 1 .. n
    f, fp, fpp = (array("d", (0.0,)) * (n + 1) for _ in range(3))
    fpp[0] = 1.0

    t = 0.8 * M
    trajectory = _first_pass(t / n, n)
    crossed = False
    for _ in range(_TRUNCATION_MAX_ITER):
        step = t / n
        if trajectory is None:
            # looked up at each call, so a kernel patched onto the module is used
            bad = kernels.fill_blasius_family(1.0, f, fp, fpp, step, 0, n)
            if bad >= 0:
                raise BlowupError(bad * step)
            trajectory = f, fp, fpp
        g = t * t * trajectory[1][n]
        if abs(g - target) <= _TRUNCATION_TOL * target:
            break
        if crossed:
            # a Hermite root left in _CROSSING_GATE that still misses: one
            # Newton step on g from the end node
            t = _newton(t, g - target, trajectory[1][n], trajectory[2][n])
            crossed = False
        elif g < target:
            t = t * math.sqrt(target / g)
        else:
            t, crossed = _crossing(step, *trajectory, n, target), True
        trajectory = None
    else:
        raise ValueError(f"truncated boundary for M = {M} not matched in "
                         f"{_TRUNCATION_MAX_ITER} passes")
    if trajectory[0] is not f:
        # the first pass met the gate: the solution keeps copies of its nodes
        for column, stored in zip((f, fp, fpp), trajectory):
            column[1:] = stored[1:n + 1]

    # physical step lam * (t/n) equals M/n up to rounding, and fp(M) =
    # fp*(t)/lam^2 = 1 by the choice of t
    return TruncatedSolution(t, M / t, None, (step, f, fp, fpp))


def _bound(M: float, fM: float, fpM: float, fppM: float) -> RubelBound:
    """The RubelBound of a solution whose values at its boundary M are given."""
    if abs(fpM - 1.0) > 1e-6:
        raise ValueError(f"table is not rescaled to fp(M) = 1, got fp = {fpM!r}")
    if fM <= 0.0:
        raise ValueError(f"f_M(M) must be positive, got {fM!r}")
    return RubelBound(M=M, fM_at_M=fM, fppM_at_M=fppM, bound=M * fppM / fM)


def rubel_bound(table: SolutionTable) -> RubelBound:
    """Error bound for truncating the beta=1 problem at M = eta_max.

    The table must hold a truncated-boundary solution with fp(M)
    rescaled to 1 (as produced by truncated_solution); the bound is
    M * fpp(M) / f(M).
    """
    return _bound(table.grid.eta_max, float(table.f[-1]), float(table.fp[-1]),
                  float(table.fpp[-1]))


def rubel_check(M: float) -> RubelCheck:
    """Rubel's bound at M, and the 2M solution's distance from the M solution.

    Both come from the solutions' star buffers, so no table is built:
    the bound from the M solution's end node, with the arithmetic of
    its table's grid and physical_values, and the distance as the
    largest |f_2M - f_M| over the nodes on [0, M], each value scaled as
    its table would scale it. So both equal, bit for bit, rubel_bound
    of the M table and the max over the tables' shared rows. The max
    is a Python loop, about 0.1 us a node (M = 1000 takes about as long
    as importing numpy). The two solutions' first passes share their
    step, so the 2M solution's extends the stored trajectory that the M
    solution's left, from node n to node 2n. M is refused before
    anything runs if the 2M solution would reach MAX_NODES, or if its
    n would not be 2n, so that its nodes on [0, M] would not be the M
    solution's (M = 8.0005, say; no M on the 1/NODES_PER_UNIT grid).
    """
    M = check_positive("M", M)
    if 2.0 * M * NODES_PER_UNIT >= MAX_NODES:
        raise ValueError(f"M = {M} needs a 2M solution on more than {MAX_NODES} "
                         f"grid nodes")
    if round(2.0 * M * NODES_PER_UNIT) != 2 * round(M * NODES_PER_UNIT):
        raise ValueError(f"M = {M} puts the 2M solution's nodes off the M "
                         f"solution's: take M on the 1/{NODES_PER_UNIT} grid")
    solution, solution_2M = truncated_solution(M), truncated_solution(2.0 * M)
    step, f, fp, fpp = solution._star
    lam = solution.lam
    # the M table's grid, as rescale builds it, ends at eta_max
    eta_max = GridConfig.of_nodes(len(f), lam * step).eta_max
    bound = _bound(eta_max, *physical_values(lam, f[-1], fp[-1], fpp[-1]))
    scale, scale_2M = lam ** -1.0, solution_2M.lam ** -1.0
    empirical = 0.0
    # zip stops at the M solution's last node
    for f_2M, f_M in zip(solution_2M._star[1], f):
        gap = abs(f_2M * scale_2M - f_M * scale)
        if gap > empirical:
            empirical = gap
    return RubelCheck(solution, solution_2M, bound, empirical)


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
    return float(errs.max()), _fit_order(etas, errs, 0.6 * eta_max)
