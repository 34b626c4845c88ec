"""Problem-level drivers for the non-iterative transformation method.

Each solve is one IVP integration in star variables, a lambda recovery
from the computed asymptote, and a rescale; no shooting iteration on
the missing initial condition ever happens. The truncated boundary is
chosen by Topfer's agreement test: integrate to successive candidate
boundaries and accept as soon as two successive lambda values agree.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BracketingError, NitmError, NoConvergenceError,
                     UnsupportedVariantError)
from .ode import GridConfig, SolutionTable, State3, node_index, walk
from .scaling import (ScalingGroup, lambda_from_asymptote, lambda_moving_wall,
                      map_parameter, rescale)

VARIANTS = ("classic", "moving-wall", "slip", "gasification")

# param* = lambda^k * param for the parametrized variants
PARAM_EXPONENT = {"moving-wall": 2.0, "slip": -1.0, "gasification": -2.0}

DEFAULT_SCHEDULE = tuple(float(b) for b in range(4, 52, 2))


@dataclass(frozen=True)
class ProblemSpec:
    """Auxiliary-IVP description for one solver variant.

    p seeds the star second derivative f''*(0); for the moving wall the
    sign rule is +1 when the resulting b < 1/2 and -1 when b > 1/2.
    d is the asymptotic slope target of the physical problem (1 for
    classic/slip/gasification; the moving wall's 1-b is only known
    after lambda is recovered and is filled in by the solver).
    """

    variant: str
    beta: float
    star_param: float | None
    p: float
    d: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.p not in (1.0, -1.0):
            raise ValueError(f"p must be +1 or -1, got {self.p}")
        if self.beta not in (0.5, 1.0):
            raise ValueError(f"beta must be 1/2 or 1, got {self.beta}")
        if self.variant == "classic" and self.star_param is not None:
            raise ValueError("the classic problem carries no star parameter")
        if self.variant != "classic" and self.star_param is None:
            raise ValueError(f"variant {self.variant!r} needs a star parameter")
        if self.star_param is not None and not math.isfinite(self.star_param):
            raise ValueError(f"star_param must be finite, got {self.star_param}")


def classic_problem(p: float = 1.0) -> ProblemSpec:
    return ProblemSpec("classic", 0.5, None, p)


def moving_wall_problem(b_star: float, sign: float = 1.0) -> ProblemSpec:
    return ProblemSpec("moving-wall", 0.5, b_star, sign)


def slip_problem(c_star: float, sign: float = 1.0) -> ProblemSpec:
    if c_star < 0.0:
        raise ValueError(f"c_star must be nonnegative, got {c_star}")
    return ProblemSpec("slip", 0.5, c_star, sign)


def gasification_problem(s_star: float, sign: float = 1.0) -> ProblemSpec:
    if s_star < 0.0:
        raise ValueError(f"s_star must be nonnegative, got {s_star}")
    if sign != 1.0:
        raise ValueError(f"gasification has only the +1 branch, got sign {sign}")
    return ProblemSpec("gasification", 1.0, s_star, 1.0)


# constructor of each parametrized variant's ProblemSpec from (star, sign)
PROBLEMS = {
    "moving-wall": moving_wall_problem,
    "slip": slip_problem,
    "gasification": gasification_problem,
}


def initial_state(spec: ProblemSpec) -> State3:
    """Star-variable initial conditions for the auxiliary IVP."""
    if spec.variant == "classic":
        return State3(0.0, 0.0, spec.p)
    if spec.variant == "moving-wall":
        return State3(0.0, spec.star_param, spec.p)
    if spec.variant == "slip":
        # slip condition f'(0) = c f''(0) carried into star variables
        return State3(0.0, spec.star_param * spec.p, spec.p)
    return State3(-spec.star_param, 0.0, 1.0)


@dataclass(frozen=True)
class NitmConfig:
    """Grid step, candidate truncated boundaries, and agreement tolerance.

    A single-entry schedule skips the agreement test and accepts that
    boundary as given (used for fixed-boundary reports and the
    truncated-boundary analysis). stops holds the node index of each
    boundary, derived here, so a boundary off the grid is rejected on
    construction.
    """

    step: float = 0.01
    boundary_schedule: tuple[float, ...] = DEFAULT_SCHEDULE
    lambda_tol: float = 1e-6
    stops: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        sched = tuple(float(b) for b in self.boundary_schedule)
        if not sched:
            raise ValueError("boundary schedule must be nonempty")
        stops = tuple(node_index(b, self.step, "boundary") for b in sched)
        if any(s2 <= s1 for s1, s2 in zip(stops, stops[1:])):
            raise ValueError(f"boundary schedule must be strictly increasing, "
                             f"got {sched}")
        if not (math.isfinite(self.lambda_tol) and self.lambda_tol > 0.0):
            raise ValueError(f"lambda_tol must be positive, got {self.lambda_tol}")
        object.__setattr__(self, "boundary_schedule", sched)
        object.__setattr__(self, "stops", stops)


DEFAULT_CONFIG = NitmConfig()


@dataclass(frozen=True, eq=False)
class NitmResult:
    """One non-ITM solve: group parameter, rescaled table, and wall values.

    lambdas holds the lambda recovered at each boundary walked, in
    schedule order; its last entry is lam.
    """

    lam: float
    lambdas: tuple[float, ...]
    eta_inf_star: float
    fp_inf_star: float
    physical_param: float | None
    f0: float
    fp0: float
    fpp0: float
    table: SolutionTable


def _lambda_at(spec: ProblemSpec, fp_boundary: float) -> float:
    if spec.variant == "moving-wall":
        return lambda_moving_wall(fp_boundary, spec.star_param)
    group = ScalingGroup(delta=-1.0, d=spec.d)
    return lambda_from_asymptote(fp_boundary, group)


def solve_auxiliary(spec: ProblemSpec, config: NitmConfig | None = None) -> NitmResult:
    """Run the non-iterative method for one problem.

    Integrates the star IVP over the boundary schedule, accepting the
    larger boundary of the first pair whose lambda values agree within
    lambda_tol, then recovers lambda and rescales. The schedule is
    walked incrementally, so integration never proceeds past the
    accepted boundary.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    fixed_boundary = len(cfg.stops) == 1
    lambdas: list[float] = []
    for stop, f, fp, fpp in walk(spec.beta, initial_state(spec), cfg.step,
                                 cfg.stops):
        lambdas.append(_lambda_at(spec, float(fp[stop])))
        if fixed_boundary or (len(lambdas) >= 2
                              and abs(lambdas[-1] - lambdas[-2]) <= cfg.lambda_tol):
            break
    else:
        raise NoConvergenceError(lambdas)

    boundary = cfg.boundary_schedule[len(lambdas) - 1]
    lam = lambdas[-1]
    fp_inf_star = float(fp[stop])

    k = PARAM_EXPONENT.get(spec.variant)
    physical = None if k is None else map_parameter(spec.star_param, lam, k)
    d = 1.0 - physical if spec.variant == "moving-wall" else spec.d

    star_grid = GridConfig(eta_max=boundary, step=cfg.step)
    star_table = SolutionTable(star_grid, f[:stop + 1].copy(),
                               fp[:stop + 1].copy(), fpp[:stop + 1].copy())
    group = ScalingGroup(delta=-1.0, d=d)
    table = rescale(star_table, lam, group)

    return NitmResult(
        lam=lam,
        lambdas=tuple(lambdas),
        eta_inf_star=boundary,
        fp_inf_star=fp_inf_star,
        physical_param=physical,
        f0=float(table.f[0]),
        fp0=float(table.fp[0]),
        fpp0=float(table.fpp[0]),
        table=table,
    )


def solve_moving_wall(b_star: float, sign: float = 1.0,
                      config: NitmConfig | None = None) -> NitmResult:
    """Moving-wall solve: b = lambda^-2 b*, d = 1 - b, fpp0 = sign * lambda^-3."""
    return solve_auxiliary(moving_wall_problem(b_star, sign), config)


def solve_slip(c_star: float, config: NitmConfig | None = None) -> NitmResult:
    """Slip-flow solve: c = lambda c*, fp0 = lambda^-2 c* p, fpp0 = lambda^-3 p."""
    return solve_auxiliary(slip_problem(c_star), config)


def solve_gasification(s_star: float, config: NitmConfig | None = None) -> NitmResult:
    """Gasification solve: s = lambda^2 s*, f0 = -lambda^-1 s*, fpp0 = lambda^-3."""
    return solve_auxiliary(gasification_problem(s_star), config)


def _problem(variant: str, star_value: float, sign: float) -> ProblemSpec:
    try:
        make = PROBLEMS[variant]
    except KeyError:
        raise UnsupportedVariantError(
            f"variant {variant!r} does not take a star parameter"
        ) from None
    return make(star_value, sign)


def solve_variant(variant: str, star_value: float, sign: float = 1.0,
                  config: NitmConfig | None = None) -> NitmResult:
    """Dispatch a single solve by variant name."""
    return solve_auxiliary(_problem(variant, star_value, sign), config)


def sweep(variant: str, star_values, sign: float = 1.0,
          config: NitmConfig | None = None) -> list[NitmResult | NitmError]:
    """Solve one row per star value, preserving order.

    A row that fails carries the error object in place of a result, so
    a sweep across a critical region still reports its solvable rows.
    Every star value is checked before the first solve.
    """
    if variant not in PROBLEMS:
        raise UnsupportedVariantError(
            f"sweep needs a parametrized variant, got {variant!r}"
        )
    specs = [_problem(variant, value, sign) for value in star_values]
    if not specs:
        raise ValueError("sweep needs at least one star value")
    rows: list[NitmResult | NitmError] = []
    for spec in specs:
        try:
            rows.append(solve_auxiliary(spec, config))
        except NitmError as exc:
            # without its traceback: that holds this frame, and so rows
            rows.append(exc.with_traceback(None))
    return rows


class CriticalB(NamedTuple):
    b_c: float
    b_star: float


def find_critical_b(config: NitmConfig | None = None,
                    scan_lo: float = -5.0, scan_hi: float = -1e-3,
                    scan_points: int = 200, tol: float = 1e-6) -> CriticalB:
    """Most negative physical b reachable on the plus branch.

    Scans b* over [scan_lo, scan_hi] at log-spaced points to bracket
    the minimum of b(b*), then refines by golden-section search to tol
    in b*. Returns the minimum b and the b* attaining it.
    """
    if not (math.isfinite(scan_lo) and scan_lo < scan_hi < 0.0):
        raise ValueError(
            f"scan range must satisfy scan_lo < scan_hi < 0, "
            f"got ({scan_lo}, {scan_hi})"
        )
    if scan_points < 3:
        raise ValueError(f"scan needs at least 3 points, got {scan_points}")

    def b_of(b_star: float) -> float:
        return solve_moving_wall(b_star, 1.0, config).physical_param

    xs = -np.logspace(math.log10(-scan_lo), math.log10(-scan_hi), scan_points)
    scanned: list[float] = []
    points: list[tuple[float, float]] = []
    for x in xs:
        scanned.append(float(x))
        try:
            points.append((float(x), b_of(float(x))))
        except NitmError:
            continue
    if len(points) < 3:
        raise BracketingError("too few solvable points to bracket the minimum",
                              scanned)
    i_min = min(range(len(points)), key=lambda i: points[i][1])
    if i_min == 0 or i_min == len(points) - 1:
        raise BracketingError("minimum of b(b*) sits at the scan edge", scanned)

    lo = points[i_min - 1][0]
    hi = points[i_min + 1][0]
    # golden-section: keeps a shrinking bracket around the unimodal minimum
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = b_of(x1)
    f2 = b_of(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = b_of(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = b_of(x2)
    b_star = 0.5 * (lo + hi)
    return CriticalB(b_c=b_of(b_star), b_star=b_star)


# Default search ranges are limited to star values whose auxiliary IVP
# stays stable at the default step; pass an explicit bracket (and a
# finer step) to reach more extreme parameters.
_TARGET_BRACKETS = {
    ("moving-wall", 1.0): (1e-6, 100.0),
    # the minus branch only exists above the Sakiadis star value ~1.7188,
    # where fp_inf_star reaches zero
    ("moving-wall", -1.0): (1.75, 100.0),
    ("slip", 1.0): (0.0, 40.0),
    ("gasification", 1.0): (0.0, 4.0),
}


# find_critical_b's b* (-1.232273 at the default step), rounded towards
# the left lobe of the non-monotone b(b*) map, the lobe that runs from
# the critical b* up to b* = 0: a bracket starting here holds one root.
_CRITICAL_B_STAR = -1.2322


def _default_bracket(variant: str, target: float, sign: float) -> tuple[float, float]:
    if variant == "moving-wall" and sign == 1.0 and target < 0.0:
        return (_CRITICAL_B_STAR, -1e-6)
    try:
        return _TARGET_BRACKETS[(variant, sign)]
    except KeyError:
        raise BracketingError(
            f"no default bracket for variant {variant!r} with sign {sign:+g}; "
            "pass bracket explicitly"
        ) from None


def find_star_for_target(variant: str, target: float, sign: float = 1.0,
                         config: NitmConfig | None = None,
                         bracket: tuple[float, float] | None = None,
                         tol: float = 1e-6, max_iter: int = 100) -> NitmResult:
    """Find the star value whose recovered physical parameter hits target.

    Safeguarded secant on the parameter map: every inner evaluation is
    a full non-iterative solve, the outer iteration only moves the star
    value. Stops when |physical_param - target| < tol.
    """
    if variant == "classic":
        raise UnsupportedVariantError(
            "the classic problem has no physical parameter to target"
        )
    if variant not in PROBLEMS:
        raise UnsupportedVariantError(f"unknown variant {variant!r}")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    if bracket is not None and not all(map(math.isfinite, bracket)):
        raise ValueError(f"bracket must be finite, got {bracket}")
    lo, hi = bracket if bracket is not None else _default_bracket(variant, target, sign)
    if not lo < hi:
        raise BracketingError(f"empty bracket ({lo:.6g}, {hi:.6g})")

    def evaluate(x: float) -> tuple[NitmResult, float]:
        res = solve_variant(variant, x, sign, config)
        return res, res.physical_param - target

    res_lo, g_lo = evaluate(lo)
    if abs(g_lo) < tol:
        return res_lo
    res_hi, g_hi = evaluate(hi)
    if abs(g_hi) < tol:
        return res_hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise BracketingError(
            f"target {target:.6g} not bracketed by ({lo:.6g}, {hi:.6g})",
            (g_lo + target, g_hi + target),
        )

    x0, g0 = lo, g_lo
    x1, g1 = hi, g_hi
    for _ in range(max_iter):
        if g1 != g0:
            x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        else:
            x2 = 0.5 * (lo + hi)
        if not lo < x2 < hi:
            x2 = 0.5 * (lo + hi)
        res, g2 = evaluate(x2)
        if abs(g2) < tol:
            return res
        if math.copysign(1.0, g2) == math.copysign(1.0, g_lo):
            lo, g_lo = x2, g2
        else:
            hi, g_hi = x2, g2
        x0, g0 = x1, g1
        x1, g1 = x2, g2
    raise NoConvergenceError([g0 + target, g1 + target], label="target")
