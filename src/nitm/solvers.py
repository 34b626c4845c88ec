"""Problem-level drivers for the non-iterative transformation method.

Each solve is one IVP integration in star variables, a lambda recovery
from the computed asymptote, and a rescale; no shooting iteration on
the missing initial condition ever happens. The truncated boundary is
chosen by Topfer's agreement test: integrate to successive candidate
boundaries and accept as soon as two successive lambda values agree.
"""

import math
import operator
from typing import Callable, NamedTuple

from . import kernels
from ._kernels_py import ACCEPTED, BLOWUP, BREAKDOWN, walk_member
from .errors import (BlowupError, BracketingError, NitmError, NoConvergenceError,
                     ScalingBreakdownError, check_finite, check_numbers,
                     check_positive, check_real)
from .ode import (DEFAULT_STEP, Checked, SolutionTable, StarTableRecord, State3,
                  node_index)
from .scaling import (lambda_from_asymptote, lambda_moving_wall, physical_values,
                      rescale)


class Variant(NamedTuple):
    """The rules of one variant: f''' = -beta f f''; physical parameter
    star * lambda^-k (k None: no star value); star >= least_star; p in
    signs; seed(star, p) is the star initial state as a plain tuple.
    """

    beta: float
    k: float | None
    least_star: float
    signs: tuple[float, ...]
    seed: Callable[[float | None, float], tuple[float, float, float]]


VARIANTS = {
    "classic": Variant(0.5, None, -math.inf, (1.0, -1.0),
                       lambda star, p: (0.0, 0.0, p)),
    "moving-wall": Variant(0.5, 2.0, -math.inf, (1.0, -1.0),
                           lambda star, p: (0.0, star, p)),
    # the slip condition f'(0) = c f''(0) carried into star variables
    "slip": Variant(0.5, -1.0, 0.0, (1.0, -1.0),
                    lambda star, p: (0.0, star * p, p)),
    "gasification": Variant(1.0, -2.0, 0.0, (1.0,),
                            lambda star, p: (-star, 0.0, 1.0)),
}

PARAMETRIZED = tuple(v for v, rules in VARIANTS.items() if rules.k is not None)

DEFAULT_SCHEDULE = tuple(float(b) for b in range(4, 52, 2))


def _rules(variant: str, star: bool) -> Variant:
    """VARIANTS[variant], checked as every entry checks it: refused unless
    a name there, and, given a star value (star), unless it takes one."""
    try:
        rules = VARIANTS[variant]
    except (KeyError, TypeError):       # TypeError: unhashable
        raise (ValueError if isinstance(variant, str) else TypeError)(
            f"variant must be one of {tuple(VARIANTS)}, got {variant!r}") from None
    if star and rules.k is None:
        raise ValueError(f"variant {variant!r} takes no star_param")
    return rules


def _check_sign(variant: str, p: float) -> float:
    if type(p) is not float:
        p = check_real("sign", p)
    signs = VARIANTS[variant].signs
    if p not in signs:
        raise ValueError(f"sign p of {variant} must be "
                         f"{' or '.join(f'{s:+g}' for s in signs)}, got {p}")
    return p


class ProblemSpec(Checked, NamedTuple("ProblemSpec", [
        ("variant", str), ("star_param", float | None), ("p", float)])):
    """Auxiliary-IVP description for one solver variant.

    p seeds the star second derivative f''*(0); for the moving wall the
    sign rule is +1 when the resulting b < 1/2 and -1 when b > 1/2.
    The variant's entry in VARIANTS fixes beta, the seed and which star
    values and signs are admissible; construction refuses the rest.
    """

    __slots__ = ()

    def __new__(cls, variant: str, star_param: float | None, p: float):
        rules = _rules(variant, star_param is not None)
        p = _check_sign(variant, p)
        if rules.k is not None:
            star_param = check_finite("star_param", star_param)
            _check_least(variant, (star_param,), "star_param")
        return tuple.__new__(cls, (variant, star_param, p))


def _check_least(variant: str, stars: tuple[float, ...], name: str) -> None:
    """Refuse the first star value below the variant's least_star, by name."""
    least = VARIANTS[variant].least_star
    if min(stars) < least:
        bad = next(star for star in stars if star < least)
        raise ValueError(f"{name} of {variant} must be at least {least:g}, got {bad}")


def classic_problem(p: float = 1.0) -> ProblemSpec:
    return ProblemSpec("classic", None, p)


def initial_state(spec: ProblemSpec) -> State3:
    """Star-variable initial conditions for the auxiliary IVP."""
    return State3(*VARIANTS[spec.variant].seed(spec.star_param, spec.p))


class NitmConfig(NamedTuple("NitmConfig", [("step", float),
                                            ("boundary_schedule", tuple[float, ...]),
                                            ("lambda_tol", float),
                                            ("stops", tuple[int, ...])])):
    """Grid step, candidate truncated boundaries, and agreement tolerance.

    A single-entry schedule skips the agreement test and accepts that
    boundary as given (used for fixed-boundary reports). stops holds
    the node index of each boundary, derived here, so a boundary off the
    grid is rejected on construction; it is no argument, and repr leaves
    it out.
    """

    __slots__ = ()

    def __new__(cls, step: float = DEFAULT_STEP,
                boundary_schedule: tuple[float, ...] = DEFAULT_SCHEDULE,
                lambda_tol: float = 1e-6):
        step = check_positive("step", step)
        lambda_tol = check_positive("lambda_tol", lambda_tol)
        sched = check_numbers("boundary_schedule", boundary_schedule, "boundary")
        stops = tuple(node_index(b, step, "boundary") for b in sched)
        if any(s2 <= s1 for s1, s2 in zip(stops, stops[1:])):
            raise ValueError(f"boundary schedule must be strictly increasing, "
                             f"got {sched}")
        return tuple.__new__(cls, (step, sched, lambda_tol, stops))

    def __getnewargs__(self):
        # pickle and copy rebuild a config from its three arguments
        return self[:3]

    @classmethod
    def _make(cls, iterable) -> "NitmConfig":
        # the four fields, as _replace passes them too; stops is derived
        # again, never taken as given, so it follows a new step or schedule
        step, boundary_schedule, lambda_tol, _stops = iterable
        return cls(step, boundary_schedule, lambda_tol)

    def __repr__(self) -> str:
        return (f"NitmConfig(step={self.step!r}, boundary_schedule="
                f"{self.boundary_schedule!r}, lambda_tol={self.lambda_tol!r})")


DEFAULT_CONFIG = NitmConfig()


def _config(config) -> NitmConfig:
    """DEFAULT_CONFIG for None, else config, refused unless a NitmConfig."""
    if config is None:
        return DEFAULT_CONFIG
    if not isinstance(config, NitmConfig):
        raise TypeError(f"config must be a NitmConfig or None, got {config!r}")
    return config


class NitmResult(StarTableRecord):
    """One non-ITM solve: group parameter, wall values, and rescaled table.

    lambdas holds the lambda recovered at each boundary walked, in
    schedule order; its last entry is lam. star_param is the star value
    solved, None for the classic problem. Until table is first read,
    _star holds the star step and a single solve's f, fp and fpp, or a
    batched row's beta, seed and accepted stop (StarTableRecord).
    """

    _fields = ("lam", "lambdas", "eta_inf_star", "fp_inf_star", "star_param",
               "physical_param", "f0", "fp0", "fpp0")
    __slots__ = tuple("_" + name for name in _fields)

    def __init__(self, lam: float, lambdas: tuple[float, ...], eta_inf_star: float,
                 fp_inf_star: float, star_param: float | None,
                 physical_param: float | None, f0: float, fp0: float, fpp0: float,
                 _star: tuple | None):
        self._lam = lam
        self._lambdas = lambdas
        self._eta_inf_star = eta_inf_star
        self._fp_inf_star = fp_inf_star
        self._star_param = star_param
        self._physical_param = physical_param
        self._f0 = f0
        self._fp0 = fp0
        self._fpp0 = fpp0
        self._star = _star

    @property
    def table(self) -> SolutionTable:
        """The physical table, rescaled from _star on first read and kept."""
        # rescale is looked up here, so a wrapper patched onto the module is used
        return self._read_table(rescale)


def solve_auxiliary(spec: ProblemSpec, config: NitmConfig | None = None) -> NitmResult:
    """Run the non-iterative method for one problem.

    Integrates the star IVP over the boundary schedule, accepting the
    larger boundary of the first pair whose lambda values agree within
    lambda_tol. walk_member walks the schedule with the active fill, one
    fill per boundary and never past the accepted one, and _walk_stars
    builds the row from that walk as it builds a batched row, but with
    the walk's f, fp and fpp, so its table needs no second fill.
    """
    star = []

    def walk(beta, h, stops, seeds, offsets, tol):
        *row, f, fp, fpp = walk_member(kernels.fill_blasius_family, beta, h, stops,
                                       seeds[0], offsets[0], tol)
        star.extend((h, f, fp, fpp))
        return [row]

    [row] = _walk_stars(spec.variant, spec.p, (spec.star_param,), _config(config), walk)
    if isinstance(row, NitmError):
        raise row
    row._star = tuple(star)
    return row


# most star values one walk takes; iter_sweep walks a batch as its rows are read
_BATCH = 64


def _walk_stars(variant: str, p: float, stars, cfg: NitmConfig,
                walk=None) -> list[NitmResult | NitmError]:
    """The row of each checked star value of one variant and sign, in order.

    One walk, the batched kernel entry unless walk is given, runs Topfer's
    agreement test on every seed; a row takes the lambdas it computed and
    its wall values in closed form, or its error (_failure). The closed
    forms are written out here with the operations of physical_values
    (wall values) and star * lambda^-k (the physical parameter), which
    a call per row would cost more than.
    """
    rules = VARIANTS[variant]
    seeds = [rules.seed(star, p) for star in stars]
    # what the walk adds to fp before Topfer's square root: b* for the moving wall
    offsets = stars if variant == "moving-wall" else [0.0] * len(stars)
    # looked up at each call, so a kernel patched onto the module is used
    members = (walk or kernels.walk_blasius_family)(
        rules.beta, cfg.step, cfg.stops, seeds, offsets, cfg.lambda_tol)
    k, beta, step = rules.k, rules.beta, cfg.step
    schedule, stops = cfg.boundary_schedule, cfg.stops
    rows: list = []
    # unpacked by name: a starred target would cost a row 0.25 us
    for star, seed, (outcome, lambdas, fp_stop, bad) in zip(stars, seeds, members):
        if outcome != ACCEPTED:
            rows.append(_failure(variant, star, step, outcome, lambdas, fp_stop, bad))
            continue
        lam, last = lambdas[-1], len(lambdas) - 1
        f0, fp0, fpp0 = seed
        # positional, in field order: keywords would cost a row 0.5 us
        rows.append(NitmResult(lam, lambdas, schedule[last], fp_stop, star,
                               None if k is None else star * lam ** -k,
                               f0 * lam ** -1.0, fp0 * lam ** -2.0, fpp0 * lam ** -3.0,
                               (step, beta, seed, stops[last])))
    return rows


def _failure(variant: str, star: float | None, step: float, outcome: int,
             lambdas: tuple[float, ...], fp_stop: float | None, bad: int) -> NitmError:
    """The error of a member the walk retired unsolved, as a single solve words it."""
    if outcome == BLOWUP:
        return BlowupError(bad * step)
    if outcome == BREAKDOWN:
        try:    # the walk's lambda test again, for scaling's message
            if variant == "moving-wall":
                lambda_moving_wall(fp_stop, star)
            else:
                lambda_from_asymptote(fp_stop)
        except ScalingBreakdownError as exc:
            # without its traceback: that holds this frame, and via it the rows
            return exc.with_traceback(None)
    return NoConvergenceError(lambdas)


def solve_moving_wall(b_star: float, sign: float = 1.0,
                      config: NitmConfig | None = None) -> NitmResult:
    """Moving-wall solve: b = lambda^-2 b*, d = 1 - b, fpp0 = sign * lambda^-3."""
    return solve_auxiliary(ProblemSpec("moving-wall", b_star, sign), config)


def solve_slip(c_star: float, config: NitmConfig | None = None) -> NitmResult:
    """Slip-flow solve: c = lambda c*, fp0 = lambda^-2 c* p, fpp0 = lambda^-3 p."""
    return solve_auxiliary(ProblemSpec("slip", c_star, 1.0), config)


def solve_gasification(s_star: float, config: NitmConfig | None = None) -> NitmResult:
    """Gasification solve: s = lambda^2 s*, f0 = -lambda^-1 s*, fpp0 = lambda^-3."""
    return solve_auxiliary(ProblemSpec("gasification", s_star, 1.0), config)


def solve_variant(variant: str, star_value: float, sign: float = 1.0,
                  config: NitmConfig | None = None) -> NitmResult:
    """Dispatch a single solve by variant name."""
    _rules(variant, True)
    return solve_auxiliary(ProblemSpec(variant, star_value, sign), config)


def iter_sweep(variant: str, star_values, sign: float = 1.0,
               config: NitmConfig | None = None):
    """sweep's rows, walked _BATCH star values at a time as they are read;
    every argument is checked on the call, by ProblemSpec's rules."""
    _rules(variant, True)
    stars = check_numbers("star_values", star_values, "star_param")
    p = _check_sign(variant, sign)
    _check_least(variant, stars, "star_param")
    cfg = _config(config)
    return (row for first in range(0, len(stars), _BATCH)
            for row in _walk_stars(variant, p, stars[first:first + _BATCH], cfg))


def sweep(variant: str, star_values, sign: float = 1.0,
          config: NitmConfig | None = None) -> list[NitmResult | NitmError]:
    """Solve one row per star value, preserving order: the rows of iter_sweep.

    A row that fails carries the error object in place of a result, so
    a sweep across a critical region still reports its solvable rows.
    """
    return list(iter_sweep(variant, star_values, sign, config))


# most points one scan of find_critical_b takes, checked before its
# grid is built; each point is a solve
MAX_SCAN_POINTS = 10**6
# find_critical_b's default scan, which critical-b's help quotes
SCAN_LO, SCAN_HI, SCAN_POINTS = -5.0, -1e-3, 10

# find_critical_b's Newton loop stops once its b* bracket is 4 tol wide,
# tol = _CRITICAL_B_TOL / 3 plus Brent's relative term _SQRT_EPS |b*|; tol
# also floors the stencil's half-width, which keeps its three star values
# apart after rounding, so a bracket a few ulps wide still ends the loop
_CRITICAL_B_TOL = 1e-6
_SQRT_EPS = math.sqrt(2.0 ** -52)


class CriticalB(NamedTuple):
    b_c: float
    b_star: float


def find_critical_b(config: NitmConfig | None = None,
                    scan_lo: float = SCAN_LO, scan_hi: float = SCAN_HI,
                    scan_points: int = SCAN_POINTS) -> CriticalB:
    """Most negative physical b reachable on the plus branch.

    Scans b* over [scan_lo, scan_hi] at scan_points log-spaced points,
    3 to MAX_SCAN_POINTS of them, solved together by iter_sweep, to
    bracket the minimum of b(b*) between the neighbours of the least
    scanned b. From that point a Newton loop on the slope of b(b*)
    refines it. Each iterate is one walk of the stencil x - d, x, x + d:
    its rows shrink the bracket, and their central differences give the
    next x. The loop bisects instead when the curvature is not positive,
    when the step leaves the bracket, or when the rows were accepted at
    different boundaries, where b(b*) may jump. Returns the least b of
    every row solved, the scan's included, and the b* attaining it.
    """
    scan_lo = check_finite("scan_lo", scan_lo)
    scan_hi = check_finite("scan_hi", scan_hi)
    if not scan_lo < scan_hi < 0.0:
        raise ValueError(f"scan range must satisfy scan_lo < scan_hi < 0, "
                         f"got ({scan_lo}, {scan_hi})")
    try:
        scan_points = operator.index(scan_points)
    except TypeError:
        raise ValueError(f"scan_points must be a whole number, "
                         f"got {scan_points!r}") from None
    if not 3 <= scan_points <= MAX_SCAN_POINTS:
        raise ValueError(f"scan_points must be between 3 and {MAX_SCAN_POINTS}, "
                         f"got {scan_points}")

    log_lo, log_hi = math.log10(-scan_lo), math.log10(-scan_hi)
    scanned = [-10.0 ** (log_lo + (log_hi - log_lo) * i / (scan_points - 1))
               for i in range(scan_points)]
    rows = iter_sweep("moving-wall", scanned, 1.0, config)
    points = [(row.star_param, row.physical_param) for row in rows
              if not isinstance(row, NitmError)]
    if len(points) < 3:
        raise BracketingError("too few solvable points to bracket the minimum",
                              scanned)
    i_min = min(range(len(points)), key=lambda i: points[i][1])
    if i_min == 0 or i_min == len(points) - 1:
        raise BracketingError("minimum of b(b*) sits at the scan edge", scanned)

    lo, hi = points[i_min - 1][0], points[i_min + 1][0]
    b_star, b_c = points[i_min]
    x = b_star
    # the first stencil spans a ten-thousandth of the bracket, so its
    # differences are those of b(b*) near x, not across the bracket
    d = 1e-4 * (hi - lo)
    while True:
        tol = _SQRT_EPS * abs(x) + _CRITICAL_B_TOL / 3.0
        if hi - lo <= 4.0 * tol:
            return CriticalB(b_c=b_c, b_star=b_star)
        d = max(d, tol)
        stencil = list(iter_sweep("moving-wall", (x - d, x, x + d), 1.0, config))
        for row in stencil:
            if isinstance(row, NitmError):
                raise row
            if row.physical_param < b_c:
                b_star, b_c = row.star_param, row.physical_param
        minus, mid, plus = (row.physical_param for row in stencil)
        if plus < mid:
            lo = x
        elif minus < mid:
            hi = x
        else:
            lo, hi = max(lo, x - d), min(hi, x + d)
        step_to = 0.5 * (lo + hi)
        curvature = plus - 2.0 * mid + minus
        if curvature > 0.0 and len({row.eta_inf_star for row in stencil}) == 1:
            newton = x - d * (plus - minus) / (2.0 * curvature)
            if lo < newton < hi:
                step_to = newton
        d = min(d, abs(step_to - x) / 4.0)
        x = step_to


# Default search ranges are limited to star values whose auxiliary IVP
# stays stable at the default step; pass an explicit bracket (and a
# finer step) to reach more extreme parameters.
_TARGET_BRACKETS = {
    ("moving-wall", 1.0): (1e-6, 100.0),
    # the minus branch solves below b* = 1.75 too: at the default step,
    # b* = 1.70 gives b = 1.0269 and 1.683 gives b = 1.0544, while 1.682
    # gets no lambda agreement and 1.681 breaks down. This bracket, at
    # b = 0.962 on its lower end, so misses targets with b between 0.962
    # and about 1.054; widening it would move target's bits.
    ("moving-wall", -1.0): (1.75, 100.0),
    ("slip", 1.0): (0.0, 40.0),
    ("gasification", 1.0): (0.0, 4.0),
}


# find_star_for_target stops once the physical parameter is this close
# to the target, or fails after this many secant steps
_TARGET_TOL = 1e-6
_TARGET_MAX_ITER = 100

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
        raise ValueError(f"bracket has no default for variant {variant!r} with "
                         f"sign {sign:+g}; pass bracket explicitly") from None


def find_star_for_target(variant: str, target: float, sign: float = 1.0,
                         config: NitmConfig | None = None,
                         bracket: tuple[float, float] | None = None) -> NitmResult:
    """Find the star value whose recovered physical parameter hits target.

    Safeguarded secant on the parameter map: every inner evaluation is
    a full non-iterative solve, the outer iteration only moves the star
    value. Stops when |physical_param - target| < _TARGET_TOL, and gives
    up after _TARGET_MAX_ITER secant steps. bracket is two increasing
    star values; None takes the variant and sign's default, if it has one.
    """
    _rules(variant, True)
    sign = _check_sign(variant, sign)
    target = check_finite("target", target)
    config = _config(config)
    default = bracket is None
    if default:
        bracket = _default_bracket(variant, target, sign)
    else:
        bracket = check_numbers("bracket", bracket, "bracket end")
        if len(bracket) != 2 or not bracket[0] < bracket[1]:
            raise ValueError(f"bracket must be two increasing numbers, got {bracket}")
        _check_least(variant, bracket, "bracket")
    lo, hi = bracket

    def evaluate(x: float) -> tuple[NitmResult, float]:
        res = solve_variant(variant, x, sign, config)
        return res, res.physical_param - target

    res_lo, g_lo = evaluate(lo)
    if abs(g_lo) < _TARGET_TOL:
        return res_lo
    res_hi, g_hi = evaluate(hi)
    if abs(g_hi) < _TARGET_TOL:
        return res_hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        message = f"target {target:.6g} not bracketed by ({lo:.6g}, {hi:.6g})"
        if default and lo == _CRITICAL_B_STAR and g_lo > 0.0:
            # the plus branch's b at the critical b* is its least, b_c
            message += (f": no solution exists below "
                        f"b_c ~ {res_lo.physical_param:.6g}")
        raise BracketingError(message, (res_lo.physical_param, res_hi.physical_param))

    # the last two iterates, with the physical values they solved to
    x0, g0, b0 = lo, g_lo, res_lo.physical_param
    x1, g1, b1 = hi, g_hi, res_hi.physical_param
    for _ in range(_TARGET_MAX_ITER):
        if g1 != g0:
            x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        else:
            x2 = 0.5 * (lo + hi)
        if not lo < x2 < hi:
            x2 = 0.5 * (lo + hi)
        res, g2 = evaluate(x2)
        if abs(g2) < _TARGET_TOL:
            return res
        if math.copysign(1.0, g2) == math.copysign(1.0, g_lo):
            lo, g_lo = x2, g2
        else:
            hi, g_hi = x2, g2
        x0, g0, b0 = x1, g1, b1
        x1, g1, b1 = x2, g2, res.physical_param
    raise NoConvergenceError([b0, b1], label="target")
