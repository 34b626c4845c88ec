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
from ._kernels_py import BLOWUP, BREAKDOWN, NO_AGREEMENT, walk_member
from .errors import (BlowupError, BracketingError, NitmError, NoConvergenceError,
                     ScalingBreakdownError, UnsupportedVariantError, check_finite,
                     check_numbers, check_positive, check_real)
from .ode import (DEFAULT_STEP, Checked, SolutionTable, StarTableRecord, State3,
                  node_index)
from .scaling import (lambda_from_asymptote, lambda_moving_wall, map_parameter,
                      physical_values, rescale)


class Variant(NamedTuple):
    """The rules of one variant: f''' = -beta f f''; physical parameter
    star * lambda^-k (k None: no star value); star >= least_star; p in
    signs; seed(star, p) is the star initial state.
    """

    beta: float
    k: float | None
    least_star: float
    signs: tuple[float, ...]
    seed: Callable[[float | None, float], State3]


VARIANTS = {
    "classic": Variant(0.5, None, -math.inf, (1.0, -1.0),
                       lambda star, p: State3(0.0, 0.0, p)),
    "moving-wall": Variant(0.5, 2.0, -math.inf, (1.0, -1.0),
                           lambda star, p: State3(0.0, star, p)),
    # the slip condition f'(0) = c f''(0) carried into star variables
    "slip": Variant(0.5, -1.0, 0.0, (1.0, -1.0),
                    lambda star, p: State3(0.0, star * p, p)),
    "gasification": Variant(1.0, -2.0, 0.0, (1.0,),
                            lambda star, p: State3(-star, 0.0, 1.0)),
}

PARAMETRIZED = tuple(v for v, rules in VARIANTS.items() if rules.k is not None)

DEFAULT_SCHEDULE = tuple(float(b) for b in range(4, 52, 2))


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
        try:
            rules = VARIANTS[variant]
        except (KeyError, TypeError):       # TypeError: unhashable
            raise (ValueError if isinstance(variant, str) else TypeError)(
                f"variant must be one of {tuple(VARIANTS)}, got {variant!r}") from None
        p = _check_sign(variant, p)
        if rules.k is None:
            if star_param is not None:
                raise ValueError(f"variant {variant!r} takes no star_param")
        else:
            star_param = check_finite("star_param", star_param)
            if star_param < rules.least_star:
                raise ValueError(f"star_param of {variant} must be at least "
                                 f"{rules.least_star:g}, got {star_param}")
        return tuple.__new__(cls, (variant, star_param, p))


def classic_problem(p: float = 1.0) -> ProblemSpec:
    return ProblemSpec("classic", None, p)


def _check_parametrized(variant: str) -> None:
    if variant not in PARAMETRIZED:
        raise UnsupportedVariantError(f"need one of {PARAMETRIZED}, got {variant!r}")


def initial_state(spec: ProblemSpec) -> State3:
    """Star-variable initial conditions for the auxiliary IVP."""
    return VARIANTS[spec.variant].seed(spec.star_param, spec.p)


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
    solved, None for the classic problem. _star holds the star step and
    the walk's f, fp and fpp through the accepted boundary until table
    is first read; that read rescales them and drops them.
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


def _lambda(spec: ProblemSpec, fp_stop: float) -> float:
    """Lambda from the star asymptote fp_stop of a walk of spec."""
    if spec.variant == "moving-wall":
        return lambda_moving_wall(fp_stop, spec.star_param)
    return lambda_from_asymptote(fp_stop)


def _offset(spec: ProblemSpec) -> float:
    """What the walk adds to fp before Topfer's square root: b* for the moving wall."""
    return spec.star_param if spec.variant == "moving-wall" else 0.0


def solve_auxiliary(spec: ProblemSpec, config: NitmConfig | None = None) -> NitmResult:
    """Run the non-iterative method for one problem.

    Integrates the star IVP over the boundary schedule, accepting the
    larger boundary of the first pair whose lambda values agree within
    lambda_tol. The schedule is walked incrementally by walk_member,
    which hands back the lambda of each boundary walked, so integration
    never proceeds past the accepted boundary. The wall values come
    from the star initial state in closed form; the result keeps the
    walk's buffers, which hold the accepted boundary's nodes and no
    more, for its table.
    """
    # _config only for what is neither: a single solve makes no extra call
    cfg = (DEFAULT_CONFIG if config is None
           else config if type(config) is NitmConfig else _config(config))
    start = initial_state(spec)
    # the fill is looked up at each call, so a kernel patched onto the module is used
    row = _row(spec, cfg, start, *walk_member(
        kernels.fill_blasius_family, VARIANTS[spec.variant].beta, cfg.step,
        cfg.stops, start, _offset(spec), cfg.lambda_tol))
    if isinstance(row, NitmError):
        raise row
    return row


# most members one batched walk of iter_solves holds at once, so members
# that never agree cannot pile up buffers on a long sweep
_BATCH = 64


def iter_solves(specs, config: NitmConfig | None = None):
    """Yield the row solve_auxiliary gives each spec, a result or its error, in order.

    Takes _BATCH specs at a time and yields their rows before the next
    batch: the specs of one beta are walked together by the batched
    kernel entry, with Topfer's agreement test inside it, and each row
    takes the lambdas that test computed. An error keeps the message of
    the single solve's.
    """
    cfg = _config(config)
    specs = iter(specs)
    # zip stops at the range's end before it pulls one spec more
    while batch := [spec for _, spec in zip(range(_BATCH), specs)]:
        members: dict[float, list[int]] = {}
        for i, spec in enumerate(batch):
            members.setdefault(VARIANTS[spec.variant].beta, []).append(i)
        rows: list = [None] * len(batch)
        for beta, indices in members.items():
            starts = [initial_state(batch[i]) for i in indices]
            offsets = [_offset(batch[i]) for i in indices]
            # looked up at each call, so a kernel patched onto the module is used
            for i, start, member in zip(indices, starts, kernels.walk_blasius_family(
                    beta, cfg.step, cfg.stops, starts, offsets, cfg.lambda_tol)):
                rows[i] = _row(batch[i], cfg, start, *member)
        yield from rows


def solve_many(specs, config: NitmConfig | None = None) -> list[NitmResult | NitmError]:
    """The rows of iter_solves, as a list."""
    return list(iter_solves(specs, config))


def _row(spec: ProblemSpec, cfg: NitmConfig, start: State3, outcome: int,
         lambdas: tuple[float, ...], fp_stop: float | None, bad: int,
         *buffers) -> NitmResult | NitmError:
    """The result, or the error, of one walked member.

    lambdas are the walk's, whose operations are those of _lambda, and
    fp_stop is fp at the last boundary walked. buffers are the member's
    f, fp and fpp through the accepted boundary; the wall values come
    from start in closed form.
    """
    if outcome == BLOWUP:
        return BlowupError(bad * cfg.step)
    if outcome == BREAKDOWN:
        try:
            _lambda(spec, fp_stop)      # the walk's test, for its error
        except ScalingBreakdownError as exc:
            # without its traceback: that holds this frame, and so the rows
            return exc.with_traceback(None)
    if outcome == NO_AGREEMENT:
        return NoConvergenceError(lambdas)
    lam = lambdas[-1]
    k = VARIANTS[spec.variant].k
    physical = None if k is None else map_parameter(spec.star_param, lam, k)
    # positional, in field order: keywords would cost a sweep row 0.5 us
    return NitmResult(lam, lambdas, cfg.boundary_schedule[len(lambdas) - 1],
                      fp_stop, spec.star_param, physical,
                      *physical_values(lam, *start), (cfg.step, *buffers))


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
    _check_parametrized(variant)
    return solve_auxiliary(ProblemSpec(variant, star_value, sign), config)


def sweep(variant: str, star_values, sign: float = 1.0,
          config: NitmConfig | None = None) -> list[NitmResult | NitmError]:
    """Solve one row per star value, preserving order.

    A row that fails carries the error object in place of a result, so
    a sweep across a critical region still reports its solvable rows.
    Every star value is checked before the first solve; the rows are
    then solved together by solve_many.
    """
    _check_parametrized(variant)
    specs = [ProblemSpec(variant, value, sign)
             for value in check_numbers("star_values", star_values, "star_param")]
    return solve_many(specs, config)


# most points one scan of find_critical_b takes, checked before its
# grid is built; each point is a solve
MAX_SCAN_POINTS = 10**6
# find_critical_b's default scan, which critical-b's help quotes
SCAN_LO, SCAN_HI, SCAN_POINTS = -5.0, -1e-3, 10

# find_critical_b's minimiser stops once its b* bracket is this narrow,
# plus Brent's relative term _SQRT_EPS |b*|, which keeps every step wider
# than the rounding of b*, so a bracket a few ulps wide still ends it
_CRITICAL_B_TOL = 1e-6
_SQRT_EPS = math.sqrt(2.0 ** -52)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


class CriticalB(NamedTuple):
    b_c: float
    b_star: float


def _brent_minimum(func: Callable[[float], float], lo: float, hi: float,
                   x: float, fx: float) -> tuple[float, float]:
    """Brent's bounded minimiser of func on (lo, hi), from x with fx = func(x).

    Each step fits a parabola through the three best points so far and
    falls back to a golden-section step when the parabola's minimum is
    unsafe; no step is shorter than tol = _SQRT_EPS |x| + _CRITICAL_B_TOL / 3.
    It stops as SciPy's bounded method does, once the bracket around the
    best point x is about 4 tol wide. Returns x and func(x).
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        tol = _SQRT_EPS * abs(x) + _CRITICAL_B_TOL / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (hi - lo):
            return x, fx
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # the parabola's step must be in the bracket and shorter than
            # half the step before last
            if abs(p) < abs(0.5 * q * e_prev) and q * (lo - x) < p < q * (hi - x):
                golden = False
                d = p / q
                if x + d - lo < 2.0 * tol or hi - (x + d) < 2.0 * tol:
                    d = tol if x < mid else -tol
        if golden:
            e = lo - x if x >= mid else hi - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = func(u)
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def find_critical_b(config: NitmConfig | None = None,
                    scan_lo: float = SCAN_LO, scan_hi: float = SCAN_HI,
                    scan_points: int = SCAN_POINTS) -> CriticalB:
    """Most negative physical b reachable on the plus branch.

    Scans b* over [scan_lo, scan_hi] at scan_points log-spaced points,
    3 to MAX_SCAN_POINTS of them, solved together by iter_solves, to
    bracket the minimum of b(b*) between the neighbours of the least
    scanned b, then refines it by _brent_minimum from that point.
    Returns the least b the minimiser solved and the b* attaining it.
    """
    check_real("scan_lo", scan_lo)
    check_real("scan_hi", scan_hi)
    if not (math.isfinite(scan_lo) and scan_lo < scan_hi < 0.0):
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

    def scanned():     # rebuilt for an error: a solved row holds its b* as star_param
        return (-10.0 ** (log_lo + (log_hi - log_lo) * i / (scan_points - 1))
                for i in range(scan_points))

    rows = iter_solves((ProblemSpec("moving-wall", x, 1.0) for x in scanned()), config)
    points = [(row.star_param, row.physical_param) for row in rows
              if not isinstance(row, NitmError)]
    if len(points) < 3:
        raise BracketingError("too few solvable points to bracket the minimum",
                              scanned())
    i_min = min(range(len(points)), key=lambda i: points[i][1])
    if i_min == 0 or i_min == len(points) - 1:
        raise BracketingError("minimum of b(b*) sits at the scan edge", scanned())

    b_star, b_c = _brent_minimum(
        lambda x: solve_moving_wall(x, 1.0, config).physical_param,
        points[i_min - 1][0], points[i_min + 1][0], *points[i_min])
    return CriticalB(b_c=b_c, b_star=b_star)


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
        raise BracketingError(
            f"no default bracket for variant {variant!r} with sign {sign:+g}; "
            "pass bracket explicitly"
        ) from None


def find_star_for_target(variant: str, target: float, sign: float = 1.0,
                         config: NitmConfig | None = None,
                         bracket: tuple[float, float] | None = None) -> NitmResult:
    """Find the star value whose recovered physical parameter hits target.

    Safeguarded secant on the parameter map: every inner evaluation is
    a full non-iterative solve, the outer iteration only moves the star
    value. Stops when |physical_param - target| < _TARGET_TOL, and gives
    up after _TARGET_MAX_ITER secant steps.
    """
    _check_parametrized(variant)
    sign = _check_sign(variant, sign)
    target = check_finite("target", target)
    config = _config(config)
    default = bracket is None
    if default:
        bracket = _default_bracket(variant, target, sign)
    else:
        bracket = check_numbers("bracket", bracket, "bracket end")
        if len(bracket) != 2:
            raise ValueError(f"bracket must be two numbers, got {bracket}")
    lo, hi = bracket
    if not lo < hi:
        raise BracketingError(f"empty bracket ({lo:.6g}, {hi:.6g})")

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
