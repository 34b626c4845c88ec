"""Seeded inputs and per-task correctness checks for the three workloads.

Each workload is an endless stream of cycles drawn from one
``random.Random(seed)``. A cycle has a fixed composition, so throughput
and latency percentiles compare across seeds; the parameters inside it
are drawn from the seed, and the ones that drive cost are stratified or
drawn in antithetic pairs, so that every cycle costs about the same.

Checks use tolerances, never bitwise equality, and only references the
package meets (acceptance criteria 3, 4, 6 and 7 and the converged
classic shear of criterion 1), plus invariants any correct solve meets.
"""

import json
import math
import re
from dataclasses import dataclass
from typing import Callable

from nitm import analysis, solvers
from nitm.errors import NitmError

CLASSIC_FPP0 = 0.332057336
CLASSIC_FPP0_TOL = 1e-6
B_C = -0.548246
B_C_TOL = 1e-6
# The minus branch of the moving wall has no solution below this star
# value; rows there may carry a NitmError.
SAKIADIS_STAR = 1.7188
MIN_SERIES_ORDER = 13.0
TARGET_TOL = 1e-6  # find_star_for_target's default tol

# physical = star * lambda**-k, independent of the package's own table
PARAM_EXPONENT = {"moving-wall": 2.0, "slip": -1.0, "gasification": -2.0}

# acceptance criterion 4: (c*, fp_inf_star, fp0, fpp0, c); the c cell
# of c* = 15 is a known typo and is checked through c = lambda * c*
SLIP_ROWS = (
    (0.0, 2.085393, 0.0, 0.332061, 0.0),
    (0.1, 2.090453, 0.047836, 0.330856, 0.144584),
    (0.5, 2.191907, 0.228112, 0.308153, 0.740255),
    (1.0, 2.440648, 0.409727, 0.262266, 1.562257),
    (5.0, 5.771518, 0.866323, 0.072122, 12.011992),
    (10.0, 10.554805, 0.947436, 0.029162, 32.488159),
    (15.0, 15.455238, 0.970545, 0.016458, None),
    (20.0, 20.394883, 0.980638, 0.010857, 90.321389),
    (25.0, 25.353618, 0.986053, 0.007833, 125.880941),
)

# target ranges each default bracket reaches, with margin
TARGET_KINDS = (
    ("moving-wall", 1.0, "--b", 0.02, 0.45),
    ("moving-wall", 1.0, "--b", -0.50, -0.02),
    ("moving-wall", -1.0, "--b", 0.51, 0.95),
    ("slip", 1.0, "--c", 0.5, 200.0),
    ("gasification", 1.0, "--s", 0.2, 80.0),
)


class Wrong(Exception):
    """A task returned a result that fails its check."""


@dataclass
class Task:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _close(label, got, want, rel, abs_=0.0):
    if not abs(got - want) <= max(rel * abs(want), abs_):
        raise Wrong(f"{label}: got {got!r}, want {want!r}")


def _strata(rng, lo, hi, n):
    """n draws, one from each equal sub-interval of [lo, hi], shuffled."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


def _pair(rng, lo, hi):
    """Two antithetic draws, x and lo + hi - x: their sum, and so a cost
    linear in them, is the same in every cycle."""
    x = rng.uniform(lo, hi)
    pair = [x, lo + hi - x]
    rng.shuffle(pair)
    return pair


def _linspace(lo, hi, count):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


# ---------------------------------------------------------------------------
# invariants of one solve


def check_physical(row, variant, sign=1.0):
    """Checks that hold for any solve, given its physical outputs.

    ``row`` maps lam, physical_param, f0, fp0, fpp0 (a NitmResult's
    attributes or a CLI JSON row).
    """
    lam = row["lam"]
    if not (lam > 0.0 and math.isfinite(lam)):
        raise Wrong(f"lambda {lam!r} is not positive")
    b = row["physical_param"]
    if variant == "classic":
        _close("f0", row["f0"], 0.0, 0.0)
        _close("fp0", row["fp0"], 0.0, 0.0)
        _close("classic fpp0", row["fpp0"], CLASSIC_FPP0, 0.0, CLASSIC_FPP0_TOL)
    elif variant == "moving-wall":
        _close("fp0 = b", row["fp0"], b, 1e-12, 1e-300)
        # the sign rule of the moving wall: + below b = 1/2, - above
        if (sign > 0) != (b < 0.5):
            raise Wrong(f"b = {b!r} is on the wrong side of 1/2 for sign {sign:+g}")
        if b < B_C - B_C_TOL:
            raise Wrong(f"b = {b!r} lies below the critical b {B_C}")
    elif variant == "slip":
        _close("fp0 = c fpp0", row["fp0"], b * row["fpp0"], 1e-9, 1e-300)
    else:
        _close("f0 = -s fpp0", row["f0"], -b * row["fpp0"], 1e-9, 1e-300)


def _as_row(res):
    return {"lam": res.lam, "physical_param": res.physical_param,
            "f0": res.f0, "fp0": res.fp0, "fpp0": res.fpp0}


def check_result(res, variant, star=None, sign=1.0):
    """Invariants of a NitmResult; star is the seeded star value if known."""
    check_physical(_as_row(res), variant, sign)
    if star is not None:
        want = star * res.lam ** -PARAM_EXPONENT[variant]
        _close("physical_param = star * lambda^-k", res.physical_param,
               want, 1e-12, 1e-300)
    d = 1.0 - res.physical_param if variant == "moving-wall" else 1.0
    _close("rescaled fp[-1] = d", float(res.table.fp[-1]), d, 0.0,
           1e-9 * max(1.0, abs(d)))


def _error_expected(variant, star, sign):
    return variant == "moving-wall" and sign < 0 and star < SAKIADIS_STAR


def check_sweep_rows(rows, variant, values, sign):
    if len(rows) != len(values):
        raise Wrong(f"sweep returned {len(rows)} rows for {len(values)} values")
    for star, row in zip(values, rows):
        if isinstance(row, NitmError):
            if not _error_expected(variant, star, sign):
                raise Wrong(f"{variant} {sign:+g} star {star!r}: unexpected {row!r}")
        else:
            check_result(row, variant, star, sign)


def check_slip_reference(rows):
    values = [r[0] for r in SLIP_ROWS]
    check_sweep_rows(rows, "slip", values, 1.0)
    for (c_star, *refs), res in zip(SLIP_ROWS, rows):
        got = (res.fp_inf_star, res.fp0, res.fpp0, res.physical_param)
        for name, g, ref in zip(("fp_inf_star", "fp0", "fpp0", "c"), got, refs):
            if ref is not None:
                _close(f"slip c*={c_star:g} {name}", g, ref, 1e-4,
                       1e-6 if ref == 0.0 else 0.0)


def _check_rubel(pair, M):
    sol, sol2, bound = pair
    n = sol.table.grid.nodes
    _close("rubel M", bound.M, M, 1e-9)
    empirical = float(abs(sol2.table.f[:n] - sol.table.f[:n]).max())
    if not empirical <= bound.bound:
        raise Wrong(f"rubel M={M!r}: INVALID, error {empirical!r} > bound {bound.bound!r}")


def _check_series(out):
    deviation, order = out
    if not (math.isfinite(deviation) and order >= MIN_SERIES_ORDER):
        raise Wrong(f"series check failed: deviation {deviation!r}, order {order!r}")


# ---------------------------------------------------------------------------
# library workloads: every call looks nitm functions up at call time, so
# the tracer's patches apply


def _sweep_task(variant, values, sign):
    return Task(f"sweep.{variant}{'+' if sign > 0 else '-'}",
                lambda: solvers.sweep(variant, values, sign),
                lambda rows: check_sweep_rows(rows, variant, values, sign))


def _classic_task(config=None, kind="classic"):
    return Task(kind,
                lambda: solvers.solve_auxiliary(solvers.classic_problem(), config),
                lambda res: check_result(res, "classic"))


def _minus_branch_values(rng):
    # keep rows clear of the Sakiadis star value, where success and
    # failure are both legitimate outcomes
    while True:
        values = _linspace(rng.uniform(0.0, 1.0), rng.uniform(8.0, 12.0), 21)
        if all(abs(v - SAKIADIS_STAR) > 0.02 for v in values):
            return values


def sweep_cycle(rng):
    tasks = []
    for lo, hi in zip(_strata(rng, -5.0, -0.5, 3), _strata(rng, 2.0, 20.0, 3)):
        tasks.append(_sweep_task("moving-wall", _linspace(lo, hi, 21), 1.0))
    for _ in range(3):
        tasks.append(_sweep_task("moving-wall", _minus_branch_values(rng), -1.0))
    for hi in _strata(rng, 10.0, 40.0, 3):
        tasks.append(_sweep_task("slip", _linspace(rng.uniform(0.0, 1.0), hi, 21), 1.0))
    for hi in _strata(rng, 1.5, 4.0, 3):
        tasks.append(_sweep_task("gasification",
                                 _linspace(rng.uniform(0.0, 0.5), hi, 21), 1.0))
    values = [r[0] for r in SLIP_ROWS]
    tasks.append(Task("sweep.slip-reference",
                      lambda: solvers.sweep("slip", values, 1.0),
                      check_slip_reference))
    tasks.extend(_classic_task() for _ in range(3))
    rng.shuffle(tasks)
    return tasks


def _critical_scan(rng):
    return rng.uniform(-6.0, -4.0), -10.0 ** rng.uniform(-3.5, -2.5)


def _rubel_M(value):
    """M on the 1/1000 grid of truncated_solution's default nodes_per_unit,
    where the M and 2M grids share their nodes on [0, M]."""
    return round(value, 3)


def _rubel_pair(M):
    sol = analysis.truncated_solution(M)
    sol2 = analysis.truncated_solution(2.0 * M)
    return sol, sol2, analysis.rubel_bound(sol.table)


def _series_args(rng, nodes):
    eta_max = rng.uniform(0.4, 0.6)
    return eta_max, eta_max / round(nodes)


def _fine_step(k):
    """Step 1/k: every default-schedule boundary is a whole number of steps."""
    return 1.0 / round(k)


def fine_cycle(rng):
    tasks = []
    for M in map(_rubel_M, _pair(rng, 2.0, 8.0)):
        tasks.append(Task("rubel", lambda M=M: _rubel_pair(M),
                          lambda out, M=M: _check_rubel(out, M)))
    for nodes in _strata(rng, 2500, 6000, 5):
        eta_max, step = _series_args(rng, nodes)
        tasks.append(Task("series",
                          lambda e=eta_max, h=step: analysis.series_deviation(e, h),
                          _check_series))
    for k in _pair(rng, 1000, 2000):
        tasks.append(_classic_task(solvers.NitmConfig(step=_fine_step(k)),
                                   "classic.fine"))
    for k, s in zip(_pair(rng, 1000, 2000), _pair(rng, 0.0, 2.0)):
        config = solvers.NitmConfig(step=_fine_step(k))
        tasks.append(Task("gasification.fine",
                          lambda s=s, c=config: solvers.solve_gasification(s, c),
                          lambda res, s=s: check_result(res, "gasification", s)))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# cli workload: run_cli(argv) -> (exit code, stdout) is a fresh process
# in the timed run and an in-process nitm.cli.main call in the traced run


def _cli_json_row(row, variant, sign, star=None):
    row = dict(row, lam=row["lambda"])
    check_physical(row, variant, sign)
    if star is not None:
        _close("physical_param = star * lambda^-k", row["physical_param"],
               star * row["lam"] ** -PARAM_EXPONENT[variant], 1e-12, 1e-300)
    return row


def _check_cli_blasius(out):
    match = re.search(r"accepted boundary \S+: shear (\S+)", out)
    if not match:
        raise Wrong("blasius printed no accepted boundary")
    _close("blasius shear", float(match.group(1)), CLASSIC_FPP0, 0.0,
           CLASSIC_FPP0_TOL)


def _check_cli_sweep(out, variant, values, sign):
    rows = json.loads(out)
    if len(rows) != len(values):
        raise Wrong(f"sweep printed {len(rows)} rows for {len(values)} values")
    for star, row in zip(values, rows):
        if "error" in row:
            if not _error_expected(variant, star, sign):
                raise Wrong(f"sweep star {star!r}: unexpected error {row['error']!r}")
        else:
            _cli_json_row(row, variant, sign, star)


def _check_cli_target(out, variant, target, sign):
    row = _cli_json_row(json.loads(out), variant, sign)
    _close("target", row["physical_param"], target, 0.0, TARGET_TOL)


def _check_cli_series(out):
    match = re.search(r"fitted order = (\S+)", out)
    if not (match and "order >= 13: yes" in out):
        raise Wrong("series-check did not report order >= 13")
    if float(match.group(1)) < MIN_SERIES_ORDER:
        raise Wrong(f"series-check order {match.group(1)}")


def _check_cli_rubel(out):
    if "\nVALID (error <= bound: yes)" not in out:
        raise Wrong("rubel did not report VALID")


def _check_cli_critical(out):
    data = json.loads(out)
    _close("b_c", data["b_c"], B_C, 0.0, B_C_TOL)


def _cli_task(run_cli, kind, argv, check_out):
    def check(result):
        code, out = result
        if code != 0:
            raise Wrong(f"nitm {' '.join(argv)} exited {code}")
        check_out(out)
    return Task(f"cli.{kind}", lambda: run_cli(argv), check)


def cli_cycle(rng, run_cli):
    f = repr
    tasks = [_cli_task(run_cli, "blasius", ["blasius"], _check_cli_blasius)]

    sign = rng.choice((1.0, -1.0))
    b = rng.uniform(-5.0, 20.0) if sign > 0 else rng.uniform(2.0, 12.0)
    tasks.append(_cli_task(
        run_cli, "moving-wall",
        ["moving-wall", "--sign", f(sign), "--format", "json", "--", f(b)],
        lambda out, b=b, s=sign: _cli_json_row(json.loads(out), "moving-wall", s, b)))
    c = rng.uniform(0.0, 40.0)
    tasks.append(_cli_task(
        run_cli, "slip", ["slip", f(c), "--format", "json"],
        lambda out, c=c: _cli_json_row(json.loads(out), "slip", 1.0, c)))
    s = rng.uniform(0.0, 4.0)
    tasks.append(_cli_task(
        run_cli, "gasification", ["gasification", f(s), "--format", "json"],
        lambda out, s=s: _cli_json_row(json.loads(out), "gasification", 1.0, s)))

    variant, sign = rng.choice((("moving-wall", -1.0), ("moving-wall", 1.0),
                                ("slip", 1.0), ("gasification", 1.0)))
    if variant == "moving-wall" and sign < 0:
        values = _minus_branch_values(rng)
    elif variant == "moving-wall":
        values = _linspace(rng.uniform(-5.0, -0.5), rng.uniform(2.0, 20.0), 21)
    elif variant == "slip":
        values = _linspace(0.0, rng.uniform(10.0, 40.0), 21)
    else:
        values = _linspace(0.0, rng.uniform(1.5, 4.0), 21)
    # the comma list keeps every star value exact on the command line
    tasks.append(_cli_task(
        run_cli, "sweep",
        ["sweep", "--problem", variant, "--values", ",".join(map(f, values)),
         "--sign", f(sign), "--format", "json"],
        lambda out, v=variant, vs=values, s=sign: _check_cli_sweep(out, v, vs, s)))

    variant, sign, flag, lo, hi = rng.choice(TARGET_KINDS)
    target = rng.uniform(lo, hi)
    tasks.append(_cli_task(
        run_cli, "target",
        ["target", "--problem", variant, flag, f(target), "--sign", f(sign),
         "--format", "json"],
        lambda out, v=variant, t=target, s=sign: _check_cli_target(out, v, t, s)))

    eta_max, step = _series_args(rng, rng.uniform(2500, 6000))
    tasks.append(_cli_task(
        run_cli, "series-check",
        ["series-check", "--eta-max", f(eta_max), "--step", f(step)],
        _check_cli_series))
    M = _rubel_M(rng.uniform(2.0, 8.0))
    tasks.append(_cli_task(run_cli, "rubel", ["rubel", "--M", f(M)], _check_cli_rubel))
    lo, hi = _critical_scan(rng)
    tasks.append(_cli_task(
        run_cli, "critical-b",
        ["critical-b", "--json", "--scan-lo", f(lo), "--scan-hi", f(hi)],
        _check_cli_critical))
    rng.shuffle(tasks)
    return tasks


def cycles(name, rng, run_cli=None):
    """Endless stream of task cycles for one workload."""
    make = {"sweep": sweep_cycle, "fine": fine_cycle,
            "cli": lambda rng: cli_cycle(rng, run_cli)}[name]
    while True:
        yield make(rng)
