"""Command-line front end.

One subcommand per solver or analysis entry point. Numbers print with
6 decimals in table mode (matching the reference tables), in %.6e form
below 1e-4 and from 1e6 up, and with full %.17g precision in CSV and
JSON so emitted files re-parse exactly.
Exit codes: 0 success, 1 usage error, 2 numerical failure, including
running out of memory or overflowing a float.
"""

import argparse
import json
import math
import os
import sys

from . import __version__, kernels, solvers
from .errors import (BlowupError, NitmError, NoConvergenceError, ScalingBreakdownError,
                     check_finite)
from .solvers import NitmConfig

HEADERS = ("star_param", "fp_inf_star", "lambda", "physical_param",
           "f0", "fp0", "fpp0")

_FORMATS = ("table", "csv", "json")

_CONFIG_KEYS = ("step", "boundaries", "lambda_tol", "sign", "format",
                "out", "profile")

# most star values a --values lo:hi:count range makes, checked before the
# list is built: a sweep holds one batch of solves and a record per row
MAX_RANGE_COUNT = 10**5

_PROFILED = ("blasius", "moving-wall", "slip", "gasification", "target")

# the physical parameter each problem's target option names
_TARGETS = {"moving-wall": "b", "slip": "c", "gasification": "s"}


def _parse_float(text, name: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {text!r}")
    return check_finite(name, value)


def _parse_list(text, flag: str) -> list[float]:
    """A comma list of numbers, as --boundaries and --values take."""
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError(f"{flag} needs at least one value")
    return [_parse_float(p, flag) for p in parts]


def _parse_values(text) -> list[float]:
    """Explicit comma list (0,0.5,1) or linspace shorthand (lo:hi:count)."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is lo:hi:count, got {text!r}")
        lo = _parse_float(parts[0], "--values")
        hi = _parse_float(parts[1], "--values")
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"range count must be an integer, got {parts[2]!r}")
        if count < 2 or hi <= lo:
            raise ValueError(f"range needs lo < hi and count >= 2, got {text!r}")
        if count > MAX_RANGE_COUNT:
            raise ValueError(f"range count must be at most {MAX_RANGE_COUNT}, "
                             f"got {count}")
        span = hi - lo
        # span * (count - 1) is the largest product below
        if not math.isfinite(span * (count - 1)):
            raise ValueError(f"--values range {text!r} is too wide: "
                             f"(hi - lo) * (count - 1) is past the float range")
        return [lo + span * i / (count - 1) for i in range(count)]
    return _parse_list(text, "--values")


def _file(flag: str, path: str, text: str | None = None):
    """Read path, or write text to it; an OSError names the flag that gave path."""
    try:
        with open(path, "r" if text is None else "w") as file:
            return file.read() if text is None else file.write(text)
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}")


def _load_config_file(path: str) -> dict:
    data = {}
    for raw in _file("--config", path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        data[key] = value
    return data


def _settle(args: argparse.Namespace, file_cfg: dict) -> None:
    """Fill the options left out from the config file, then parse them.

    A key fills only an option the command has and that has no default
    of its own (series-check's fine --step keeps its). The solves check
    the ranges and the sign, and NitmConfig holds the solver defaults,
    so step, lambda_tol and boundaries stay None unless given. A --profile,
    by flag or config key, is refused unless the command makes one solve.
    """
    options = vars(args)
    for key, value in file_cfg.items():
        if key in options and options[key] is None:
            options[key] = value
    for key, parse in (("step", _parse_float), ("lambda_tol", _parse_float),
                       ("boundaries", _parse_list)):
        if options.get(key) is not None:
            options[key] = parse(options[key], "--" + key.replace("_", "-"))
    if "sign" in options:
        args.sign = 1.0 if args.sign is None else _parse_float(args.sign, "--sign")
    args.format = "table" if args.format is None else args.format
    if args.format not in _FORMATS:
        raise ValueError(f"--format must be one of {_FORMATS}, got {args.format!r}")
    profile = options.get("profile") or file_cfg.get("profile")
    if profile and args.command not in _PROFILED:
        raise ValueError(f"--profile applies to single solves, not {args.command}")


def _backend_notice() -> None:
    """One stderr line when the pure kernel runs without NITM_PURE choosing it."""
    if kernels.BACKEND == "pure" and os.environ.get("NITM_PURE", "") in ("", "0"):
        print(f"note: the pure-Python kernel is running, slower than the "
              f"compiled one: {kernels.BACKEND_REASON}", file=sys.stderr)


def _nitm_config(args, boundaries=None) -> NitmConfig:
    """The solve settings given, over NitmConfig's defaults."""
    given = {"step": args.step, "lambda_tol": args.lambda_tol,
             "boundary_schedule": boundaries or args.boundaries}
    return NitmConfig(**{key: v for key, v in given.items() if v is not None})


def _reason(exc: NitmError) -> str:
    if isinstance(exc, BlowupError):
        return f"integration blowup at eta {exc.eta:.4g}"
    if isinstance(exc, ScalingBreakdownError):
        return "scaling breakdown"
    if isinstance(exc, NoConvergenceError):
        return "no convergence"
    return str(exc).replace(",", ";")


def _record(res) -> dict:
    """A solve's report row, one value per header."""
    return dict(zip(HEADERS, (res.star_param, res.fp_inf_star, res.lam,
                              res.physical_param, res.f0, res.fp0, res.fpp0)))


def _fmt_table_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if value != 0.0 and not 1e-4 <= abs(value) < 1e6:
        return f"{value:.6e}"
    return f"{value:.6f}"


def _fmt_full(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.17g" % value


def _values(record: dict, columns) -> list:
    """One value per column; a failed row's missing columns read ERROR(reason)."""
    return [record.get(c, f"ERROR({record.get('error')})") for c in columns]


def _render_table(records) -> str:
    grid = [list(HEADERS)] + [[_fmt_table_value(v) for v in _values(r, HEADERS)]
                              for r in records]
    widths = [max(len(line[i]) for line in grid) for i in range(len(HEADERS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths))
             for line in grid]
    return "\n".join(lines)


def _report(args, records: list, table_text: str | None = None,
            single: bool = True, result=None) -> None:
    """Write records to --out or stdout, and result's table to --profile.

    JSON prints the one record, or the list when not single. CSV has a
    header of the first record's keys (the solve headers when it is a
    failed row) and values at %.17g. The table is table_text, by default
    the aligned solve table. The result's table, and so numpy, is only
    read when --profile is given.
    """
    if args.format == "json":
        text = json.dumps(records[0] if single else records, indent=2)
    elif args.format == "csv":
        columns = HEADERS if "error" in records[0] else tuple(records[0])
        text = "\n".join([",".join(columns)] + [
            ",".join(_fmt_full(v) for v in _values(r, columns)) for r in records])
    else:
        text = _render_table(records) if table_text is None else table_text
    if args.out:
        _file("--out", args.out, text + "\n")
    else:
        print(text, flush=True)
    if result is not None and args.profile:
        profile = result.table
        lines = ["eta,f,fp,fpp"] + [
            ",".join("%.17g" % v for v in row)
            for row in zip(profile.etas(), profile.f, profile.fp, profile.fpp)]
        _file("--profile", args.profile, "\n".join(lines) + "\n")


def blasius(args):
    """Classic Blasius via the Topfer transformation.

    With --boundaries, solves each listed boundary as fixed and reports
    its shear; otherwise walks the default schedule to lambda agreement
    and reports the shear at each boundary walked.
    """
    spec = solvers.classic_problem(p=args.sign)

    report_lines = []
    if args.boundaries is not None:
        results = [solvers.solve_auxiliary(spec, _nitm_config(args, (b,)))
                   for b in args.boundaries]
        for b, res in zip(args.boundaries, results):
            report_lines.append(f"boundary {b:g}: shear {res.fpp0:.9f}")
        final = results[-1]
    else:
        config = _nitm_config(args)
        final = solvers.solve_auxiliary(spec, config)
        # the solve's closed-form fpp0 at each boundary, so the same bits a
        # fixed solve at b prints: the walk reached b through the same steps
        start = solvers.initial_state(spec)
        for b, lam in zip(config.boundary_schedule, final.lambdas):
            shear = solvers.physical_values(lam, *start)[2]
            report_lines.append(f"boundary {b:g}: shear {shear:.9f}")
        report_lines.append(f"accepted boundary {final.eta_inf_star:g}: "
                            f"shear {final.fpp0:.9f}")
    records = [_record(final)]
    _report(args, records, "\n".join(report_lines + [_render_table(records)]),
            result=final)
    return 0


def sweep(args):
    """Solve one row per star value, like the reference tables."""
    stars = _parse_values(args.values)
    # every value is checked on this call, before the first solve
    rows = solvers.iter_sweep(args.problem, stars, args.sign, _nitm_config(args))
    # a record per row as it is solved, as a sweep never reads the walk buffers;
    # strict, so the rows run out and drop their last batch before the report
    records = [{"star_param": star, "error": _reason(row)}
               if isinstance(row, NitmError) else _record(row)
               for star, row in zip(stars, rows, strict=True)]
    _report(args, records, single=False)
    return 0 if any("error" not in r for r in records) else 2


def _single_solve(args):
    """One solve of the variant the command names."""
    star = _parse_float(args.star, "star parameter")
    res = solvers.solve_variant(args.command, star, args.sign, _nitm_config(args))
    _report(args, [_record(res)], result=res)
    return 0


def critical_b(args):
    """Most negative physical b on the plus branch."""
    result = solvers.find_critical_b(_nitm_config(args), args.scan_lo, args.scan_hi,
                                     args.scan_points)
    if args.json:
        args.format = "json"
    _report(args, [{"b_c": result.b_c, "b_star": result.b_star}],
            f"b_c = {result.b_c:.6f}\nb_star = {result.b_star:.6f}")
    return 0


def target(args):
    """Find the star value whose physical parameter hits a target."""
    given = [problem for problem, name in _TARGETS.items()
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError("pass exactly one of --b, --c, --s")
    name = _TARGETS[given[0]]
    if given[0] != args.problem:
        raise ValueError(f"--{name} does not match --problem {args.problem}")
    target_value = _parse_float(getattr(args, name), f"--{name}")
    bracket_pair = None
    if args.bracket is not None:
        parts = args.bracket.split(",")
        if len(parts) != 2:
            raise ValueError(f"--bracket must be lo,hi, got {args.bracket!r}")
        bracket_pair = (_parse_float(parts[0], "--bracket"),
                        _parse_float(parts[1], "--bracket"))
    res = solvers.find_star_for_target(args.problem, target_value, args.sign,
                                       _nitm_config(args), bracket=bracket_pair)
    _report(args, [_record(res)], result=res)
    return 0


def series_check(args):
    """Compare the wall series against a fine star-IVP solve."""
    from . import analysis
    eta_max, step = _parse_float(args.eta_max, "--eta-max"), args.step
    if eta_max <= 0 or step <= 0 or eta_max < 10 * step:
        raise ValueError("need 0 < step << eta-max")
    deviation, order = analysis.series_deviation(eta_max, step)
    ok = order >= 13.0
    _report(args, [{"max_deviation": deviation, "fitted_order": order, "order_ok": ok}],
            f"max deviation = {deviation:.3e}\n"
            f"fitted order = {order:.2f}\n"
            f"order >= 13: {'yes' if ok else 'NO'}")
    return 0 if ok else 2


def rubel(args):
    """Truncation error bound at M, validated against the 2M solution."""
    from . import analysis
    M = _parse_float(args.M, "--M")
    if M < 1.0:
        raise ValueError(f"--M must be at least 1, got {M}")
    check = analysis.rubel_check(M)
    sol, bound, empirical = check.solution, check.bound, check.empirical_max_error
    valid = empirical <= bound.bound
    _report(args, [{"M": M, "t_star": sol.t_star, "lambda": sol.lam,
                  "bound": bound.bound, "empirical_max_error": empirical,
                  "valid": valid}],
            f"M = {M:g}\n"
            f"t_star = {sol.t_star:.9f}\n"
            f"lambda = {sol.lam:.9f}\n"
            f"bound = {bound.bound:.6e}\n"
            f"empirical max error = {empirical:.6e}\n"
            f"{'VALID' if valid else 'INVALID'} (error <= bound: "
            f"{'yes' if valid else 'no'})")
    return 0 if valid else 2


def info(args):
    """Package version, the integration kernel in use with why, and its walk clone."""
    clone = kernels.WALK_CLONE or "none, as the pure backend has no walk clone"
    print(f"nitm {__version__}\n"
          f"backend: {kernels.BACKEND}\n"
          f"reason: {kernels.BACKEND_REASON}\n"
          f"walk clone: {clone}")
    return 0


def _dedent(doc: str) -> str:
    """A docstring with each line stripped: no command's holds an indented block."""
    return "\n".join(line.strip() for line in doc.strip().splitlines())


# name -> (handler(parsed and settled arguments) -> exit code, description)
_COMMANDS = {name: (run, _dedent(doc or run.__doc__)) for name, run, doc in (
    ("blasius", blasius, None),
    ("sweep", sweep, None),
    ("moving-wall", _single_solve, "Moving-wall solve for one b*."),
    ("slip", _single_solve, "Slip-flow solve for one c*."),
    ("gasification", _single_solve, "Surface-gasification solve for one s*."),
    ("critical-b", critical_b, None),
    ("target", target, None),
    ("series-check", series_check, None),
    ("rubel", rubel, None),
    ("info", info, None),
)}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1: exit code 2 is a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _join_values(argv: list) -> list:
    """argv with each --option but the flags joined to the next word as --option=value.

    argparse refuses a separate value starting with "-" unless it is a plain
    number ("--values -1,0"). Before "--", a negative star value is refused.
    """
    out = []
    words = iter(argv)
    for word in words:
        if word == "--":
            return out + [word, *words]
        if word.startswith("--"):
            if "=" not in word and word not in ("--help", "--json"):
                value = next(words, None)
                word = word if value is None else f"{word}={value}"
        elif word.startswith("-") and word not in ("-", "-h"):
            raise ValueError(f"no such option {word!r}; a negative value goes after --")
        out.append(word)
    return out


def _add_options(parser, command: str) -> None:
    """Add the named command's options and arguments to its parser."""
    solves = command not in ("series-check", "rubel", "info")
    if solves:
        step = solvers.DEFAULT_CONFIG.step
        parser.add_argument("--step", help=f"Grid step (default {step:g}).")
        parser.add_argument("--boundaries",
                            help="Comma-separated truncated-boundary schedule.")
        parser.add_argument("--lambda-tol",
                            help="Agreement tolerance on successive lambda values.")
        parser.add_argument("--profile",
                            help="Write the rescaled profile as CSV (eta,f,fp,fpp).")
        if command != "critical-b":    # critical-b has only the +1 branch
            parser.add_argument("--sign", help="Seeded f''*(0), +1 or -1.")
    if command != "info":
        parser.add_argument("--format", choices=_FORMATS,
                            help="Output format (default table).")
        parser.add_argument("--out", help="Write the report here instead of stdout.")
    if command in ("sweep", "target"):
        parser.add_argument("--problem", required=True, choices=solvers.PARAMETRIZED)
    if command in solvers.PARAMETRIZED:
        parser.add_argument("star", metavar="STAR")
    # the library's own defaults, which the help quotes
    if command == "sweep":
        parser.add_argument("--values", required=True, help=(
            f"Star values: comma list or lo:hi:count, count at most "
            f"{MAX_RANGE_COUNT}."))
    elif command == "critical-b":
        parser.add_argument("--scan-lo", type=float, default=solvers.SCAN_LO,
                            help="Most negative scanned b* (default %(default)g).")
        parser.add_argument("--scan-hi", type=float, default=solvers.SCAN_HI,
                            help="Least negative scanned b* (default %(default)g).")
        parser.add_argument("--scan-points", type=int, default=solvers.SCAN_POINTS,
                            help="Scan resolution (default %(default)d).")
        parser.add_argument("--json", action="store_true",
                            help="Shorthand for --format json.")
    elif command == "target":
        for problem, name in _TARGETS.items():
            parser.add_argument(f"--{name}", help=f"Target {problem} {name}.")
        parser.add_argument("--bracket", help="Star bracket as lo,hi.")
    elif command == "series-check":
        from . import analysis
        parser.add_argument("--eta-max", default=analysis.SERIES_ETA_MAX,
                            help="Comparison window end (default %(default)g).")
        parser.add_argument("--step", default=analysis.SERIES_STEP,
                            help="Fine comparison step (default %(default)g).")
    elif command == "rubel":
        parser.add_argument("--M", required=True, help="Truncated boundary.")


def _parser(command) -> _Parser:
    """The nitm parser: the named command's alone, or every command's for help."""
    parser = _Parser(prog="nitm", allow_abbrev=False, description=(
        "Non-iterative transformation methods for boundary-layer problems."))
    parser.add_argument("--config", help="key=value defaults file; flags override it.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        doc = _COMMANDS[name][1]
        _add_options(commands.add_parser(
            name, help=doc.splitlines()[0], description=doc, allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter), name)
    return parser


def main(argv=None) -> int:
    """Entry point with the package's exit-code contract."""
    try:
        argv = _join_values(sys.argv[1:] if argv is None else list(argv))
        command = next((w for w in argv if not w.startswith("-")), None)
        args = _parser(command).parse_args(argv)
        cfg = _load_config_file(args.config) if args.config else {}
        if args.command != "info":
            _backend_notice()
            _settle(args, cfg)
        return _COMMANDS[args.command][0](args)
    except SystemExit as exc:     # --help, and usage errors from _Parser.error
        return exc.code
    except (BrokenPipeError, KeyboardInterrupt):
        # the reader closed stdout, as `| head` does, or Ctrl-C: what is
        # still buffered goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (MemoryError, OverflowError) as exc:
        # MemoryError often carries no message; the report stays one line
        name = type(exc).__name__
        detail = " ".join(str(exc).split())
        print(f"error: {name}: {detail}" if detail else f"error: {name}",
              file=sys.stderr)
        return 2
    except (NitmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NitmError) else 1


if __name__ == "__main__":
    sys.exit(main())
