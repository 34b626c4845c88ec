"""Command-line front end.

One subcommand per solver or analysis entry point. Numbers print with
6 decimals in table mode (matching the reference tables) and with full
%.17g precision in CSV and JSON so emitted files re-parse exactly.
Exit codes: 0 success, 1 usage error, 2 numerical failure, including
running out of memory or overflowing a float.
"""

import inspect
import json
import math
import sys
from pathlib import Path

import click

from . import __version__, analysis, kernels, solvers
from .errors import (BlowupError, BracketingError, NitmError,
                     NoConvergenceError, ScalingBreakdownError,
                     UnsupportedVariantError)
from .solvers import NitmConfig

HEADERS = ("star_param", "fp_inf_star", "lambda", "physical_param",
           "f0", "fp0", "fpp0")

_FORMATS = ("table", "csv", "json")

_CONFIG_KEYS = ("step", "boundaries", "lambda_tol", "sign", "format",
                "out", "profile")

# find_critical_b's own defaults, quoted in critical-b's help
_SCAN_DEFAULTS = inspect.signature(solvers.find_critical_b).parameters


def _parse_float(text, name: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise click.UsageError(f"{name} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise click.UsageError(f"{name} must be finite, got {text!r}")
    return value


def _parse_boundaries(text) -> tuple[float, ...]:
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise click.UsageError("--boundaries needs at least one value")
    return tuple(_parse_float(p, "--boundaries") for p in parts)


def _parse_values(text) -> list[float]:
    """Explicit comma list (0,0.5,1) or linspace shorthand (lo:hi:count)."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"range syntax is lo:hi:count, got {text!r}")
        lo = _parse_float(parts[0], "--values")
        hi = _parse_float(parts[1], "--values")
        try:
            count = int(parts[2])
        except ValueError:
            raise click.UsageError(f"range count must be an integer, got {parts[2]!r}")
        if count < 2 or hi <= lo:
            raise click.UsageError(f"range needs lo < hi and count >= 2, got {text!r}")
        span = hi - lo
        return [lo + span * i / (count - 1) for i in range(count)]
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise click.UsageError("--values needs at least one value")
    return [_parse_float(p, "--values") for p in parts]


def _load_config_file(path: str) -> dict:
    data = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line {raw!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise click.UsageError(f"unknown config key {key!r}")
        data[key] = value
    return data


class Settings:
    """Merged run configuration: flags override the config file.

    Only turns strings into values. NitmConfig holds the solver
    defaults and checks the ranges, so only the values given reach it.
    """

    _FLAG_NAMES = {"format": "fmt"}

    def __init__(self, file_cfg: dict, flags: dict):
        def pick(key):
            flag = flags.get(self._FLAG_NAMES.get(key, key))
            return flag if flag is not None else file_cfg.get(key)

        self._given = {}
        for key, flag in (("step", "--step"), ("lambda_tol", "--lambda-tol")):
            value = pick(key)
            if value is not None:
                self._given[key] = _parse_float(value, flag)
        boundaries = pick("boundaries")
        self.boundaries = None if boundaries is None else _parse_boundaries(boundaries)
        sign = pick("sign")
        self.sign = 1.0 if sign is None else _parse_float(sign, "--sign")
        if self.sign not in (1.0, -1.0):
            raise click.UsageError(f"--sign must be +1 or -1, got {sign!r}")
        fmt = pick("format")
        self.fmt = "table" if fmt is None else fmt
        if self.fmt not in _FORMATS:
            raise click.UsageError(
                f"--format must be one of {_FORMATS}, got {self.fmt!r}")
        self.out = pick("out")
        self.profile = pick("profile")

    def nitm_config(self, boundaries=None) -> NitmConfig:
        schedule = boundaries or self.boundaries
        kwargs = dict(self._given)
        if schedule is not None:
            kwargs["boundary_schedule"] = schedule
        try:
            return NitmConfig(**kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc))


def _options(*decorators):
    """One decorator applying several click options in the order listed."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


# on every command that prints a report
_report_options = _options(
    click.option("--format", "fmt", default=None, type=click.Choice(_FORMATS),
                 help="Output format (default table)."),
    click.option("--out", default=None, type=click.Path(),
                 help="Write the report here instead of stdout."),
)

# on every command that solves
_grid_options = _options(
    click.option("--step", default=None,
                 help=f"Grid step (default {solvers.DEFAULT_CONFIG.step:g})."),
    click.option("--boundaries", default=None,
                 help="Comma-separated truncated-boundary schedule."),
    click.option("--lambda-tol", "lambda_tol", default=None,
                 help="Agreement tolerance on successive lambda values."),
    _report_options,
    click.option("--profile", default=None, type=click.Path(),
                 help="Write the rescaled profile as CSV (eta,f,fp,fpp)."),
)

# on every command that solves, but critical-b, which has only the +1 branch
_run_options = _options(
    _grid_options,
    click.option("--sign", default=None, help="Seeded f''*(0), +1 or -1."),
)


def _settings(ctx, **flags) -> Settings:
    return Settings(ctx.obj or {}, flags)


def _refuse_profile(st: Settings, command: str) -> None:
    """Refuse --profile, from a flag or the config file, on a multi-solve command."""
    if st.profile:
        raise click.UsageError(f"--profile applies to single solves, not {command}")


def _reason(exc: NitmError) -> str:
    if isinstance(exc, BlowupError):
        return f"integration blowup at eta {exc.eta:.4g}"
    if isinstance(exc, ScalingBreakdownError):
        return "scaling breakdown"
    if isinstance(exc, NoConvergenceError):
        return "no convergence"
    if isinstance(exc, BracketingError):
        return "bracketing failure"
    if isinstance(exc, UnsupportedVariantError):
        return "unsupported variant"
    return str(exc).replace(",", ";")


def _row_from_result(star, res) -> tuple:
    return (star, res.fp_inf_star, res.lam, res.physical_param,
            res.f0, res.fp0, res.fpp0)


def _fmt_table_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if value != 0.0 and abs(value) < 1e-4:
        return f"{value:.6e}"
    return f"{value:.6f}"


def _fmt_full(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.17g" % value


def _cells(row) -> list:
    """Row tuple -> one cell per header, expanding an error row."""
    if len(row) == 2 and isinstance(row[1], NitmError):
        reason = f"ERROR({_reason(row[1])})"
        return [row[0]] + [reason] * (len(HEADERS) - 1)
    return list(row)


def _render_table(rows) -> str:
    grid = [list(HEADERS)] + [[_fmt_table_value(c) if not isinstance(c, str) else c
                               for c in _cells(r)] for r in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(HEADERS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths))
             for line in grid]
    return "\n".join(lines)


def _render_csv(rows) -> str:
    lines = [",".join(HEADERS)]
    for row in rows:
        lines.append(",".join(_fmt_full(c) for c in _cells(row)))
    return "\n".join(lines)


def _json_object(row) -> dict:
    if len(row) == 2 and isinstance(row[1], NitmError):
        return {"star_param": row[0], "error": _reason(row[1])}
    return dict(zip(HEADERS, row))


def _render_json(rows, single: bool) -> str:
    if single:
        return json.dumps(_json_object(rows[0]), indent=2)
    return json.dumps([_json_object(r) for r in rows], indent=2)


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


def _emit_rows(rows, st: Settings, single: bool, preamble: str = "") -> None:
    if st.fmt == "csv":
        text = _render_csv(rows)
    elif st.fmt == "json":
        text = _render_json(rows, single)
    else:
        text = _render_table(rows)
        if preamble:
            text = preamble + "\n" + text
    _emit(text, st.out)


def _render_record(record: dict, fmt: str, table_text: str) -> str:
    """One named record as JSON, as a CSV header and %.17g row, or as text."""
    if fmt == "json":
        return json.dumps(record, indent=2)
    if fmt == "csv":
        return ",".join(record) + "\n" + ",".join(
            "%.17g" % v for v in record.values())
    return table_text


def _write_profile(table, path) -> None:
    lines = ["eta,f,fp,fpp"]
    for eta, f, fp, fpp in zip(table.etas(), table.f, table.fp, table.fpp):
        lines.append(",".join("%.17g" % v for v in (eta, f, fp, fpp)))
    Path(path).write_text("\n".join(lines) + "\n")


@click.group()
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="key=value defaults file; flags override it.")
@click.pass_context
def cli(ctx, config_path):
    """Non-iterative transformation methods for boundary-layer problems."""
    ctx.obj = _load_config_file(config_path) if config_path else {}


@cli.command()
@_run_options
@click.pass_context
def blasius(ctx, **flags):
    """Classic Blasius via the Topfer transformation.

    With --boundaries, solves each listed boundary as fixed and reports
    its shear; otherwise walks the default schedule to lambda agreement
    and reports the shear at each boundary walked.
    """
    st = _settings(ctx, **flags)
    spec = solvers.classic_problem(p=st.sign)

    report_lines = []
    if st.boundaries is not None:
        results = [solvers.solve_auxiliary(spec, st.nitm_config((b,)))
                   for b in st.boundaries]
        for b, res in zip(st.boundaries, results):
            report_lines.append(f"boundary {b:g}: shear {res.fpp0:.9f}")
        final = results[-1]
    else:
        config = st.nitm_config()
        final = solvers.solve_auxiliary(spec, config)
        # rescale's fpp0 at each boundary, so the same bits a fixed solve
        # at b prints: the walk reached b through the same steps
        for b, lam in zip(config.boundary_schedule, final.lambdas):
            report_lines.append(f"boundary {b:g}: shear {st.sign * lam ** -3.0:.9f}")
        report_lines.append(f"accepted boundary {final.eta_inf_star:g}: "
                            f"shear {final.fpp0:.9f}")
    _emit_rows([_row_from_result(None, final)], st, single=True,
               preamble="\n".join(report_lines))
    if st.profile:
        _write_profile(final.table, st.profile)
    return 0


@cli.command()
@_run_options
@click.option("--problem", required=True,
              type=click.Choice(("moving-wall", "slip", "gasification")))
@click.option("--values", "values_text", required=True,
              help="Star values: comma list or lo:hi:count.")
@click.pass_context
def sweep(ctx, problem, values_text, **flags):
    """Solve one row per star value, like the reference tables."""
    st = _settings(ctx, **flags)
    _refuse_profile(st, "sweeps")
    values = _parse_values(values_text)
    rows = solvers.sweep(problem, values, st.sign, st.nitm_config())
    out_rows = []
    succeeded = 0
    for star, row in zip(values, rows):
        if isinstance(row, NitmError):
            out_rows.append((star, row))
        else:
            out_rows.append(_row_from_result(star, row))
            succeeded += 1
    _emit_rows(out_rows, st, single=False)
    return 0 if succeeded else 2


def _single_solve(ctx, variant, star, flags):
    st = _settings(ctx, **flags)
    star_value = _parse_float(star, "star parameter")
    res = solvers.solve_variant(variant, star_value, st.sign, st.nitm_config())
    _emit_rows([_row_from_result(star_value, res)], st, single=True)
    if st.profile:
        _write_profile(res.table, st.profile)
    return 0


@cli.command("moving-wall")
@_run_options
@click.argument("b_star")
@click.pass_context
def moving_wall(ctx, b_star, **flags):
    """Moving-wall solve for one b*."""
    return _single_solve(ctx, "moving-wall", b_star, flags)


@cli.command()
@_run_options
@click.argument("c_star")
@click.pass_context
def slip(ctx, c_star, **flags):
    """Slip-flow solve for one c*."""
    return _single_solve(ctx, "slip", c_star, flags)


@cli.command()
@_run_options
@click.argument("s_star")
@click.pass_context
def gasification(ctx, s_star, **flags):
    """Surface-gasification solve for one s*."""
    return _single_solve(ctx, "gasification", s_star, flags)


@cli.command("critical-b")
@_grid_options
@click.option("--scan-lo", type=float, default=None,
              help=f"Most negative scanned b* (default {_SCAN_DEFAULTS['scan_lo'].default:g}).")
@click.option("--scan-hi", type=float, default=None,
              help=f"Least negative scanned b* (default {_SCAN_DEFAULTS['scan_hi'].default:g}).")
@click.option("--scan-points", type=int, default=None,
              help=f"Scan resolution (default {_SCAN_DEFAULTS['scan_points'].default}).")
@click.option("--json", "as_json", is_flag=True, help="Shorthand for --format json.")
@click.pass_context
def critical_b(ctx, scan_lo, scan_hi, scan_points, as_json, **flags):
    """Most negative physical b on the plus branch."""
    st = _settings(ctx, **flags)
    _refuse_profile(st, "critical-b")
    scan = {"scan_lo": scan_lo, "scan_hi": scan_hi, "scan_points": scan_points}
    # flags left unset take find_critical_b's defaults
    result = solvers.find_critical_b(
        st.nitm_config(), **{k: v for k, v in scan.items() if v is not None})
    text = _render_record(
        {"b_c": result.b_c, "b_star": result.b_star},
        "json" if as_json else st.fmt,
        f"b_c = {result.b_c:.6f}\nb_star = {result.b_star:.6f}")
    _emit(text, st.out)
    return 0


@cli.command()
@_run_options
@click.option("--problem", required=True,
              type=click.Choice(("moving-wall", "slip", "gasification")))
@click.option("--b", "b_target", default=None, help="Target moving-wall b.")
@click.option("--c", "c_target", default=None, help="Target slip c.")
@click.option("--s", "s_target", default=None, help="Target gasification s.")
@click.option("--bracket", default=None, help="Star bracket as lo,hi.")
@click.pass_context
def target(ctx, problem, b_target, c_target, s_target, bracket, **flags):
    """Find the star value whose physical parameter hits a target."""
    st = _settings(ctx, **flags)
    by_flag = {"moving-wall": b_target, "slip": c_target, "gasification": s_target}
    given = [(k, v) for k, v in (("--b", b_target), ("--c", c_target),
                                 ("--s", s_target)) if v is not None]
    if len(given) != 1:
        raise click.UsageError("pass exactly one of --b, --c, --s")
    if by_flag[problem] is None:
        raise click.UsageError(
            f"{given[0][0]} does not match --problem {problem}"
        )
    target_value = _parse_float(given[0][1], given[0][0])
    bracket_pair = None
    if bracket is not None:
        parts = str(bracket).split(",")
        if len(parts) != 2:
            raise click.UsageError(f"--bracket must be lo,hi, got {bracket!r}")
        bracket_pair = (_parse_float(parts[0], "--bracket"),
                        _parse_float(parts[1], "--bracket"))
    res = solvers.find_star_for_target(problem, target_value, st.sign,
                                       st.nitm_config(), bracket=bracket_pair)
    star = _star_of(res, problem)
    _emit_rows([_row_from_result(star, res)], st, single=True)
    if st.profile:
        _write_profile(res.table, st.profile)
    return 0


def _star_of(res, variant: str) -> float:
    k = solvers.PARAM_EXPONENT[variant]
    return res.physical_param * res.lam ** k


@cli.command("series-check")
@click.option("--eta-max", default=None, help="Comparison window end (default 0.5).")
@click.option("--step", default=None, help="Fine comparison step (default 1e-4).")
@_report_options
@click.pass_context
def series_check(ctx, eta_max, step, **flags):
    """Compare the wall series against a fine star-IVP solve."""
    st = _settings(ctx, **flags)
    eta_max_value = 0.5 if eta_max is None else _parse_float(eta_max, "--eta-max")
    step_value = 1e-4 if step is None else _parse_float(step, "--step")
    if eta_max_value <= 0 or step_value <= 0 or eta_max_value < 10 * step_value:
        raise click.UsageError("need 0 < step << eta-max")
    deviation, order = analysis.series_deviation(eta_max_value, step_value)
    ok = order >= 13.0
    text = _render_record(
        {"max_deviation": deviation, "fitted_order": order, "order_ok": ok},
        st.fmt,
        f"max deviation = {deviation:.3e}\n"
        f"fitted order = {order:.2f}\n"
        f"order >= 13: {'yes' if ok else 'NO'}")
    _emit(text, st.out)
    return 0 if ok else 2


@cli.command()
@click.option("--M", "m_value", required=True, help="Truncated boundary.")
@_report_options
@click.pass_context
def rubel(ctx, m_value, **flags):
    """Truncation error bound at M, validated against the 2M solution."""
    st = _settings(ctx, **flags)
    M = _parse_float(m_value, "--M")
    if M < 1.0:
        raise click.UsageError(f"--M must be at least 1, got {M}")
    sol = analysis.truncated_solution(M)
    sol2 = analysis.truncated_solution(2.0 * M)
    bound = analysis.rubel_bound(sol.table)
    n = sol.table.grid.nodes
    empirical = float(abs(sol2.table.f[:n] - sol.table.f[:n]).max())
    valid = empirical <= bound.bound
    text = _render_record(
        {"M": M, "t_star": sol.t_star, "lambda": sol.lam, "bound": bound.bound,
         "empirical_max_error": empirical, "valid": valid},
        st.fmt,
        f"M = {M:g}\n"
        f"t_star = {sol.t_star:.9f}\n"
        f"lambda = {sol.lam:.9f}\n"
        f"bound = {bound.bound:.6e}\n"
        f"empirical max error = {empirical:.6e}\n"
        f"{'VALID' if valid else 'INVALID'} (error <= bound: "
        f"{'yes' if valid else 'no'})")
    _emit(text, st.out)
    return 0 if valid else 2


@cli.command()
def info():
    """Package version and the integration kernel in use, with why."""
    click.echo(f"nitm {__version__}\n"
               f"backend: {kernels.BACKEND}\n"
               f"reason: {kernels.BACKEND_REASON}")
    return 0


def main(argv=None) -> int:
    """Entry point with the package's exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except NitmError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (MemoryError, OverflowError) as exc:
        # MemoryError often carries no message; the report stays one line
        name = type(exc).__name__
        detail = " ".join(str(exc).split())
        click.echo(f"error: {name}: {detail}" if detail else f"error: {name}",
                   err=True)
        return 2
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
