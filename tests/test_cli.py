"""Command-line interface: formats, exit codes, config file, reports."""

import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nitm
from nitm.cli import HEADERS, MAX_RANGE_COUNT, _fmt_table_value, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# blasius


def test_blasius_fixed_boundaries(capsys):
    code, out, _ = run(capsys, "blasius", "--step", "0.1",
                       "--boundaries", "4,6")
    assert code == 0
    assert "boundary 4: shear 0.332912411" in out
    assert "boundary 6: shear 0.332057560" in out
    assert "star_param" in out


def test_blasius_agreement_walk(capsys):
    code, out, _ = run(capsys, "blasius")
    assert code == 0
    assert "boundary 4: shear" in out
    assert "boundary 6: shear" in out
    assert "accepted boundary 8: shear 0.332057336" in out


def test_blasius_walk_shears_match_fixed_boundary_solves(capsys):
    # each boundary walked prints the shear that a fixed solve at that
    # boundary returns, digit for digit
    code, out, _ = run(capsys, "blasius")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("boundary ")]
    assert [line.split()[1] for line in lines] == ["4:", "6:", "8:"]
    for line, b in zip(lines, (4.0, 6.0, 8.0)):
        res = nitm.solve_auxiliary(nitm.classic_problem(),
                                   nitm.NitmConfig(boundary_schedule=(b,)))
        assert line == f"boundary {b:g}: shear {res.fpp0:.9f}"


def test_blasius_csv_full_precision(capsys):
    code, out, _ = run(capsys, "blasius", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(HEADERS)
    cells = lines[1].split(",")
    assert cells[0] == ""                        # no star parameter
    assert float(cells[1]) == pytest.approx(2.0854091764180924, rel=1e-15)
    assert float(cells[6]) == pytest.approx(0.3320573362199281, rel=1e-15)


def test_blasius_json_keys_match_headers(capsys):
    code, out, _ = run(capsys, "blasius", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert tuple(payload.keys()) == HEADERS
    assert payload["star_param"] is None
    assert payload["lambda"] == pytest.approx(1.4440945870745767, rel=1e-12)


def test_table_and_json_agree(capsys):
    _, json_out, _ = run(capsys, "slip", "1.0", "--format", "json")
    payload = json.loads(json_out)
    _, table_out, _ = run(capsys, "slip", "1.0")
    row = table_out.strip().splitlines()[-1].split()
    assert float(row[2]) == pytest.approx(payload["lambda"], abs=5e-7)
    assert float(row[6]) == pytest.approx(payload["fpp0"], abs=5e-7)


# ---------------------------------------------------------------------------
# single-variant commands


def test_moving_wall_negative_star(capsys):
    code, out, _ = run(capsys, "moving-wall", "--", "-1.0")
    assert code == 0
    assert "-0.521422" in out     # recovered b


def test_profile_csv(capsys, tmp_path):
    profile = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "gasification", "1.0",
                     "--profile", str(profile))
    assert code == 0
    lines = profile.read_text().splitlines()
    assert lines[0] == "eta,f,fp,fpp"
    assert len(lines) == 602      # 601 nodes behind boundary 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(-0.51790749629406996, rel=1e-12)
    assert not lines[-1].endswith(",")


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "slip", "2.0", "--out", str(report))
    assert code == 0
    assert out == ""
    assert "star_param" in report.read_text()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "gasification",
                       "--values", "0,1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(HEADERS)
    assert len(lines) == 4
    last = lines[3].split(",")
    assert float(last[1]) == pytest.approx(7.7712169322596605, rel=1e-12)


def test_sweep_range_syntax(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "slip",
                       "--values", "1:3:3", "--format", "csv")
    assert code == 0
    stars = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert stars == ["1", "2", "3"]


def test_sweep_error_rows_marked(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "moving-wall",
                       "--sign", "-1", "--values", "1.2,2.0")
    assert code == 0                      # one row still succeeded
    assert "ERROR(scaling breakdown)" in out


def test_sweep_all_failed_exit_code(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "moving-wall",
                       "--sign", "-1", "--values", "1.0,1.2")
    assert code == 2
    assert out.count("ERROR(") >= 2


def test_sweep_slip_minus_branch_is_solved(capsys):
    # the -1 branch of slip blows up; it used to print the +1 rows
    code, out, _ = run(capsys, "sweep", "--problem", "slip",
                       "--values", "1,2", "--sign", "-1")
    assert code == 2
    assert out.count("ERROR(integration blowup") == 2 * (len(HEADERS) - 1)


def test_sweep_gasification_rejects_minus_sign(capsys):
    code, out, err = run(capsys, "sweep", "--problem", "gasification",
                         "--values", "1,2", "--sign", "-1")
    assert code == 1
    assert not out
    assert "sign" in err


def test_sweep_json_error_objects(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "moving-wall",
                       "--sign", "-1", "--values", "1.2,2.0",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"star_param": 1.2, "error": "scaling breakdown"}
    assert rows[1]["fp_inf_star"] == pytest.approx(0.5286, abs=5e-4)


def test_sweep_row_that_does_not_converge_reads_error(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "moving-wall", "--values", "0",
                       "--boundaries", "4,6", "--lambda-tol", "1e-15")
    assert code == 2
    row = out.splitlines()[1].split()
    assert row == ["0.000000"] + ["ERROR(no", "convergence)"] * (len(HEADERS) - 1)


def test_a_long_sweep_holds_one_batch_of_solves(capsys, monkeypatch):
    # a solve keeps its walk buffers, about 15 kB a row at the default
    # step, which a sweep never reads; a batch of 4 keeps the traced run
    # short on the pure kernel, and the sweep still walks 12 of them
    monkeypatch.setattr(nitm.solvers, "_BATCH", 4)
    argv = ("sweep", "--problem", "moving-wall", "--format", "csv", "--values")
    assert run(capsys, *argv, "0:5:4")[0] == 0          # lazy imports first
    tracemalloc.start()
    try:
        code = main([*argv, "0:5:48"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and len(out.splitlines()) == 49
    assert peak < 48 * 5000


def test_sweep_refuses_a_value_past_its_first_batch_before_any_solve(
        capsys, monkeypatch):
    monkeypatch.setattr(nitm.solvers, "solve_many", _no_solve)
    monkeypatch.setattr(nitm.solvers, "iter_solves", _no_solve)
    values = ",".join(["1"] * (nitm.solvers._BATCH + 1) + ["-1"])
    code, out, err = run(capsys, "sweep", "--problem", "slip", f"--values={values}")
    assert (code, out) == (1, "")
    assert err.count("error:") == 1


@pytest.mark.parametrize("values", ["-1e308:1e308:3", "-1e308:7e307:3",
                                    "0:1e306:1000"])
def test_sweep_refuses_a_range_too_wide_for_a_float(capsys, monkeypatch, values):
    # hi - lo, or a step's product with it, overflows: once read as a NaN
    # or infinite star_param that named neither --values nor the cause
    monkeypatch.setattr(nitm.solvers, "iter_solves", _no_solve)
    code, out, err = run(capsys, "sweep", "--problem", "slip", f"--values={values}")
    assert (code, out) == (1, "")
    assert err == (f"error: --values range {values!r} is too wide: "
                   f"(hi - lo) * (count - 1) is past the float range\n")


def test_sweep_range_near_the_float_range_keeps_its_bits(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "moving-wall",
                       "--values=-1e304:1e304:1000", "--format", "csv")
    stars = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert stars == [-1e304 + 2e304 * i / 999 for i in range(1000)]


@pytest.mark.parametrize("value, text", [
    (0.0, "0.000000"),
    (1e-4, "0.000100"),
    (9.99e-5, "9.990000e-05"),
    (999999.0, "999999.000000"),
    (1e6, "1.000000e+06"),
    (-2.5e6, "-2.500000e+06"),
    (1e20, "1.000000e+20"),
])
def test_table_cells_use_exponent_form_outside_1e_4_to_1e6(value, text):
    assert _fmt_table_value(value) == text


def test_sweep_table_prints_large_star_values_in_exponent_form(capsys):
    code, out, _ = run(capsys, "sweep", "--problem", "slip", "--values=1e7,1e20")
    assert code == 2                      # both rows blow up
    assert [line.split()[0] for line in out.splitlines()[1:]] == [
        "1.000000e+07", "1.000000e+20"]


# ---------------------------------------------------------------------------
# critical-b and target


def test_critical_b_json(capsys):
    code, out, _ = run(capsys, "critical-b", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["b_c"] == pytest.approx(-0.5482461651938919, rel=1e-9)
    assert payload["b_star"] == pytest.approx(-1.23227, abs=1e-3)


def test_critical_b_bad_scan_flags(capsys):
    code, _, err = run(capsys, "critical-b", "--scan-lo", "-0.001",
                       "--scan-hi", "-5")
    assert code == 1
    assert "scan" in err


def test_target_moving_wall(capsys):
    code, out, _ = run(capsys, "target", "--problem", "moving-wall",
                       "--b", "-0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["physical_param"] == pytest.approx(-0.5, abs=1e-6)
    assert payload["star_param"] == pytest.approx(-0.9243, abs=1e-3)


def test_target_row_re_solves_to_itself(capsys):
    # the star value printed is the one solved, so solving it again
    # prints the same row, bit for bit
    code, out, _ = run(capsys, "target", "--problem", "moving-wall",
                       "--b", "-0.5", "--format", "json")
    assert code == 0
    found = json.loads(out)
    code, out, _ = run(capsys, "moving-wall", "--format", "json", "--",
                       repr(found["star_param"]))
    assert code == 0
    assert json.loads(out) == found


def test_target_flag_must_match_problem(capsys):
    code, _, err = run(capsys, "target", "--problem", "slip", "--b", "0.5")
    assert code == 1
    assert "--b" in err


def test_target_needs_exactly_one_flag(capsys):
    code, _, err = run(capsys, "target", "--problem", "slip",
                       "--c", "1", "--s", "1")
    assert code == 1


def test_target_unreachable_value(capsys):
    code, _, err = run(capsys, "target", "--problem", "moving-wall",
                       "--b", "-0.7")
    assert code == 2
    assert "error:" in err


def test_target_explicit_bracket(capsys):
    code, out, _ = run(capsys, "target", "--problem", "moving-wall",
                       "--b", "-0.5", "--bracket", "-5,-1.2323",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["star_param"] == pytest.approx(-1.6228, abs=1e-3)


# ---------------------------------------------------------------------------
# analysis commands


def test_series_check(capsys):
    code, out, _ = run(capsys, "series-check")
    assert code == 0
    assert "order >= 13: yes" in out


def test_rubel_report(capsys):
    code, out, _ = run(capsys, "rubel", "--M", "4")
    assert code == 0
    assert "VALID" in out
    assert "bound = 9.762554e-03" in out


@pytest.mark.parametrize("argv, header", [
    (("series-check",), "max_deviation,fitted_order,order_ok"),
    (("rubel", "--M", "3"), "M,t_star,lambda,bound,empirical_max_error,valid"),
], ids=["series-check", "rubel"])
def test_analysis_commands_csv(capsys, argv, header):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == header
    cells = [float(c) for c in lines[1].split(",")]
    assert len(cells) == len(header.split(","))
    assert cells[-1] == 1.0          # order_ok / valid


@pytest.mark.parametrize("argv", [("series-check",), ("rubel", "--M", "3")],
                         ids=["series-check", "rubel"])
def test_analysis_commands_reject_config_format(capsys, tmp_path, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 1
    assert not out
    assert "--format must be one of" in err


def test_rubel_json(capsys):
    code, out, _ = run(capsys, "rubel", "--M", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["bound"] == pytest.approx(0.10518402768379607, rel=1e-9)
    assert payload["empirical_max_error"] <= payload["bound"]


def test_rubel_refuses_a_2m_solution_past_the_node_ceiling(capsys, monkeypatch):
    # the M = 6e4 solution alone would take 6e7 nodes and two passes before
    # the 2M one was refused; now nothing is integrated, and the error names
    # the M given
    def no_fill(*args):
        raise AssertionError("a kernel fill ran")

    monkeypatch.setattr(nitm.kernels, "fill_blasius_family", no_fill)
    code, out, err = run(capsys, "rubel", "--M", "6e4")
    assert code == 1
    assert out == ""
    assert err == ("error: M = 60000.0 needs a 2M solution on more than "
                   "100000000 grid nodes\n")


# ---------------------------------------------------------------------------
# configuration and validation


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("step = 0.1\nformat = csv\n# comment line\n")
    code, out, _ = run(capsys, "--config", str(cfg), "blasius",
                       "--boundaries", "6")
    assert code == 0
    assert out.splitlines()[-2] == ",".join(HEADERS)  # csv from config
    code, out, _ = run(capsys, "--config", str(cfg), "blasius",
                       "--boundaries", "6", "--format", "table")
    assert code == 0
    assert "star_param" in out and "," not in out.splitlines()[-1]


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 0.1\n")
    code, _, err = run(capsys, "--config", str(cfg), "blasius")
    assert code == 1
    assert "unknown config key" in err


def test_config_file_rejects_a_line_without_equals(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("step 0.1\n")
    code, out, err = run(capsys, "--config", str(cfg), "blasius")
    assert (code, out) == (1, "")
    assert err == "error: config line 'step 0.1' is not key=value\n"


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--problem", "slip", "--values", "1:2"),
     "range syntax is lo:hi:count, got '1:2'"),
    (("blasius", "--boundaries", ","), "--boundaries needs at least one value"),
    (("sweep", "--problem", "slip", "--values", ","), "--values needs at least one value"),
    (("series-check", "--eta-max", "2", "--step", "0.25"),
     "need 0 < step << eta-max"),
], ids=["values-range", "boundaries-empty", "values-empty", "series-window"])
def test_malformed_values_are_refused_with_their_reason(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("blasius", "--step", "-0.5"),
    ("blasius", "--step", "abc"),
    ("blasius", "--boundaries", "4.005"),
    ("blasius", "--step", "0.03"),          # default schedule off its grid
    ("blasius", "--lambda-tol", "0"),
    ("blasius", "--sign", "2"),
    ("sweep", "--problem", "slip", "--values", "1,2",
     "--profile", "x.csv"),
    ("sweep", "--problem", "slip", "--values", "3:1:5"),
    ("rubel", "--M", "0.5"),
    ("no-such-command",),
    ("critical-b", "--profile", "x.csv"),
    # files that cannot be written or read, named by their flag
    ("slip", "1.0", "--out", "/nonexistent/dir/x.txt"),
    ("slip", "1.0", "--profile", "/nonexistent/p.csv"),
    ("--config", "/nonexistent/run.cfg", "blasius"),
    ("--config", ".", "blasius"),                # a directory
    # the parser: no abbreviations, required options, choices and types
    ("sweep", "--problem", "slip", "--val", "1,2"),
    ("sweep", "--values", "1,2"),
    ("sweep", "--problem", "slip", "--values", "1,2", "--format", "xml"),
    ("critical-b", "--scan-points", "x"),
    ("moving-wall", "-1.0"),                     # a negative star goes after --
])
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.count("error:") == 1  # one complaint, on stderr
    for flag in ("--out", "--profile", "--config"):
        if flag in argv:
            assert f"error: {flag} " in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--problem", "moving-wall", "--values", "-1,0,0.5,2"),
    ("target", "--problem", "moving-wall", "--b", "-0.5", "--bracket", "-5,-1.2323"),
    ("target", "--problem", "moving-wall", "--b", "-1e-06"),
    ("critical-b", "--scan-hi", "-1e-05"),
    ("sweep", "--problem", "moving-wall", "--values=-1,0"),
], ids=["values", "bracket", "b", "scan-hi", "values="])
def test_option_values_may_start_with_a_minus(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["nitm", "sweep", "--problem", "moving-wall",
                                      "--values", "-1,0", "--format", "json"])
    assert main() == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


@pytest.mark.parametrize("argv, code", [
    (("blasius",), 2),                   # the -1 branch blows up
    (("moving-wall", "5"), 0),
    (("slip", "1.0"), 2),
    (("gasification", "1.0"), 1),        # only the +1 branch exists
    (("sweep", "--problem", "moving-wall", "--values", "2,5"), 0),
    (("target", "--problem", "moving-wall", "--b", "0.7"), 0),
    (("target", "--problem", "gasification", "--s", "0.5"), 1),
], ids=["blasius", "moving-wall", "slip", "gasification", "sweep", "target",
        "target-gasification"])
def test_sign_flag_matches_config_file(capsys, tmp_path, argv, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sign = -1\n")
    by_file = run(capsys, "--config", str(cfg), *argv)
    by_flag = run(capsys, *argv, "--sign", "-1")
    assert by_flag == by_file
    assert by_flag[0] == code


def test_profile_from_config_file_is_refused_by_critical_b(capsys, tmp_path):
    profile = tmp_path / "prof.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"profile = {profile}\n")
    code, out, err = run(capsys, "--config", str(cfg), "critical-b")
    assert code == 1
    assert "--profile applies to single solves" in err
    assert out == "" and not profile.exists()


@pytest.mark.parametrize("argv", [("rubel", "--M", "3"), ("series-check",)],
                         ids=["rubel", "series-check"])
def test_profile_from_config_file_is_refused_by_the_analysis_commands(
        capsys, tmp_path, argv):
    profile = tmp_path / "prof.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"profile = {profile}\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 1
    assert f"--profile applies to single solves, not {argv[0]}" in err
    assert out == "" and not profile.exists()


@pytest.mark.parametrize("key, argv", [
    ("step = abc", ("rubel", "--M", "3")),
    ("sign = 2", ("critical-b",)),
    ("boundaries = x", ("series-check",)),
    ("lambda_tol = x\nsign = x", ("rubel", "--M", "3", "--format", "csv")),
], ids=["rubel-step", "critical-b-sign", "series-check-boundaries", "rubel-two"])
def test_config_key_reaches_only_a_command_that_has_its_option(
        capsys, tmp_path, key, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(key + "\n")
    by_file = run(capsys, "--config", str(cfg), *argv)
    assert by_file == run(capsys, *argv)
    assert by_file[0] == 0 and by_file[1]


def test_config_key_is_parsed_for_a_command_that_has_its_option(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("step = abc\n")
    code, out, err = run(capsys, "--config", str(cfg), "blasius")
    assert (code, out) == (1, "")
    assert err == "error: --step must be a number, got 'abc'\n"


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the count was checked")


@pytest.mark.parametrize("argv, name", [
    (("sweep", "--problem", "slip", "--values", f"0:1:{10**12}"), "range count"),
    (("sweep", "--problem", "slip", "--values", f"0:1:{MAX_RANGE_COUNT + 1}"),
     "range count"),
    (("critical-b", "--scan-points", str(10**12)), "scan_points"),
], ids=["sweep-1e12", "sweep-limit+1", "critical-b-1e12"])
def test_value_counts_are_refused_before_anything_is_allocated(
        capsys, monkeypatch, argv, name):
    monkeypatch.setattr(nitm.solvers, "solve_auxiliary", _no_solve)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert name in err and out == ""


# each command, run in one fresh process after `import nitm` and a default
# solve, then the reads that do need numpy: a table and a --profile. Each
# step records which of the modules no solve needs are loaded by then;
# after the table read only the first five, since numpy itself loads
# inspect and numbers. rubel, which runs last, loads nitm.analysis and no
# more.
_NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
HEAVY = ("numpy", "click", "fractions", "nitm.analysis", "nitm.models")
def loaded(names=HEAVY + ("dataclasses", "inspect", "numbers")):
    return [m for m in names if m in sys.modules]
import nitm
seen = [("import nitm", loaded())]
res = nitm.solve_auxiliary(nitm.classic_problem())
seen.append(("solve", loaded()))
from nitm.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append((" ".join(argv), code, loaded()))
fp_inf = res.table.fp[-1]
seen.append(("table", fp_inf.hex(), loaded(HEAVY)))
with contextlib.redirect_stdout(io.StringIO()):
    seen.append(("profile", main(["moving-wall", "1.0", "--profile", sys.argv[2]])))
print(json.dumps(seen))
"""

_NUMPY_FREE_COMMANDS = (
    ["blasius"],
    ["moving-wall", "1.0"],
    ["slip", "1.0", "--format", "json"],
    ["gasification", "1.0", "--format", "csv"],
    ["sweep", "--problem", "slip", "--values", "0:3:4"],
    ["target", "--problem", "slip", "--c", "1.5"],
    ["critical-b", "--json"],
    ["rubel", "--M", "3"],
    ["rubel", "--M", "4", "--format", "json"],
)


def test_solve_commands_never_import_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(nitm.__file__).parent.parent))
    profile = tmp_path / "prof.csv"
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT,
         json.dumps(_NUMPY_FREE_COMMANDS), str(profile)],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert seen[:2] == [["import nitm", []], ["solve", []]]
    assert seen[2:-2] == [[" ".join(argv), 0,
                           ["nitm.analysis"] if argv[0] == "rubel" else []]
                          for argv in _NUMPY_FREE_COMMANDS]
    # the table still reads, with numpy now loaded, and bit for bit
    want = nitm.solve_auxiliary(nitm.classic_problem()).table.fp[-1]
    assert seen[-2] == ["table", float(want).hex(), ["numpy", "nitm.analysis"]]
    assert seen[-1] == ["profile", 0]
    assert profile.read_text().startswith("eta,f,fp,fpp\n0,0,")


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: MemoryError"),
    (OverflowError("(34, 'Numerical result\nout of range')"),
     "error: OverflowError: (34, 'Numerical result out of range')"),
])
def test_resource_errors_exit_two(capsys, monkeypatch, error, line):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(nitm.solvers, "solve_variant", failing_solve)
    code, out, err = run(capsys, "moving-wall", "2")
    assert code == 2
    assert out == ""
    assert err == line + "\n"


def test_numerical_failure_exit_two(capsys):
    code, _, err = run(capsys, "moving-wall", "1.2", "--sign", "-1")
    assert code == 2
    assert err.startswith("error:")


def test_info_reports_version_and_backend(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert out.splitlines() == [f"nitm {nitm.__version__}",
                                f"backend: {nitm.kernels.BACKEND}",
                                f"reason: {nitm.kernels.BACKEND_REASON}"]


_PURE_REASON = "compiled kernel unavailable: cc exited with status 1"


@pytest.mark.parametrize("argv", [
    ("moving-wall", "1.0"),
    ("sweep", "--problem", "slip", "--values", "0,1", "--format", "csv"),
    ("blasius", "--format", "json"),
], ids=["moving-wall", "sweep", "blasius"])
def test_pure_backend_not_asked_for_says_so_on_stderr(capsys, monkeypatch, argv):
    monkeypatch.delenv("NITM_PURE", raising=False)
    expected = run(capsys, *argv)
    assert expected[2] == "" or nitm.kernels.BACKEND == "pure"
    monkeypatch.setattr(nitm.kernels, "BACKEND", "pure")
    monkeypatch.setattr(nitm.kernels, "BACKEND_REASON", _PURE_REASON)
    code, out, err = run(capsys, *argv)
    assert (code, out) == expected[:2]
    assert err == ("note: the pure-Python kernel is running, slower than the "
                   f"compiled one: {_PURE_REASON}\n")


@pytest.mark.parametrize("backend, nitm_pure, argv", [
    ("pure", "1", ("moving-wall", "1.0")),
    ("pure", None, ("info",)),
    ("compiled", None, ("moving-wall", "1.0")),
], ids=["NITM_PURE", "info", "compiled"])
def test_no_backend_notice_when_chosen_compiled_or_info(capsys, monkeypatch, backend,
                                                        nitm_pure, argv):
    monkeypatch.setattr(nitm.kernels, "BACKEND", backend)
    monkeypatch.setattr(nitm.kernels, "BACKEND_REASON", _PURE_REASON)
    if nitm_pure is None:
        monkeypatch.delenv("NITM_PURE", raising=False)
    else:
        monkeypatch.setenv("NITM_PURE", nitm_pure)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def test_python_m_runs_the_cli():
    # the nitm under test, whether installed or on PYTHONPATH
    env = dict(os.environ, PYTHONPATH=str(Path(nitm.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "nitm.cli", "info"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0
    assert "backend:" in out.stdout


_COMMAND_NAMES = ("blasius", "sweep", "moving-wall", "slip", "gasification",
                  "critical-b", "target", "series-check", "rubel", "info")


def test_closed_stdout_exits_one_quietly():
    # a reader that stops early, as `nitm ... | head` does
    env = dict(os.environ, PYTHONPATH=str(Path(nitm.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "nitm.cli", "slip", "1.0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert all(name in out for name in _COMMAND_NAMES)


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", (None,) + _COMMAND_NAMES)
def test_help_on_the_group_and_each_command(capsys, command, flag):
    argv = (flag,) if command is None else (command, flag)
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert out.startswith(f"usage: nitm {command or ''}".rstrip())


def test_every_public_name_resolves():
    for name in nitm.__all__:
        assert getattr(nitm, name) is not None
    assert set(nitm.__all__) <= set(dir(nitm))
    namespace = {}
    exec("from nitm import *", namespace)
    assert set(nitm.__all__) <= set(namespace)


@pytest.mark.parametrize("command, fn, names", [
    ("critical-b", nitm.solvers.find_critical_b,
     ("scan_lo", "scan_hi", "scan_points")),
    ("series-check", nitm.analysis.series_deviation, ("eta_max", "step")),
], ids=["critical-b", "series-check"])
def test_help_quotes_the_library_defaults(capsys, command, fn, names):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())
    params = inspect.signature(fn).parameters
    for name in names:
        assert f"(default {params[name].default:g})" in text
