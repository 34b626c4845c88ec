"""Command-line interface: formats, exit codes, config file, reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nitm
from nitm.cli import HEADERS, main


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
])
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err  # complaint goes to stderr


@pytest.mark.parametrize("argv, code", [
    (("blasius",), 2),                   # the -1 branch blows up
    (("moving-wall", "5"), 0),
    (("slip", "1.0"), 2),
    (("gasification", "1.0"), 1),        # only the +1 branch exists
    (("sweep", "--problem", "moving-wall", "--values", "2,5"), 0),
    (("target", "--problem", "moving-wall", "--b", "0.7"), 0),
], ids=["blasius", "moving-wall", "slip", "gasification", "sweep", "target"])
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


def test_python_m_runs_the_cli():
    # the nitm under test, whether installed or on PYTHONPATH
    env = dict(os.environ, PYTHONPATH=str(Path(nitm.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "nitm.cli", "info"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0
    assert "backend:" in out.stdout


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "blasius" in out
