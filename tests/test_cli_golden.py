"""Command-line outputs pinned against a recorded fixture.

golden_cli.json holds, for each case below, the exit code, a sha256 of
stdout and a sha256 of each file the command wrote (--profile and
--out). Stderr is not pinned, since an error's wording is not part of
the contract, only its exit code; neither is `nitm info`, which prints
a cache path. Record it again only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from nitm.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

FORMATS = ("table", "csv", "json")

# Every report command; each runs once per format. "--format" goes right
# after the command name, ahead of any "--" that ends the options.
REPORTS = (
    ("blasius",),
    ("blasius", "--sign", "-1"),
    ("blasius", "--boundaries", "4,6", "--step", "0.1"),
    ("blasius", "--boundaries", "6", "--lambda-tol", "1e-3"),
    ("moving-wall", "--", "-0.5"),
    ("moving-wall", "2.0"),
    ("moving-wall", "--sign", "-1", "5"),
    ("moving-wall", "--sign", "-1", "1.2"),
    ("slip", "1.0"),
    ("slip", "--step", "0.005", "0.5"),
    ("slip", "--sign", "-1", "1.0"),
    ("gasification", "1.0"),
    ("gasification", "--sign", "-1", "1.0"),
    ("sweep", "--problem", "moving-wall", "--values", "-1,0,0.5,2"),
    ("sweep", "--problem", "moving-wall", "--sign", "-1", "--values", "1.2,2.0"),
    ("sweep", "--problem", "moving-wall", "--sign", "-1", "--values", "2.0,1.2"),
    ("sweep", "--problem", "moving-wall", "--sign", "-1", "--values", "1.0,1.2"),
    ("sweep", "--problem", "slip", "--values", "0:3:4"),
    ("sweep", "--problem", "slip", "--sign", "-1", "--values", "1,2"),
    ("sweep", "--problem", "gasification", "--values", "0,1,2"),
    ("target", "--problem", "moving-wall", "--b", "-0.5"),
    ("target", "--problem", "moving-wall", "--b", "0.3"),
    ("target", "--problem", "moving-wall", "--b", "-0.5", "--bracket", "-5,-1.2323"),
    ("target", "--problem", "moving-wall", "--sign", "-1", "--b", "0.7"),
    ("target", "--problem", "moving-wall", "--b", "-0.7"),
    ("target", "--problem", "slip", "--c", "1.5"),
    ("target", "--problem", "slip", "--c", "1.5", "--bracket", "0,10"),
    ("target", "--problem", "gasification", "--s", "0.5"),
    ("critical-b",),
    ("critical-b", "--scan-points", "60", "--scan-lo", "-3"),
    ("series-check",),
    ("series-check", "--eta-max", "1.5", "--step", "1e-3"),
    ("rubel", "--M", "3"),
    ("rubel", "--M", "4"),
)

# (config file text or None, argv); {tmp} is the case's own directory
OTHERS = (
    (None, ("critical-b", "--json")),
    (None, ("critical-b", "--json", "--format", "csv")),
    # --profile, alone and with --out
    (None, ("blasius", "--profile", "{tmp}/profile.csv")),
    (None, ("blasius", "--boundaries", "4,6", "--profile", "{tmp}/profile.csv")),
    (None, ("moving-wall", "--profile", "{tmp}/profile.csv", "--", "-1.0")),
    (None, ("moving-wall", "--sign", "-1", "--profile", "{tmp}/profile.csv", "5")),
    (None, ("slip", "2.0", "--profile", "{tmp}/profile.csv")),
    (None, ("gasification", "1.0", "--profile", "{tmp}/profile.csv",
            "--format", "csv")),
    (None, ("target", "--problem", "moving-wall", "--b", "-0.5",
            "--profile", "{tmp}/profile.csv")),
    (None, ("slip", "2.0", "--out", "{tmp}/report.txt")),
    (None, ("sweep", "--problem", "slip", "--values", "1,2", "--format", "json",
            "--out", "{tmp}/report.txt")),
    (None, ("rubel", "--M", "3", "--format", "csv", "--out", "{tmp}/report.txt")),
    (None, ("gasification", "0.5", "--format", "json", "--out", "{tmp}/report.txt",
            "--profile", "{tmp}/profile.csv")),
    # usage errors
    (None, ("blasius", "--step", "-0.5")),
    (None, ("blasius", "--step", "abc")),
    (None, ("blasius", "--boundaries", "4.005")),
    (None, ("blasius", "--step", "0.03")),
    (None, ("blasius", "--lambda-tol", "0")),
    (None, ("blasius", "--sign", "2")),
    (None, ("moving-wall", "nan")),
    (None, ("slip", "--", "-1")),
    (None, ("sweep", "--problem", "slip", "--values", "1,2",
            "--profile", "{tmp}/profile.csv")),
    (None, ("sweep", "--problem", "slip", "--values", "3:1:5")),
    (None, ("sweep", "--problem", "slip", "--values", "1:2:x")),
    (None, ("sweep", "--problem", "gasification", "--values", "1,2", "--sign", "-1")),
    (None, ("target", "--problem", "slip", "--b", "0.5")),
    (None, ("target", "--problem", "slip", "--c", "1", "--s", "1")),
    (None, ("target", "--problem", "slip", "--c", "1", "--bracket", "0")),
    (None, ("critical-b", "--profile", "{tmp}/profile.csv")),
    (None, ("critical-b", "--scan-lo", "-0.001", "--scan-hi", "-5")),
    (None, ("series-check", "--eta-max", "0.001")),
    (None, ("series-check", "--eta-max", "0.3", "--step", "2e-4")),
    (None, ("rubel", "--M", "0.5")),
    (None, ("no-such-command",)),
    # config files
    ("step = 0.1\nformat = csv\n# comment line\n", ("blasius", "--boundaries", "6")),
    ("step = 0.1\nformat = csv\n", ("blasius", "--boundaries", "6",
                                    "--format", "table")),
    ("sign = -1\n", ("moving-wall", "5")),
    ("sign = -1\n", ("sweep", "--problem", "moving-wall", "--values", "2,5")),
    ("sign = -1\n", ("target", "--problem", "gasification", "--s", "0.5")),
    ("format = json\nout = {tmp}/report.txt\n", ("series-check",)),
    ("format = csv\n", ("rubel", "--M", "3")),
    ("format = xml\n", ("rubel", "--M", "3")),
    ("profile = {tmp}/profile.csv\n", ("slip", "1.0")),
    ("profile = {tmp}/profile.csv\n", ("critical-b",)),
    ("boundaries = 4,6,8,10\nlambda_tol = 1e-4\n", ("gasification", "2.0")),
    ("steps = 0.1\n", ("blasius",)),
    # a profile key the analysis commands refuse
    ("profile = {tmp}/profile.csv\n", ("rubel", "--M", "3")),
    ("profile = {tmp}/profile.csv\n", ("series-check",)),
    # a fit window too short, and counts refused before anything is allocated
    (None, ("series-check", "--eta-max", "0.36", "--step", "0.01")),
    (None, ("sweep", "--problem", "slip", "--values", "0:1:1000000000000")),
    (None, ("critical-b", "--scan-points", "1000000000000")),
)

CASES = tuple((None, (argv[0], "--format", fmt) + argv[1:])
              for argv in REPORTS for fmt in FORMATS) + OTHERS


def _case_id(config, argv) -> str:
    words = " ".join(argv)
    if config is None:
        return words
    return f"[{'; '.join(config.strip().splitlines())}] {words}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(config, argv) -> dict:
    """Exit code, stdout digest and written-file digests of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        args = [a.replace("{tmp}", tmp) for a in argv]
        if config is not None:
            cfg = directory / "run.cfg"
            cfg.write_text(config.replace("{tmp}", tmp))
            args = ["--config", str(cfg)] + args
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        files = {p.name: _sha(p.read_bytes())
                 for p in sorted(directory.iterdir()) if p.name != "run.cfg"}
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()),
            "files": files}


def _expected() -> dict:
    return {entry["case"]: entry for entry in json.loads(FIXTURE.read_text())}


def test_fixture_covers_every_case():
    assert sorted(_expected()) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("config, argv", CASES,
                         ids=[_case_id(*case) for case in CASES])
def test_cli_output_matches_the_recorded_fixture(config, argv):
    want = _expected()[_case_id(config, argv)]
    assert dict(observe(config, argv), case=want["case"]) == want


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        [dict(case=_case_id(*case), **observe(*case)) for case in CASES],
        indent=1) + "\n")
