"""Solver outputs pinned bit for bit against a recorded fixture.

golden_solves.json holds, for every variant and sign on three configs,
each result field as float.hex and a sha256 of each table's grid and
arrays, or the error type and message of a failed row. The test checks
it on the active kernel and on the pure one. Record it again only when
an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from nitm import NitmConfig, _kernels_py, classic_problem, kernels, solvers
from nitm.errors import NitmError

FIXTURE = Path(__file__).with_name("golden_solves.json")

CONFIGS = {
    "default": {},
    "step 0.005": {"step": 0.005},
    "single boundary": {"boundary_schedule": (6.0,)},
}

# (variant, sign, star values); the classic problem takes no star value.
# The moving-wall -1 branch fails at b* = 1.0, and at 1.5 on a walked
# schedule; at the default step it solves down to b* = 1.683 (b = 1.0544),
# while 1.682 gets no lambda agreement and 1.681 breaks down. The -1
# branches of slip and classic blow up. Those rows pin the errors.
CASES = (
    ("classic", 1.0, (None,)),
    ("classic", -1.0, (None,)),
    ("moving-wall", 1.0, (-1.2, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0)),
    ("moving-wall", -1.0, (1.0, 1.5, 1.75, 2.0, 5.0)),
    ("slip", 1.0, (0.0, 0.5, 1.0, 2.0, 5.0)),
    ("slip", -1.0, (1.0,)),
    ("gasification", 1.0, (0.0, 0.5, 1.0, 2.0)),
)


def _hex(value):
    return None if value is None else float(value).hex()


def _table_digest(table) -> str:
    digest = hashlib.sha256()
    grid = table.grid
    digest.update(f"{_hex(grid.eta_max)} {_hex(grid.step)} {grid.nodes}".encode())
    for values in (table.f, table.fp, table.fpp):
        digest.update(values.tobytes())
    return digest.hexdigest()


def _record(res) -> dict:
    return {
        "lam": _hex(res.lam),
        "lambdas": [_hex(v) for v in res.lambdas],
        "eta_inf_star": _hex(res.eta_inf_star),
        "fp_inf_star": _hex(res.fp_inf_star),
        "physical_param": _hex(res.physical_param),
        "f0": _hex(res.f0),
        "fp0": _hex(res.fp0),
        "fpp0": _hex(res.fpp0),
        "table": _table_digest(res.table),
    }


def observe() -> list[dict]:
    """One entry per (config, variant, sign, star value), in a fixed order."""
    rows = []
    for name, kwargs in CONFIGS.items():
        config = NitmConfig(**kwargs)
        for variant, sign, stars in CASES:
            for star in stars:
                entry = {"config": name, "variant": variant, "sign": sign,
                         "star": star}
                try:
                    if variant == "classic":
                        res = solvers.solve_auxiliary(classic_problem(sign), config)
                    else:
                        res = solvers.solve_variant(variant, star, sign, config)
                except NitmError as exc:
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    entry["result"] = _record(res)
                rows.append(entry)
    return rows


@pytest.mark.parametrize("backend", ["active", "pure"])
def test_outputs_match_the_recorded_fixture(monkeypatch, backend):
    if backend == "pure":
        monkeypatch.setattr(kernels, "fill_blasius_family",
                            _kernels_py.fill_blasius_family)
    expected = json.loads(FIXTURE.read_text())
    observed = observe()
    assert len(observed) == len(expected)
    for got, want in zip(observed, expected):
        assert got == want


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(observe(), indent=1) + "\n")
