"""The layered benchmark's tracer still fits the package it patches.

benchmarks/layered/tracer.py wraps nitm functions by module attribute and
reads their call forms and results; a rename or a changed call form
would crash the traced benchmark run, so it is caught here.
"""

import importlib
from pathlib import Path

from nitm import analysis, kernels, solvers

LAYERED = Path(__file__).resolve().parent.parent / "benchmarks" / "layered"


def test_traced_run_checks_out_and_unpatches(monkeypatch):
    monkeypatch.syspath_prepend(str(LAYERED))
    tracer = importlib.import_module("tracer")
    modules = (kernels, solvers, analysis)
    before = [dict(vars(m)) for m in modules]

    with tracer.Tracer().installed() as traced:
        assert analysis.integrate is not before[2]["integrate"]
        # looked up on the modules, as the benchmark's workloads do
        solvers.solve_auxiliary(solvers.classic_problem())
        solvers.sweep("moving-wall", [-1.0, 0.5, 2.0])
        analysis.truncated_solution(2.0)
        analysis.series_deviation()

    assert traced.solve_checks() == ([], [])
    metrics = traced.metrics()
    # series_deviation steps its own kernel entry, and no call left in
    # the package goes through analysis.integrate or series_eval, which
    # stay patchable names all the same
    assert metrics["ode.integrate.calls"] == 0
    assert metrics["analysis.series_eval.calls"] == 0
    # sweep walks its rows together, by solvers._walk_stars and the batched
    # kernel entry, and never calls solve_auxiliary
    assert metrics["solvers.solve_auxiliary.calls"] == 1
    for module, attrs in zip(modules, before):
        for name, value in attrs.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name}"
