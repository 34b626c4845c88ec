"""Layered benchmark for nitm: timed end-to-end runs and a traced run.

Run from the root of a checkout:

    python3 benchmarks/layered/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 benchmarks/layered/run.py --workload all --seed 1 --seconds 40 --trace 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of the workload, --trace 1 the per-layer ones.
See benchmarks/layered/README.md.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "fine", "cli")
OUT = ROOT / ".bench_build" / "layered"

SETUP_REPEATS = 9
PROBE_REPEATS = 3
REF_LOOP_ITERATIONS = 1_000_000
# the fixed fill of the kernel microbenchmark: classic auxiliary problem
# from (0, 0, 1), 800k RK4 steps of h = 1e-5, best of FILL_REPEATS
FILL_BETA, FILL_STEP, FILL_STEPS, FILL_REPEATS = 0.5, 1e-5, 800_000, 3

# the launcher a `nitm` console script runs
CLI_LAUNCH = "import sys; from nitm.cli import main; sys.exit(main())"
SETUP_CODE = {
    "library": "import nitm; nitm.solvers.solve_auxiliary(nitm.solvers.classic_problem())",
    "cli": ("import sys; from nitm.cli import main; "
            "sys.stdout = open(__import__('os').devnull, 'w'); "
            "sys.exit(main(['blasius']))"),
}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nitm.cli; "
                "print(time.perf_counter() - t)")


def fail(message):
    print(f"benchmarks/layered: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("NITM_PURE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_nitm():
    if not (SRC / "nitm" / "__init__.py").is_file():
        fail(f"no nitm package under {SRC}; run from the root of a nitm checkout")
    os.environ.pop("NITM_PURE", None)
    sys.path.insert(0, str(SRC))
    import nitm
    if Path(nitm.__file__).resolve().parent != (SRC / "nitm").resolve():
        fail(f"imported nitm from {nitm.__file__}, not from {SRC}")
    return nitm


# ---------------------------------------------------------------------------
# host and process probes


def ref_loop_s():
    """A fixed pure-Python loop: a machine-speed probe, never a normaliser."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i & 7
    return time.perf_counter() - start


def spawn_wall_s(code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def import_s():
    times = []
    for _ in range(PROBE_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                             cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_cli_process(argv, rss_kb):
    """One `nitm` command as a fresh process; returns (exit code, stdout)."""
    proc = subprocess.Popen([sys.executable, "-c", CLI_LAUNCH, *argv],
                            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss_kb.append(usage.ru_maxrss)
    return proc.returncode, out.decode()


def run_cli_in_process(argv, tracer=None):
    from nitm import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            code = cli.main(list(argv))
        else:
            with tracer.span("cli.main"):
                code = cli.main(list(argv))
    return code, out.getvalue()


def metadata(nitm, workload, seed):
    from nitm import kernels
    try:
        from nitm import _kernels  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "backend": kernels.BACKEND,
            "compiled_importable": compiled, "python": platform.python_version(),
            "numpy": numpy.__version__, "nitm": nitm.__version__,
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# running tasks


def execute(task, failures):
    """Run one task; returns (seconds, ok). Failures are recorded, not raised."""
    start = time.perf_counter()
    try:
        result = task.call()
    except Exception as exc:  # any exception is a failed task, never a crash
        elapsed = time.perf_counter() - start
        failures.append(f"{task.kind}: {type(exc).__name__}: {exc}")
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        task.check(result)
    except Exception as exc:  # a wrong or malformed result
        failures.append(f"{task.kind}: {type(exc).__name__}: {exc}")
        return elapsed, False
    return elapsed, True


def timed_run(workload, seed, seconds):
    import workloads
    from nitm import solvers
    rss_kb = []
    stream = workloads.cycles(workload, random.Random(seed),
                              lambda argv: run_cli_process(argv, rss_kb))
    if workload != "cli":
        solvers.solve_auxiliary(solvers.classic_problem())  # warm-up
    setup_code = SETUP_CODE["cli" if workload == "cli" else "library"]
    latencies, cycle_p50, cycle_p90, setups, failures = [], [], [], [], []
    correct = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        # set-up samples spread over the run, between cycles, so that
        # they see the same machine states as the tasks
        if time.perf_counter() >= start + len(setups) * seconds / SETUP_REPEATS:
            setups.append(spawn_wall_s(setup_code))
        cycle = []
        for task in next(stream):
            elapsed, ok = execute(task, failures)
            cycle.append(elapsed)
            correct += ok
        latencies.extend(cycle)
        deciles = statistics.quantiles(cycle, n=10, method="inclusive")
        cycle_p50.append(deciles[4])
        cycle_p90.append(deciles[8])
    if workload == "cli":
        peak_kb = max(rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "tasks_per_s": correct / sum(latencies),
        # percentiles within each cycle, averaged over the run: unlike a
        # percentile of the pooled latencies, this does not jump when the
        # share of time the machine spends at a slower speed crosses it
        "task_p50_ms": 1e3 * statistics.fmean(cycle_p50),
        "task_p90_ms": 1e3 * statistics.fmean(cycle_p90),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    notes = {"tasks": len(latencies), "cycles": len(cycle_p50), "setups": len(setups),
             "failed_frac": len(failures) / len(latencies)}
    return metrics, len(latencies), failures, notes


def fill_microbench(failures):
    """Fixed fill on every importable backend; backends must agree bitwise."""
    import numpy as np
    from nitm import _kernels_py, kernels
    backends = {"pure": _kernels_py.fill_blasius_family}
    try:
        from nitm import _kernels
        backends["compiled"] = _kernels.fill_blasius_family
    except ImportError:
        pass
    rates, arrays = {}, {}
    for name, fill in backends.items():
        f, fp, fpp = (np.empty(FILL_STEPS + 1) for _ in range(3))
        best = float("inf")
        for _ in range(FILL_REPEATS):
            f[0], fp[0], fpp[0] = 0.0, 0.0, 1.0
            start = time.perf_counter()
            bad = fill(FILL_BETA, f, fp, fpp, FILL_STEP, 0, FILL_STEPS)
            best = min(best, time.perf_counter() - start)
            if bad != -1:
                failures.append(f"fill {name}: blew up at node {bad}")
        rates[name] = FILL_STEPS / best
        arrays[name] = (f, fp, fpp)
    if "compiled" in arrays and not all(
            np.array_equal(a, b) for a, b in zip(arrays["pure"], arrays["compiled"])):
        failures.append("fill: compiled and pure backends disagree bitwise")
    rates["active"] = rates["compiled" if kernels.BACKEND == "compiled" else "pure"]
    return rates, len(backends)


def seed_counts():
    """Counts the traced run reports, not gates: later changes may lower them."""
    from nitm import analysis, solvers
    from tracer import Tracer
    t = Tracer()
    with t.installed():
        with t.span("check.classic"):
            solvers.solve_auxiliary(solvers.classic_problem())
        fills = t.metrics()["kernels.calls"]
        with t.span("check.critical"):
            solvers.find_critical_b()
        with t.span("check.truncated"):
            analysis.truncated_solution(4.0)
    m = t.metrics()
    return {"classic_default.kernel_calls": fills,
            "find_critical_b_default.solves": m["solvers.find_critical_b.solves_per_call"],
            "truncated_solution_4.integrates":
                m["analysis.truncated_solution.integrate_per_call"]}


def run_pass(tasks, failures, tracer=None):
    """Run a task list once; returns tasks per second of summed task time."""
    busy = 0.0
    for task_id, task in enumerate(tasks):
        if tracer is None:
            elapsed, _ = execute(task, failures)
        else:
            tracer.task_id = task_id
            with tracer.span(f"task.{task.kind}"):
                elapsed, _ = execute(task, failures)
        busy += elapsed
    return len(tasks) / busy


def host_probes(failures):
    """Work that no workload changes, measured once, in the cli traced run:
    the fill microbenchmark, the seed counts and the process probes."""
    fill_rates, fills = fill_microbench(failures)
    metrics = {
        "kernels.fill_steps_per_s.pure": fill_rates["pure"],
        "kernels.fill_steps_per_s.active": fill_rates["active"],
        "cli.interpreter_s": statistics.median(
            spawn_wall_s("pass") for _ in range(PROBE_REPEATS)),
        "cli.import_s": import_s(),
    }
    notes = {"seed_counts": seed_counts()}
    if "compiled" in fill_rates:
        notes["kernels.fill_steps_per_s.compiled"] = fill_rates["compiled"]
    return metrics, fills, notes


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced passes over one fixed task set."""
    import workloads
    from tracer import Tracer
    failures = []
    if workload == "cli":
        probes, attempted, notes = host_probes(failures)
    else:
        # reported by the cli workload alone
        probes = dict.fromkeys(("kernels.fill_steps_per_s.pure",
                                "kernels.fill_steps_per_s.active",
                                "cli.interpreter_s", "cli.import_s"), 0.0)
        attempted, notes = 0, {}

    def task_set(tracer):
        run_cli = lambda argv: run_cli_in_process(argv, tracer)  # noqa: E731
        return next(workloads.cycles(workload, random.Random(seed), run_cli))

    untraced, traced, layer = [], [], []
    deadline = time.perf_counter() + seconds
    while not layer or time.perf_counter() < deadline:
        untraced.append(run_pass(task_set(None), failures))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(task_set(tracer), failures, tracer))
        steps_off, calls_off = tracer.solve_checks()
        if steps_off:
            failures.append(f"tracer: {len(steps_off)} solves traced kernel steps "
                            f"other than eta_inf_star/step")
        layer.append(tracer.metrics())
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")

    exact = [k for k in layer[0] if not k.endswith(("_s", "_us"))]
    for m in layer[1:]:
        changed = [k for k in exact if m[k] != layer[0][k]]
        if changed:
            failures.append(f"traced counts differ between passes: {changed}")
    metrics = {k: v if k in exact else statistics.median(m[k] for m in layer)
               for k, v in layer[0].items()}
    metrics.update(probes)
    untraced, traced = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_frac"] = untraced / traced - 1.0
    tasks = len(task_set(None))
    attempted += 2 * tasks * len(layer)
    notes.update({"passes": len(layer), "tasks_per_pass": tasks,
                  "untraced_tasks_per_s": untraced, "traced_tasks_per_s": traced,
                  "solves_per_task_kind":
                      tracer.per_task_kind("solvers.solve_auxiliary"),
                  "solves_with_calls_other_than_boundaries_walked": len(calls_off)})
    return metrics, attempted, failures, notes


# ---------------------------------------------------------------------------


def units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args):
    nitm = load_nitm()
    sys.path.insert(0, str(HERE))
    meta = metadata(nitm, args.workload, args.seed)
    ref_start = ref_loop_s()
    run = traced_run if args.trace else timed_run
    values, attempted, failures, notes = run(args.workload, args.seed, args.seconds)
    ref_end = ref_loop_s()
    meta["host.ref_loop_s"] = {"start": ref_start, "end": ref_end}
    if args.trace:
        values["host.ref_loop_s"] = 0.5 * (ref_start + ref_end)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units(args.trace).items()}
    print(json.dumps({"meta": meta, "notes": notes}))
    for name, m in metrics.items():
        print(f"{args.workload:7s} {name:50s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:7s} {'host.ref_loop_s (start, end)':50s} "
          f"{ref_start:.4f} {ref_end:.4f} s")
    if not args.trace:
        print(f"{args.workload:7s} {'failed_frac':50s} {notes['failed_frac']:14.6g} "
              f"(of {attempted} tasks)")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def run_all(args):
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        if not (SRC / "nitm" / "__init__.py").is_file():
            fail(f"no nitm package under {SRC}")
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
