"""Spans around nitm's public functions, and the per-layer metrics they give.

The tracer patches each function at the module attribute through which
callers look it up, so the package itself is untouched:

- ``nitm.kernels.fill_blasius_family``, read by solvers and ode on every call;
- ``nitm.solvers.solve_auxiliary``, which the drivers reach through the
  variant solvers;
- ``nitm.solvers.rescale``, ``lambda_from_asymptote`` and
  ``lambda_moving_wall``, and ``nitm.analysis.rescale``;
- ``nitm.analysis.integrate``, which analysis imports by name;
- the drivers ``sweep``, ``find_critical_b`` and ``find_star_for_target``
  and the analysis entry points.

``nitm.analysis.series_eval`` runs once per grid node, so it is counted
but gets no span. Spans stay in memory until the run writes them out.
"""

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from nitm import analysis, kernels, solvers

# arithmetic of one RK4 step of the Blasius-family fill (_kernels_py):
# 4 stages x (2 flops for -beta*f*f'' + 6 for the stage state) minus the
# last stage state, plus 3 x 6 for the update
FLOPS_PER_STEP = 44
BYTES_WRITTEN_PER_STEP = 3 * 8

NAME, START, END, PARENT, TASK, INFO = range(6)
SOLVE = "solvers.solve_auxiliary"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.task_id = None
        self._stack = []
        self._patches = []
        self._default_config = solvers.NitmConfig()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.task_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        span = self._open(name)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr, name, info=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[INFO] = {"raised": type(exc).__name__}
                raise
            finally:
                self._stack.pop()
            span[END] = time.perf_counter()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        self._patch(module, attr, original, traced)

    def _count(self, module, attr, name):
        original = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, original, counted)

    def _patch(self, module, attr, original, replacement):
        self._patches.append((module, attr, original))
        setattr(module, attr, replacement)

    def _fill_info(self, args, kwargs, bad):
        start, stop = args[5], args[6]
        return {"steps": (stop if bad < 0 else bad) - start, "blowup": bad >= 0}

    def _solve_info(self, args, kwargs, res):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        config = config or self._default_config
        schedule = config.boundary_schedule
        # boundaries walked up to and including the accepted one
        walked = 1 if len(schedule) == 1 else schedule.index(res.eta_inf_star) + 1
        return {"eta": res.eta_inf_star, "step": config.step,
                "schedule": schedule, "walked": walked}

    @staticmethod
    def _integrate_info(args, kwargs, table):
        return {"nodes": table.grid.nodes}

    @contextmanager
    def installed(self):
        """Patch nitm for the duration of the block."""
        self._wrap(kernels, "fill_blasius_family", "kernels.fill", self._fill_info)
        self._wrap(solvers, "solve_auxiliary", SOLVE, self._solve_info)
        for attr in ("sweep", "find_critical_b", "find_star_for_target"):
            self._wrap(solvers, attr, f"solvers.{attr}")
        self._wrap(solvers, "rescale", "scaling.rescale")
        self._wrap(analysis, "rescale", "scaling.rescale")
        for attr in ("lambda_from_asymptote", "lambda_moving_wall"):
            self._wrap(solvers, attr, "scaling.lambda")
        self._wrap(analysis, "integrate", "ode.integrate", self._integrate_info)
        for attr in ("series_deviation", "truncated_solution", "rubel_bound"):
            self._wrap(analysis, attr, f"analysis.{attr}")
        self._count(analysis, "series_eval", "analysis.series_eval")
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def write(self, path):
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                      "end": s[END], "parent": s[PARENT],
                                      "task": s[TASK], "info": s[INFO]}) + "\n")

    # -- analysis ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        by_name = defaultdict(list)
        child_time = defaultdict(float)
        for i, s in enumerate(spans):
            by_name[s[NAME]].append(i)
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]

        def calls(name):
            return len(by_name[name])

        def busy(name):
            return sum(spans[i][END] - spans[i][START] for i in by_name[name])

        def self_s(name):
            return busy(name) - sum(child_time[i] for i in by_name[name])

        def has_ancestor(i, name):
            i = spans[i][PARENT]
            while i >= 0:
                if spans[i][NAME] == name:
                    return True
                i = spans[i][PARENT]
            return False

        def per_call(name, outer):
            inner = sum(has_ancestor(i, outer) for i in by_name[name])
            return inner / calls(outer) if calls(outer) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        fills = [spans[i][INFO] for i in by_name["kernels.fill"]]
        steps = sum(f["steps"] for f in fills)
        ok = [spans[i][INFO] for i in by_name[SOLVE] if "eta" in spans[i][INFO]]
        useful = sum(round(s["eta"] / s["step"]) + 1 for s in ok)
        allocated = sum(round(s["schedule"][-1] / s["step"]) + 1 for s in ok)
        m = {
            "kernels.calls": calls("kernels.fill"),
            "kernels.steps": steps,
            "kernels.steps_per_call": ratio(steps, len(fills)),
            "kernels.busy_s": busy("kernels.fill"),
            "kernels.steps_per_s": ratio(steps, busy("kernels.fill")),
            "kernels.blowups": sum(f["blowup"] for f in fills),
            "kernels.flops_computed": FLOPS_PER_STEP * steps,
            "kernels.bytes_written_computed": BYTES_WRITTEN_PER_STEP * steps,
            f"{SOLVE}.calls": calls(SOLVE),
            f"{SOLVE}.busy_s": busy(SOLVE),
            f"{SOLVE}.self_s": self_s(SOLVE),
            f"{SOLVE}.overhead_us": 1e6 * ratio(self_s(SOLVE), calls(SOLVE)),
            f"{SOLVE}.failures": ratio(calls(SOLVE) - len(ok), calls(SOLVE)),
            f"{SOLVE}.boundaries_walked": ratio(sum(s["walked"] for s in ok), len(ok)),
            f"{SOLVE}.nodes_useful_ratio": ratio(useful, allocated),
        }
        for driver in ("sweep", "find_critical_b", "find_star_for_target"):
            name = f"solvers.{driver}"
            m[f"{name}.busy_s"] = busy(name)
            m[f"{name}.solves_per_call"] = per_call(SOLVE, name)
        for layer in ("scaling.rescale", "scaling.lambda"):
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.busy_s"] = busy(layer)
        integ = "ode.integrate"
        m[f"{integ}.calls"] = calls(integ)
        m[f"{integ}.nodes"] = sum(spans[i][INFO]["nodes"] for i in by_name[integ]
                                  if "nodes" in spans[i][INFO])
        m[f"{integ}.busy_s"] = busy(integ)
        m[f"{integ}.self_s"] = self_s(integ)
        m["analysis.series_deviation.busy_s"] = busy("analysis.series_deviation")
        m["analysis.series_deviation.self_s"] = self_s("analysis.series_deviation")
        m["analysis.series_eval.calls"] = self.counts["analysis.series_eval"]
        m["analysis.truncated_solution.busy_s"] = busy("analysis.truncated_solution")
        m["analysis.truncated_solution.integrate_per_call"] = per_call(
            integ, "analysis.truncated_solution")
        m["analysis.rubel_bound.calls"] = calls("analysis.rubel_bound")
        m["cli.main_s"] = ratio(busy("cli.main"), calls("cli.main"))
        m["cli.solves_per_command"] = per_call(SOLVE, "cli.main")
        return m

    def per_task_kind(self, name):
        """Mean number of `name` spans under one task, per task kind."""
        spans = self.spans
        tasks, found = Counter(), Counter()
        for s in spans:
            if s[PARENT] < 0:
                tasks[s[NAME]] += 1
            elif s[NAME] == name:
                root = s
                while root[PARENT] >= 0:
                    root = spans[root[PARENT]]
                found[root[NAME]] += 1
        return {kind: found[kind] / n for kind, n in sorted(tasks.items())}

    def solve_checks(self):
        """Solves whose traced kernel work disagrees with what their result implies.

        A solve accepted at eta_inf_star integrated eta_inf_star/step steps;
        on the seed it also made one kernel call per boundary walked. Returns
        (step mismatches, call mismatches) as lists of span indices.
        """
        solve_fills = self._solve_fills()
        steps_off, calls_off = [], []
        for i, s in enumerate(self.spans):
            if s[NAME] != SOLVE or "eta" not in s[INFO]:
                continue
            info = s[INFO]
            fills = solve_fills[i]
            if sum(self.spans[j][INFO]["steps"] for j in fills) != round(
                    info["eta"] / info["step"]):
                steps_off.append(i)
            if len(fills) != info["walked"]:
                calls_off.append(i)
        return steps_off, calls_off

    def _solve_fills(self):
        """Kernel-fill spans made directly by each solve, by solve span index."""
        fills = defaultdict(list)
        for i, s in enumerate(self.spans):
            if (s[NAME] == "kernels.fill" and s[PARENT] >= 0
                    and self.spans[s[PARENT]][NAME] == SOLVE):
                fills[s[PARENT]].append(i)
        return fills
