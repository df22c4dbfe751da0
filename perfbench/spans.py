"""In-memory spans around the public functions of each aoisim layer.

Nothing under src/ is changed: while a Tracer is installed, every module
attribute that refers to one of the traced functions is replaced by a
wrapper that records (name, parent span, start, end) and the counts the
layer returns. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns
from typing import NamedTuple

# (module, function, span name) at each layer boundary.
LAYERS = (
    ("aoisim.arrivals", "sample_path", "arrivals.sample_path"),
    ("aoisim.simkernel", "simulate_path", "simkernel.simulate_path"),
    ("aoisim.simkernel", "run_path", "simkernel.run_path"),
    ("aoisim.aoi_metrics", "accumulate_reward",
     "aoi_metrics.accumulate_reward"),
    ("aoisim.runner", "running_averages", "runner.running_averages"),
    ("aoisim.runner", "run_ensemble", "runner.run_ensemble"),
    ("aoisim.runner", "optimize_scalar", "search.optimize_scalar"),
    ("aoisim.cli", "main", "cli.main"),
)


def _count_arrivals(counts, arrivals):
    counts["generated"] += len(arrivals)


def _count_kernel(counts, result):
    epochs, wasted, infeasible, _ = result
    counts["updates"] += len(epochs)
    counts["infeasible"] += int(infeasible)
    counts["wasted"] += int(wasted)
    counts["epochs"] += len(epochs) + int(infeasible)


def _count_path(counts, _):
    counts["paths"] += 1


def _count_evaluation(counts, _):
    counts["evaluations"] += 1


COUNTERS = {
    "arrivals.sample_path": _count_arrivals,
    "simkernel.simulate_path": _count_kernel,
    "simkernel.run_path": _count_path,
}


class Tracer:
    """Spans as [name, parent index, start ns, end ns], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, self._stack[-1] if self._stack else -1,
                   perf_counter_ns(), 0]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[3] = perf_counter_ns()
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def _wrap_optimizer(self, fn):
        # The objective is a closure made per command, so it is wrapped
        # where it enters the search.
        traced = self.wrap("search.optimize_scalar", fn)

        def optimize_scalar(objective, *args, **kwargs):
            return traced(self.wrap("search.objective", objective,
                                    _count_evaluation), *args, **kwargs)
        return optimize_scalar

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "aoisim" or n.startswith("aoisim.")]
        for mod_name, attr, name in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            if name == "search.optimize_scalar":
                wrapper = self._wrap_optimizer(original)
            else:
                wrapper = self.wrap(name, original, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []


class Summary(NamedTuple):
    """Total and self time in ns per span name, and every run_path time."""

    total: Counter
    own: Counter
    path_ns: list


def summarize(spans: list[list]) -> Summary:
    """A span's self time is its duration minus the durations of its
    direct children; calls of one layer never overlap, so this is exact."""
    child = [0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    summary = Summary(Counter(), Counter(), [])
    for i, (name, _, t0, t1) in enumerate(spans):
        summary.total[name] += t1 - t0
        summary.own[name] += t1 - t0 - child[i]
        if name == "simkernel.run_path":
            summary.path_ns.append(t1 - t0)
    return summary


def write_csv(path, commands: list[list[list]]) -> None:
    with open(path, "w") as fh:
        fh.write("command,id,parent,name,start_ns,end_ns\n")
        for r, spans in enumerate(commands):
            for i, (name, parent, t0, t1) in enumerate(spans):
                fh.write(f"{r},{i},{parent},{name},{t0},{t1}\n")
