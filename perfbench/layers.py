"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps each layer's public function from outside the
package: every attribute of a loaded genlabel module that is bound to the
original function is rebound to a wrapper, so calls through ``from x import
f`` names are caught as well.  Nothing under src/ is edited, and untraced
runs never import this module.

Layer calls become spans (name, start, end, parent, report).  The set-up's
``graphs.generate`` calls are spanned by the worker itself, before the
wrappers go in, so that the draw counters do not slow them.  The hottest
leaves (``Stream.draw_many``, ``PolyFamily.set_elements`` and the scalar
draws) run tens of thousands of times per report, too often for a span each:
their time and counts are added to the innermost open span instead.  A
layer's time is counted at its outermost call only, so a checker that calls
another checker is not counted twice.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, function, metric that receives its time)
SPANNED = (
    ("graphs", "load_edge_list", "graphs.load_edge_list_s"),
    ("graphs", "line_graph", "graphs.line_graph_s"),
    ("runtime", "run_sync", "runtime.run_sync_s"),
    ("vertex_coloring", "generic_random_coloring", "vertex_coloring.random_coloring_s"),
    ("vertex_coloring", "generic_delta2_coloring", "vertex_coloring.delta2_coloring_s"),
    ("decomposition", "linial_saks", "decomposition.linial_saks_s"),
    ("edge_coloring", "edge_coloring_via_line_graph", "edge_coloring.line_graph_coloring_s"),
    ("edge_coloring", "simple_edge_coloring", "edge_coloring.edge_coloring_s"),
    ("edge_coloring", "maximal_matching", "edge_coloring.matching_s"),
    ("cli", "build_report", "cli.build_report_s"),
)


def _after_load(tracer, graph):
    tracer.count("graphs.edges", graph.m)


def _after_run_sync(tracer, report):
    tracer.count("runtime.run_sync_calls", 1)
    tracer.count("runtime.rounds", report.rounds)
    tracer.count("runtime.messages", report.messages_total)


def _after_linial_saks(tracer, clustering):
    tracer.count("decomposition.flood_messages", clustering.report.messages_total)
    tracer.count("decomposition.phases", clustering.phase_count)


AFTER = {
    "load_edge_list": _after_load,
    "run_sync": _after_run_sync,
    "linial_saks": _after_linial_saks,
}


class Tracer:
    """Spans and per-report sums of one traced workload process."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[dict] = []
        self.reports: list[dict] = []  # per-report metric sums
        self.setup: dict = defaultdict(float)
        self.sums = self.setup  # the bucket counts go to: set-up, then each report
        self._open: list[dict] = []
        self._depth: dict = defaultdict(int)
        self._distinct: set = set()

    # -- spans and counts

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter() - self.t0, "end": None,
                "parent": self._open[-1]["id"] if self._open else None,
                "report": len(self.reports) if self.sums is not self.setup else None,
                "counts": {}}
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> float:
        span["end"] = time.perf_counter() - self.t0
        self._open.pop()
        return span["end"] - span["start"]

    def count(self, metric: str, value) -> None:
        self.sums[metric] += value
        if self._open:
            counts = self._open[-1]["counts"]
            counts[metric] = counts.get(metric, 0) + value

    def begin_report(self) -> dict:
        self.sums = defaultdict(float)
        self._distinct = set()
        return self.begin("cli.main")

    def end_report(self, span: dict, out_path: str) -> None:
        wall = self.end(span)
        sums = self.sums
        sums["cli.serialize_s"] = (wall - sums["graphs.load_edge_list_s"]
                                   - sums["cli.build_report_s"])
        sums["cli.report_bytes"] = os.path.getsize(out_path)
        sums["coverfree.set_elements_distinct"] = len(self._distinct)
        sums["report_s"] = wall
        self.reports.append(dict(sums))
        self.sums = self.setup

    # -- wrappers

    def _spanned(self, fn, metric: str):
        tracer = self
        name = f"{fn.__module__.removeprefix('genlabel.')}.{fn.__name__}"
        after = AFTER.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._depth[metric] += 1
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.end(span)
                tracer._depth[metric] -= 1
            if not tracer._depth[metric]:
                tracer.sums[metric] += seconds
            if after is not None:
                after(tracer, result)
            return result
        return traced

    def _draw_many(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(stream, count, bound):
            t = time.perf_counter()
            values = fn(stream, count, bound)
            tracer.count("rng.draw_many_s", time.perf_counter() - t)
            tracer.count("rng.draw_many_values", count)
            return values
        return traced

    def _scalar(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(stream, *args):
            if tracer._depth["rng.scalar"]:
                return fn(stream, *args)
            tracer._depth["rng.scalar"] += 1
            try:
                return fn(stream, *args)
            finally:
                tracer._depth["rng.scalar"] -= 1
                tracer.count("rng.scalar_draws", 1)
        return traced

    def _set_elements(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(family, index):
            t = time.perf_counter()
            elements = fn(family, index)
            tracer.count("coverfree.set_elements_s", time.perf_counter() - t)
            tracer.count("coverfree.set_elements_calls", 1)
            tracer._distinct.add((family.q, family.d, index))
            return elements
        return traced

    def install(self) -> None:
        """Wrap every traced layer of the already imported genlabel package."""
        import genlabel.cli  # noqa: F401  (loads every module whose names are rebound)
        from genlabel import coverfree, verify
        from genlabel.rng import Stream

        modules = [m for name, m in sys.modules.items()
                   if name == "genlabel" or name.startswith("genlabel.")]

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

        for module_name, fn_name, metric in SPANNED:
            original = getattr(sys.modules[f"genlabel.{module_name}"], fn_name)
            rebind(original, self._spanned(original, metric))
        for fn_name, fn in list(vars(verify).items()):
            if fn_name.startswith("check_") and callable(fn):
                rebind(fn, self._spanned(fn, "verify.check_s"))
        Stream.draw_many = self._draw_many(Stream.draw_many)
        for fn_name in ("draw_uniform", "draw_u64", "geometric"):
            setattr(Stream, fn_name, self._scalar(getattr(Stream, fn_name)))
        coverfree.PolyFamily.set_elements = self._set_elements(
            coverfree.PolyFamily.set_elements)
