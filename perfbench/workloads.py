"""Workloads and metric names of the `genlabel run` benchmark.

This module does not import genlabel: the orchestrating process (run.py) and
the tests read it without loading the program under test.

A workload fixes one algorithm, one G(n, d/n) size and a cycle of reports.
The cycle is a list of (graph index, algorithm seed) pairs that every run
walks in the same order, whole cycles at a time; the workload seed given on
the command line only picks which graphs and algorithm seeds fill it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    n: int
    degree: float  # expected degree: the generator spec is gnp with p = degree / n
    params: dict  # passed as --param key=value; the checks read them too
    graphs: int  # distinct graphs in one cycle
    algo_seeds: int  # algorithm seeds run on each graph, per cycle
    why: str

    def graph_seed(self, seed: int, i: int) -> int:
        return seed * 1000 + i

    def cycle(self, seed: int) -> list[tuple[int, int]]:
        """The reports of one cycle, as (graph index, algorithm seed)."""
        return [(i, seed * 1000 + 500 + j)
                for i in range(self.graphs) for j in range(self.algo_seeds)]

    def param_args(self) -> list[str]:
        args = []
        for key, value in self.params.items():
            args += ["--param", f"{key}={value}"]
        return args


WORKLOADS = {w.name: w for w in (
    Workload(
        name="one-round-coloring", algo="random-coloring", n=10000, degree=8.0,
        params={"c": 4.0}, graphs=4, algo_seeds=1,
        why="one wide run_sync round with draw_many on every node, a 40k-edge "
            "load and a 6 MB report; no clustering, no cover-free sets"),
    Workload(
        name="network-decomposition", algo="network-decomposition", n=2048,
        degree=6.0, params={"c": 12}, graphs=4, algo_seeds=1,
        why="the centralised Linial-Saks sweep with scalar geometric draws and "
            "BFS certification; bypasses run_sync and draw_many"),
    Workload(
        name="dominating-edge", algo="dominating-edge", n=2000, degree=8.0,
        params={"c": 3, "t": 3}, graphs=4, algo_seeds=2,
        why="long, narrow run_sync use: about 20 proposal rounds on the line "
            "graph, then per-class matchings with most nodes halted"),
    Workload(
        name="edge-delta2", algo="edge-delta2", n=250, degree=8.0,
        params={}, graphs=12, algo_seeds=1,
        why="the only workload where coverfree works: set_elements on the line "
            "graph dominates, with a two-round run_sync"),
)}

# (name, unit, better); the end-to-end metrics come from untraced runs.
END_TO_END = (
    ("reports_per_s", "1/s", "higher"),
    ("report_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Per-report sums from the traced run, reported as medians over its reports;
# graphs.generate_s is the set-up's total instead.
PER_LAYER = (
    ("graphs.generate_s", "s", "lower"),
    ("graphs.load_edge_list_s", "s", "lower"),
    ("graphs.edges", "count", "lower"),
    ("graphs.line_graph_s", "s", "lower"),
    ("rng.draw_many_s", "s", "lower"),
    ("rng.draw_many_values", "count", "lower"),
    ("rng.scalar_draws", "count", "lower"),
    ("runtime.run_sync_s", "s", "lower"),
    ("runtime.run_sync_calls", "count", "lower"),
    ("runtime.rounds", "count", "lower"),
    ("runtime.messages", "count", "lower"),
    ("vertex_coloring.random_coloring_s", "s", "lower"),
    ("vertex_coloring.delta2_coloring_s", "s", "lower"),
    ("decomposition.linial_saks_s", "s", "lower"),
    ("decomposition.flood_messages", "count", "lower"),
    ("decomposition.phases", "count", "lower"),
    ("edge_coloring.line_graph_coloring_s", "s", "lower"),
    ("edge_coloring.edge_coloring_s", "s", "lower"),
    ("edge_coloring.matching_s", "s", "lower"),
    ("coverfree.set_elements_s", "s", "lower"),
    ("coverfree.set_elements_calls", "count", "lower"),
    ("coverfree.set_elements_distinct", "count", "lower"),
    ("verify.check_s", "s", "lower"),
    ("cli.build_report_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
)
