"""The benchmark's tracer (perfbench/layers.py) rebinds genlabel functions by
name from outside the package.  These tests run it in a child process over
six golden invocations: the traced reports must equal the goldens, and each
traced layer must record work, so a refactor that renames or bypasses a
rebound name fails here instead of silently zeroing a per-layer metric.

The fifth invocation, delta2-coloring on path:n=400, takes a reduction step:
the residual round counts polynomial roots and builds no point set, so only
the reduction steps still call ``PolyFamily.set_elements``.  The sixth,
cv3-expansion on a random tree, is computed from its schedule.  No
production path reaches ``run_sync``, so no ``runtime`` layer is required to
record."""

import json
import os
import subprocess
import sys
from pathlib import Path

import genlabel
from test_golden_reports import CASES

ROOT = Path(__file__).resolve().parents[1]
TAGS = ("random-coloring", "network-decomposition", "dominating-edge", "edge-delta2")
REDUCING = "run --algo delta2-coloring --gen path:n=400 --seed 0 --format json"
TRACED = [case for case in CASES for tag in TAGS
          if case[0].startswith(f"run --algo {tag} ") and "--seed 0 --format json" in case[0]]
FOREST = "run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 0 --format json"
TRACED += [case for case in CASES if case[0] in (REDUCING, FOREST)]
LAYERS = ("decomposition.linial_saks_s",
          "decomposition.flood_messages", "decomposition.phases", "graphs.line_graph_s",
          "coverfree.set_elements_calls", "verify.check_s",
          "vertex_coloring.random_coloring_s", "vertex_coloring.delta2_coloring_s",
          "edge_coloring.line_graph_coloring_s", "edge_coloring.edge_coloring_s",
          "edge_coloring.matching_s")

CHILD = """
import hashlib, json, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from layers import Tracer
tracer = Tracer(time.perf_counter())
tracer.install()
from genlabel.cli import main
results = []
for i, command in enumerate(json.loads(sys.argv[3])):
    out = Path(sys.argv[2]) / str(i)
    code = main(command.split() + ["--out", str(out)])
    results.append([code, hashlib.sha256(out.read_bytes()).hexdigest()])
print(json.dumps({"results": results, "setup": tracer.setup}))
"""


def test_traced_reports_match_goldens_and_layers_record(tmp_path):
    assert len(TRACED) == len(TAGS) + 2
    src = Path(genlabel.__file__).resolve().parents[1]
    commands = [command for command, _, _ in TRACED]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(tmp_path),
         json.dumps(commands)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["results"] == [[code, digest] for _, code, digest in TRACED]
    for metric in LAYERS:
        assert traced["setup"].get(metric, 0) > 0, metric
