"""Benchmark of `genlabel run`: time reports on seeded workloads, check them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For each workload it starts worker.py processes one after another, each with
one thread: some that only set up, and one that sets up and then measures.  It prints every metric by name and unit, and as its last line one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 1`` the metrics are the per-layer ones of a traced run, and its
spans are written to perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_REPEATS = 5  # odd: the measuring process's own set-up is the middle one
WORKER_TIMEOUT_S = 120  # a hung worker still ends the run within 180 s


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, float]:
    """One workload's result object, and the median report time for the log."""
    work = WORK / name  # each run overwrites the last run's inputs and report
    base = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    measure = [*base, "--seconds", str(seconds)]
    if trace:
        res = run_worker([*measure, "--trace", str(WORK / f"trace-{name}-{seed}.json")])
        metrics = res["layers"]
    else:
        # Set-up alone runs before and after the measuring process, so that
        # its median does not come from one stretch of machine noise.
        setups = [run_worker([*base, "--setup-only"])["setup_s"]
                  for _ in range(SETUP_REPEATS // 2)]
        res = run_worker(measure)
        setups += [res["setup_s"]] + [run_worker([*base, "--setup-only"])["setup_s"]
                                      for _ in range(SETUP_REPEATS // 2)]
        times = res["report_s"]
        metrics = {
            "reports_per_s": (len(times) - res["failed"]) / sum(times),
            "report_s_p50": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    summary = {
        "correct": res["rejected"] == 0,
        "attempted": len(res["report_s"]),
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    return summary, statistics.median(res["report_s"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "genlabel" / "__init__.py").is_file():
        print(f"error: no genlabel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            res, p50 = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (WorkerFailed, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        traced = " (traced)" if args.trace else ""
        print(f"{name}{traced}: {res['attempted']} reports attempted, "
              f"{res['failed']} failed, median report {p50:.4f} s")
        for metric, m in res["metrics"].items():
            print(f"  {metric:38s} {m['value']:.6g} {m['unit']}")
        results[name] = res
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
