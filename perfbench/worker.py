"""One workload process of the benchmark (started by run.py).

It sets up the cycle's inputs -- imports genlabel from the checkout's src/,
generates the cycle's graphs and writes them as edge lists -- and with
``--setup-only`` stops there.  Otherwise it then calls
``genlabel.cli.main(["run", ...])`` on the cycle's reports, whole cycles at a
time, for about ``--seconds`` seconds, checks every report with checks.py,
and prints one JSON object with the raw samples as its last line.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before genlabel is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--work", required=True, help="directory for inputs and reports")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", help="traced run: write spans as JSON here")
    return p.parse_args(argv)


def import_genlabel():
    """Import genlabel from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import genlabel

    if Path(genlabel.__file__).resolve().parent != SRC / "genlabel":
        raise SystemExit(f"genlabel was imported from {genlabel.__file__}, not {SRC}")


def setup(wl, seed: int, work: Path, tracer) -> list[Path]:
    from genlabel import graphs

    work.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(wl.graphs):
        spec = graphs.GeneratorSpec("gnp", wl.n, p=wl.degree / wl.n,
                                    seed=wl.graph_seed(seed, i))
        span = tracer.begin("graphs.generate") if tracer else None
        g = graphs.generate(spec)
        if tracer:
            tracer.sums["graphs.generate_s"] += tracer.end(span)
        path = work / f"graph{i}.edges"
        path.write_text(graphs.dump_edge_list(g))
        files.append(path)
    return files


def measure(wl, seed: int, seconds: float, files: list[Path], work: Path, tracer):
    from checks import Rejected, check_report, read_edge_list
    from genlabel.cli import main

    inputs = [read_edge_list(f.read_text()) for f in files]
    out = work / "report.json"
    times, failed, rejected = [], 0, 0
    start = time.perf_counter()
    cycles = 0
    while True:
        for gi, algo_seed in wl.cycle(seed):
            argv = ["run", "--algo", wl.algo, "--graph", str(files[gi]),
                    "--seed", str(algo_seed), "--out", str(out), *wl.param_args()]
            gc.collect()
            span = tracer.begin_report() if tracer else None
            t = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crashing report is a failed one; keep measuring
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - t
            if tracer:
                tracer.end_report(span, str(out))
            times.append(wall)
            if code != 0:
                failed += 1
                print(f"report {argv} exited {code}", file=sys.stderr)
                continue
            doc = json.loads(out.read_text())
            if doc.get("status") != "ok":
                failed += 1
                print(f"report {argv} has status {doc.get('status')!r}", file=sys.stderr)
                continue
            try:
                check_report(doc, inputs[gi], wl.algo, wl.params)
            except Rejected as exc:
                failed += 1
                rejected += 1
                print(f"report {argv} rejected: {exc}", file=sys.stderr)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:  # end nearest to `seconds`
            return times, failed, rejected


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import PER_LAYER, WORKLOADS

    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    tracer = None
    import_genlabel()
    if args.trace:
        from layers import Tracer

        tracer = Tracer(T0)
    files = setup(wl, args.seed, work, tracer)
    setup_s = time.perf_counter() - T0
    if tracer:
        tracer.install()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        times, failed, rejected = measure(
            wl, args.seed, args.seconds, files, work, tracer)
        result.update(report_s=times, failed=failed, rejected=rejected,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            layers = {name: statistics.median(r.get(name, 0.0) for r in tracer.reports)
                      for name, _, _ in PER_LAYER}
            layers["graphs.generate_s"] = tracer.setup["graphs.generate_s"]
            result["layers"] = layers
            Path(args.trace).write_text(json.dumps({
                "workload": wl.name, "seed": args.seed, "setup": dict(tracer.setup),
                "reports": tracer.reports, "spans": tracer.spans}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
