"""Command-line front end: generate or load graphs, run any algorithm with a
seed, verify the output with the matching checkers, and emit stable reports.

Exit codes: 0 ok, 1 verdict failure, 2 configuration error, 3 incomplete or
failed run.  Reports are pure functions of (config, input files): rerunning
the same invocation reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from . import verify
from .decomposition import (
    ArboricityError,
    arboricity_generic_coloring,
    default_radius_cap,
    forest_decomposition,
    generic_network_decomposition,
)
from .edge_coloring import (
    dominating_edge_coloring,
    edge_coloring_via_line_graph,
    kuhn_defective_edge_coloring,
)
from .graphs import GENERATOR_KINDS, GeneratorSpec, Graph, generate, load_edge_list, orient_forest
from .labels import IntLists, LabelDomain
from .runtime import RunReport, collector_paused
from .vertex_coloring import (
    InvariantError,
    cole_vishkin_3coloring,
    expand_to_generic,
    generic_defective_coloring,
    generic_delta2_coloring,
    generic_random_coloring,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parameter parsing


def _typed(kind: type, value: str, name: str):
    """``kind(value)``, or a ConfigError saying that ``name=value`` is not one."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{name}={value!r} is not a {kind.__name__}") from exc


def parse_params(tag: str, pairs: list[str]) -> dict:
    if tag not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm tag {tag!r}; known: {sorted(ALGORITHMS)}")
    schema = ALGORITHMS[tag].schema
    params: dict = {}
    for raw in pairs:
        if "=" not in raw:
            raise ConfigError(f"--param expects key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        if key not in schema:
            raise ConfigError(f"unknown parameter {key!r} for {tag}; "
                              f"allowed: {sorted(schema)}")
        params[key] = _typed(schema[key][0], value, f"parameter {key}")
    for key, (_, required) in schema.items():
        if required and key not in params:
            raise ConfigError(f"{tag} requires parameter {key}")
    return params


_GEN_FIELDS = {"n": int, "p": float, "a": int, "max_deg": int, "seed": int}


def parse_gen_spec(text: str) -> GeneratorSpec:
    """Parse 'kind:k=v,k=v' (e.g. gnp:n=1024,p=0.01 or forest-union:n=64,a=2)."""
    kind, _, rest = text.partition(":")
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator {kind!r}; known: {GENERATOR_KINDS}")
    fields: dict = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"generator spec expects k=v items, got {item!r}")
            key, value = item.split("=", 1)
            if key not in _GEN_FIELDS:
                raise ConfigError(f"unknown generator field {key!r}")
            fields[key] = _typed(_GEN_FIELDS[key], value, f"generator field {key}")
    if "n" not in fields:
        raise ConfigError("generator spec requires n")
    spec = GeneratorSpec(kind=kind, **fields)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


# ---------------------------------------------------------------------------
# runners: each executes one algorithm and its checkers and returns
# (report body, verdicts).  A tag's schema keys are its entry point's keywords,
# so a runner passes **params and every default lives in the entry point's
# signature.  Runners look up the entry points and verify.check_* by
# module-global name at call time, so a tracer that rebinds those names sees
# every call.


def _body(params: dict, report: RunReport, verdicts, labels: LabelDomain | None = None,
          failed=(), metrics: dict | None = None, **fields) -> dict:
    """The shared report body: params, run, failed, the tag's own fields,
    labels, metrics.  Given per-entity label domains, they are listed and the
    metrics are verify.metrics over them followed by the extra entries in
    ``metrics``; without, ``metrics`` is the whole metrics document."""
    doc = {"params": dict(params), "run": report.to_document(),
           "failed": list(failed), **fields}
    if labels is not None:
        doc["labels"] = labels.to_document()
        metrics = {**verify.metrics(labels.palette, labels.sizes(), verdicts), **(metrics or {})}
    doc["metrics"] = metrics
    return doc


def _disjoint(g: Graph, seed: int, params: dict, entry: str, check: str, **fixed):
    """Run the entry point named ``entry`` and the one disjointness checker
    named ``check`` on its domains; both names are looked up at call time."""
    res = globals()[entry](g, seed=seed, **params, **fixed)
    verdicts = [getattr(verify, check)(g, res.domains)]
    return _body(res.params, res.report, verdicts, res.domains, res.failed), verdicts


def _delta2_coloring(g: Graph, seed: int, params: dict):
    res = generic_delta2_coloring(g, **params)
    floor = max(1, params.get("delta") or g.max_degree or 1)
    verdicts = [verify.check_domains_disjoint(g, res.domains),
                verify.check_domain_floor(res.domains, floor)]
    return _body(res.params, res.report, verdicts, res.domains, res.failed), verdicts


def _defective_coloring(g: Graph, seed: int, params: dict):
    res = generic_defective_coloring(g, **params)
    verdict, worst = verify.check_defective_domains(g, res.domains, params["p"])
    return _body(res.params, res.report, [verdict], res.domains, res.failed,
                 {"measured_defect": worst}), [verdict]


def _cv3_expansion(g: Graph, seed: int, params: dict):
    colored = cole_vishkin_3coloring(g, orient_forest(g))
    delta = params.get("delta", max(g.max_degree, 1))
    dom = expand_to_generic(colored.colors, delta)
    verdicts = [verify.check_proper_vertex(g, colored.colors),
                verify.check_domains_disjoint(g, dom)]
    # v's domain is {x < palette : x % 3 == colors[v]}, so it is not listed
    return _body({**colored.params, "delta": delta}, colored.report, verdicts,
                 colors=list(colored.colors),
                 metrics=verify.metrics(dom.palette, dom.sizes(), verdicts)), verdicts


def _network_decomposition(g: Graph, seed: int, params: dict):
    params = dict(params)
    budget = params.pop("label_budget", None)
    radius_cap = params.pop("B", None)
    if budget is not None and budget < 1:
        raise ConfigError(f"label_budget must be >= 1, got {budget}")
    res = generic_network_decomposition(g, seed=seed, radius_cap=radius_cap, **params)
    # the verifier's inputs come from the invocation; 2 is the entry point's c
    bound = 2 * (default_radius_cap(g.n) if radius_cap is None else radius_cap)
    if budget is None:
        budget = params.get("c", 2) * max(1, math.ceil(4 * math.log2(max(g.n, 2))))
    verdict, measured = verify.check_network_decomposition(
        g, res.domains, bound, budget)
    return _body(res.params, res.report, [verdict], res.domains, res.failed, {
        "diameter_bound": bound,
        "label_budget": budget,
        **measured,
    }), [verdict]


def _forest(g: Graph, seed: int, params: dict, mode: str):
    labeling, report = forest_decomposition(g, mode=mode, seed=seed, **params)
    # the label bound comes from the invocation; 1.0 is forest_decomposition's eps
    eps = params.get("eps", 1.0)
    bound = g.max_degree if mode == "id" else math.floor((2 + eps) * params["a"])
    verdicts = [verify.check_forest_labeling(g, labeling.edge_labels, labeling.assigner, bound)]
    edges = [
        {"u": u, "v": v, "label": labeling.edge_labels[e],
         "assigner": labeling.assigner[e]}
        for e, (u, v) in enumerate(g.edges)
    ]
    # every edge's domain is 1..bound, not listed; an edgeless graph keeps a palette of 1
    return _body({}, report, verdicts, edges=edges,
                 metrics=verify.metrics(max(bound, 1), [bound] * g.m, verdicts)), verdicts


def _kuhn_edge(g: Graph, seed: int, params: dict):
    res = kuhn_defective_edge_coloring(g, seed=seed, **params)
    # the palette C(ceil(max_degree/i)+1, 2) and the bound 4i-2 come from the invocation
    numbers = -(-g.max_degree // params["i"]) or 1
    bound = 4 * params["i"] - 2
    verdict, worst = verify.check_edge_defect(g, res.colors, bound)
    metrics = {
        "problem_domain_size": math.comb(numbers + 1, 2),
        "defect_bound": bound,
        "measured_defect": worst,
        "verdicts": [verdict.to_document()],
    }
    return _body(res.params, res.report, [verdict], metrics=metrics,
                 colors=list(res.colors)), [verdict]


def _dominating_edge(g: Graph, seed: int, params: dict):
    res = dominating_edge_coloring(g, seed=seed, **params)
    verdicts = [verify.check_edge_dominating(g, res.dominating)]
    classes = math.isqrt(max(g.max_degree, 1) - 1) + 1  # ceil(sqrt(max_degree))
    members: dict[int, list[int]] = {cls: [] for cls in range(1, classes + 1)}
    for e, cls in enumerate(res.class_of):
        if cls in members:
            members[cls].append(e)
    for cls, edges in members.items():
        # class cls's dominating edges must be a maximal matching of its edges
        verdict = verify.check_matching(g, res.dominating.intersection(edges), edges)
        verdicts.append(replace(verdict, name=f"class-{cls}-matching"))
    return _body(res.params, res.report, verdicts, res.domains,
                 dominating=sorted(res.dominating), class_of=list(res.class_of),
                 edges=[{"u": u, "v": v} for u, v in g.edges]), verdicts


class Algorithm(NamedTuple):
    """One algorithm tag: its ``--param`` schema {keyword: (type, required)},
    its runner (graph, seed, params) -> (report body, verdicts), and the
    name, generator spec and params of its row in the built-in bench suite."""

    schema: dict[str, tuple[type, bool]]
    run: Callable[[Graph, int, dict], tuple[dict, list]]
    name: str
    gen: str
    bench_params: dict = {}


# Registry order is the row order of the built-in bench suite.
ALGORITHMS: dict[str, Algorithm] = {
    "cv3-expansion": Algorithm(
        {"delta": (int, False)}, _cv3_expansion,
        "3-coloring expansion (oriented trees)", "random-tree:n=512,max_deg=8"),
    "random-coloring": Algorithm(
        {"c": (float, False), "delta": (int, False)},
        partial(_disjoint, entry="generic_random_coloring", check="check_domains_disjoint"),
        "one-round random coloring", "gnp:n=256,p=0.02"),
    "delta2-coloring": Algorithm(
        {"delta": (int, False)}, _delta2_coloring,
        "quadratic-palette coloring", "gnp:n=256,p=0.02"),
    "defective-coloring": Algorithm(
        {"p": (int, True), "delta": (int, False)}, _defective_coloring,
        "defective coloring", "gnp:n=256,p=0.04", {"p": 2}),
    "arboricity-coloring": Algorithm(
        {"a": (int, True), "eps": (float, False), "c": (float, False)},
        partial(_disjoint, entry="arboricity_generic_coloring",
                check="check_domains_disjoint"),
        "bounded-arboricity coloring", "forest-union:n=256,a=2", {"a": 2}),
    "network-decomposition": Algorithm(
        {"c": (int, False), "B": (int, False), "label_budget": (int, False)},
        _network_decomposition,
        "network decomposition", "gnp:n=256,p=0.023", {"c": 2}),
    "forest-id": Algorithm(
        {}, partial(_forest, mode="id"),
        "forest decomposition (id)", "gnp:n=256,p=0.02"),
    "forest-hpartition": Algorithm(
        {"a": (int, True), "eps": (float, False)}, partial(_forest, mode="h-partition"),
        "forest decomposition (peeling)", "forest-union:n=256,a=2", {"a": 2}),
    "edge-random": Algorithm(
        {"c": (float, False)},
        partial(_disjoint, entry="edge_coloring_via_line_graph",
                check="check_edge_domains_disjoint", variant="random"),
        "edge coloring (random, line graph)", "gnp:n=128,p=0.04"),
    "edge-delta2": Algorithm(
        {},
        partial(_disjoint, entry="edge_coloring_via_line_graph",
                check="check_edge_domains_disjoint", variant="delta2"),
        "edge coloring (quadratic, line graph)", "gnp:n=128,p=0.04"),
    "kuhn-edge": Algorithm(
        {"i": (int, True)}, _kuhn_edge,
        "defective edge coloring", "gnp:n=256,p=0.04", {"i": 2}),
    "dominating-edge": Algorithm(
        {"c": (int, False), "t": (int, False)},
        _dominating_edge,
        "dominating-set edge coloring", "gnp:n=256,p=0.02"),
}


def _graph_from_args(args, seed: int) -> tuple[Graph, dict]:
    # argparse requires exactly one of --graph and --gen; --graph= is the path ""
    if args.graph is not None:
        g = load_edge_list(Path(args.graph).read_text())
        return g, {"kind": "file", "path": args.graph}
    spec = parse_gen_spec(args.gen)
    if "seed=" not in args.gen:
        spec = replace(spec, seed=seed)
    return generate(spec), {"kind": "generator", "spec": args.gen, "seed": spec.seed}


def build_report(tag: str, g: Graph, source: dict, seed: int, params: dict) -> dict:
    """Run one algorithm and its checkers; the report's "status" field is
    "ok", "verdict-failure", or "incomplete"."""
    body, verdicts = ALGORITHMS[tag].run(g, seed, params)
    incomplete = body["run"]["incomplete"] or bool(body["failed"])
    status = ("incomplete" if incomplete
              else "ok" if all(v.ok for v in verdicts) else "verdict-failure")
    return {
        "schema": "genlabel-report-v3",
        "algorithm": tag,
        "seed": seed,
        "graph": {
            "source": source,
            "n": g.n,
            "m": g.m,
            "max_degree": g.max_degree,
        },
        **body,
        "status": status,
    }


def report_to_csv(doc: dict) -> str:
    metrics = doc.get("metrics", {})
    verdicts = metrics.get("verdicts", [])
    header = ["algorithm", "graph", "seed", "n", "m", "max_degree", "rounds",
              "problem_domain_size", "solution_domain_min", "contingency_factor",
              "verdicts_ok", "status"]
    source = doc["graph"]["source"]
    graph_desc = source.get("path") or source.get("spec") or source["kind"]
    row = [
        doc["algorithm"], graph_desc, str(doc["seed"]), str(doc["graph"]["n"]),
        str(doc["graph"]["m"]), str(doc["graph"]["max_degree"]),
        str(doc["run"]["comm_rounds"]),
        str(metrics.get("problem_domain_size", "")),
        str(metrics.get("solution_domain_min", "")),
        str(metrics.get("contingency_factor", "")),
        str(all(v["ok"] for v in verdicts)).lower(),
        doc["status"],
    ]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def to_json(doc, newline: str = "\n") -> str:
    """``doc`` in the layout of ``json.dumps(doc, indent=2)``, except that a
    non-empty list or tuple of exact ints (no bools) is written on one line,
    as ``[1, 5, 9]``; parsed, it is ``json.dumps(doc)``.  Exact ints and strs,
    the bulk of a report, are written here, without the pure-Python encoder
    that ``indent`` falls back to; containers follow json's isinstance rules,
    and every other value goes through ``json.dumps``; an ``IntLists``, such
    as a report's label domains, is written in one join, and a list of flat
    int records from one template.  ``newline`` is the line break and indent
    of the enclosing level."""
    kind = type(doc)
    if kind is int:
        return str(doc)
    if kind is str:
        return encode_basestring_ascii(doc)
    inner = newline + "  "
    if kind is IntLists and doc:
        return "{" + inner + ("," + inner).join(
            f'"{key}": {value!r}' for key, value in doc.items()) + newline + "}"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [_json_key(key) + ": " + to_json(value, inner) for key, value in doc.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        if list(map(type, doc)).count(int) == len(doc):  # exact ints: no bools
            return repr(list(doc))
        items = _records(doc, inner)
        if items is None:
            items = ("," + inner).join([to_json(x, inner) for x in doc])
        return "[" + inner + items + newline + "]"
    return json.dumps(doc)


def _records(doc, inner: str) -> str | None:
    """The items of ``doc`` as ``to_json`` writes them, joined, when ``doc``
    is a list of non-empty dicts with the same exact-str or exact-int keys in
    the same order and exact-int values, written from one template; else
    None.  Unlike keys of other types, equal ones of these have equal text."""
    first = doc[0]
    if type(first) is not dict or not first:
        return None
    head = tuple(first)
    if (list(map(type, doc)).count(dict) != len(doc)
            or list(map(tuple, doc)).count(head) != len(doc)
            or not set(map(type, chain.from_iterable(doc))) <= {str, int}):
        return None
    values = tuple(chain.from_iterable(map(dict.values, doc)))
    if list(map(type, values)).count(int) != len(values):
        return None
    field = inner + "  "
    row = "{" + field + ("," + field).join(
        _json_key(key).replace("%", "%%") + ": %d" for key in head) + inner + "}"
    return ("," + inner).join([row] * len(doc)) % values


def _json_key(key) -> str:
    """A dict key as json writes it: a str as itself, an int, float, bool or
    None as its JSON text in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(payload: str, out: str | None) -> bool:
    """Write ``payload`` to ``out``, or stdout if None; False if ``out`` is unwritable."""
    if not out:
        sys.stdout.write(payload)
        return True
    try:
        Path(out).write_text(payload)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    # Building and writing a report allocates tens of thousands of containers
    # and no reference cycles worth a pass, so the collector waits, as in run_sync.
    with collector_paused():
        try:
            params = parse_params(args.algo, args.param or [])
            g, source = _graph_from_args(args, args.seed)
            doc = build_report(args.algo, g, source, args.seed, params)
        except ArboricityError as exc:
            verdict = verify.check_arboricity_witness(g, exc.witness, params["a"])
            if not verdict.ok:
                print(f"error: {exc} (uncertified witness: {verdict.detail})", file=sys.stderr)
                return EXIT_INCOMPLETE
            cut = "..." if len(exc.witness) > 16 else ""
            print(f"error: {exc} (witness: {list(exc.witness)[:16]}{cut})", file=sys.stderr)
            return EXIT_VERDICT
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except InvariantError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INCOMPLETE
        if not _emit((to_json(doc) + "\n") if args.format == "json"
                     else report_to_csv(doc), args.out):
            return EXIT_CONFIG
    if doc["status"] == "incomplete":
        return EXIT_INCOMPLETE
    if doc["status"] == "verdict-failure":
        return EXIT_VERDICT
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench mode


DEFAULT_SUITE = [{"name": entry.name, "algo": tag, "gen": entry.gen, "seeds": [0, 1],
                  "params": dict(entry.bench_params)}
                 for tag, entry in ALGORITHMS.items()]


def _suite_row(entry) -> tuple[str, dict, list, str]:
    """A suite row's algo, params, seeds and gen, each checked for its JSON type."""
    if not isinstance(entry, dict):
        raise ConfigError(f"a suite row must be an object, got {entry!r}")
    row = (entry.get("algo"), entry.get("params", {}), entry.get("seeds", [0]),
           entry.get("gen"))
    for key, kind, value in zip(("algo", "params", "seeds", "gen"),
                                (str, dict, list, str), row):
        if value is None:
            raise ConfigError(f"suite row needs {key!r}")
        if not isinstance(value, kind):
            raise ConfigError(f"suite row {key!r} must be a {kind.__name__}, got {value!r}")
    if not all(type(seed) is int for seed in row[2]):
        raise ConfigError(f"suite row 'seeds' must be integers, got {row[2]!r}")
    if not row[2]:
        raise ConfigError("suite row 'seeds' must not be empty")
    return row


def _contingency_rank(factor: str) -> tuple[bool, Fraction]:
    """A "p/q" contingency factor's rank: by value, with verify.metrics'
    "0/1" for an empty smallest domain above every other."""
    value = Fraction(factor)
    return value == 0, value


def cmd_bench(args) -> int:
    if args.suite:
        try:
            suite = json.loads(Path(args.suite).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read suite: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(suite, list):
            print("error: a suite is a JSON list of rows", file=sys.stderr)
            return EXIT_CONFIG
    else:
        suite = DEFAULT_SUITE
    rows = []
    any_failure = False
    for entry in suite:
        name = str(entry.get("name", entry.get("algo", "?"))
                   if isinstance(entry, dict) else "?")
        try:
            tag, raw_params, seeds, gen = _suite_row(entry)
            params = parse_params(tag, [f"{k}={v}" for k, v in raw_params.items()])
            spec = parse_gen_spec(gen)
            worst_rounds = 0
            min_domain = None
            factors = []
            ok_runs = 0
            for seed in seeds:
                g = generate(replace(spec, seed=seed))
                doc = build_report(tag, g, {"kind": "generator",
                                            "spec": gen, "seed": seed},
                                   seed, params)
                metrics = doc.get("metrics", {})
                worst_rounds = max(worst_rounds, doc["run"]["comm_rounds"])
                smin = metrics.get("solution_domain_min")
                if smin is not None:
                    min_domain = smin if min_domain is None else min(min_domain, smin)
                if "contingency_factor" in metrics:
                    factors.append(metrics["contingency_factor"])
                if doc["status"] == "ok":
                    ok_runs += 1
            passed = f"{ok_runs}/{len(seeds)}"
            if ok_runs != len(seeds):
                any_failure = True
            rows.append((name, str(worst_rounds),
                         "-" if min_domain is None else str(min_domain),
                         max(factors, key=_contingency_rank, default=""), passed, ""))
        except (ValueError, InvariantError) as exc:
            any_failure = True
            rows.append((name, "-", "-", "-", "error", str(exc)))
    header = ("problem", "rounds(max)", "solution-domain(min)",
              "contingency(max)", "pass", "note")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in rows:
        lines.append("  ".join(str(r[i]).ljust(widths[i]) for i in range(len(header))))
    if not _emit("\n".join(lines) + "\n", args.out):
        return EXIT_CONFIG
    return EXIT_VERDICT if any_failure else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genlabel",
        description="Multi-choice distributed labeling algorithms with built-in "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one algorithm and verify its output")
    run.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--gen", help="generator spec, e.g. gnp:n=1024,p=0.01")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--param", action="append", metavar="K=V",
                     help="algorithm parameter (repeatable)")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.set_defaults(func=cmd_run)
    bench = sub.add_parser("bench", help="run a suite and print a summary table")
    bench.add_argument("--suite", help="JSON suite file (defaults to built-in)")
    bench.add_argument("--out", help="write the summary table here")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
