"""The benchmark's own checks accept real reports and reject corrupted ones."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from checks import Rejected, check_report, read_edge_list
from workloads import END_TO_END, PER_LAYER, WORKLOADS

from genlabel.cli import main
from genlabel.graphs import GeneratorSpec, dump_edge_list, generate


def gnp(n: int, degree: float, seed: int = 3) -> str:
    return dump_edge_list(generate(GeneratorSpec("gnp", n, p=degree / n, seed=seed)))


def path_graph(n: int) -> str:
    return "".join(f"{v} {v + 1}\n" for v in range(n - 1))


def real_report(tmp_path: Path, algo: str, text: str, params: dict):
    edges = tmp_path / "g.edges"
    edges.write_text(text)
    out = tmp_path / "report.json"
    argv = ["run", "--algo", algo, "--graph", str(edges), "--seed", "5", "--out", str(out)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    g = read_edge_list(text)
    check_report(doc, g, algo, params)  # the uncorrupted report passes
    return doc, g


def rejects(doc, g, algo, params, match):
    with pytest.raises(Rejected, match=match):
        check_report(doc, g, algo, params)


def test_random_coloring_corruptions(tmp_path):
    params = {"c": 4.0}
    doc, g = real_report(tmp_path, "random-coloring", gnp(60, 8), params)
    doms = lambda d: d["labels"]["domains"]  # noqa: E731
    u, v = g.edges[0]
    palette, stride = doc["labels"]["palette"], doc["labels"]["stride"]

    bad = copy.deepcopy(doc)
    doms(bad)[str(u)] = list(doms(doc)[str(v)])
    rejects(bad, g, "random-coloring", params, "share a label")

    bad = copy.deepcopy(doc)
    doms(bad)[str(u)].append(palette)
    rejects(bad, g, "random-coloring", params, "outside")

    bad = copy.deepcopy(doc)
    x = next(x for x in doms(doc)[str(u)] if x % stride < stride - 1)
    doms(bad)[str(u)] = sorted([*doms(doc)[str(u)], x + 1])
    rejects(bad, g, "random-coloring", params, "one tag")

    bad = copy.deepcopy(doc)
    doms(bad)[str(u)] = []
    rejects(bad, g, "random-coloring", params, "empty")


def test_network_decomposition_corruptions(tmp_path):
    params = {"c": 3}
    doc, g = real_report(tmp_path, "network-decomposition", path_graph(30), params)
    doms = doc["labels"]["domains"]
    stride = doc["labels"]["stride"]
    assert doc["metrics"]["diameter_bound"] < 29

    bad = copy.deepcopy(doc)
    bad["labels"]["domains"]["0"] = doms["0"][1:]
    rejects(bad, g, "network-decomposition", params, "one label in each")

    bad = copy.deepcopy(doc)  # the two ends of the path share a cluster
    first = next(x for x in doms["0"] if x // stride == 0)
    bad["labels"]["domains"]["29"] = sorted(
        [first] + [x for x in doms["29"] if x // stride != 0])
    rejects(bad, g, "network-decomposition", params, "apart")


def test_dominating_edge_corruptions(tmp_path):
    params = {"c": 3, "t": 3}
    doc, g = real_report(tmp_path, "dominating-edge", gnp(60, 8), params)
    dominating = set(doc["dominating"])
    outside = next(e for e in range(len(g.edges)) if e not in dominating)
    u, v = g.edges[outside]

    bad = copy.deepcopy(doc)
    keep = [e for e in doc["dominating"] if not {u, v} & set(g.edges[e])]
    bad["dominating"] = keep
    bad["labels"]["domains"] = {str(e): doc["labels"]["domains"][str(e)] for e in keep}
    rejects(bad, g, "dominating-edge", params, "not dominated")

    bad = copy.deepcopy(doc)  # an edge next to a dominating one joins its class
    inside = next(e for e in dominating if {u, v} & set(g.edges[e]))
    cls = doc["class_of"][inside]
    bad["dominating"] = sorted(dominating | {outside})
    bad["class_of"][outside] = cls
    bad["labels"]["domains"][str(outside)] = doc["labels"]["domains"][str(inside)]
    rejects(bad, g, "dominating-edge", params, "not a matching")

    bad = copy.deepcopy(doc)
    bad["labels"]["domains"][str(inside)] = [x + 1 for x in doc["labels"]["domains"][str(inside)]]
    rejects(bad, g, "dominating-edge", params, "wrong domain")


def test_edge_delta2_corruptions(tmp_path):
    doc, g = real_report(tmp_path, "edge-delta2", gnp(40, 8), {})
    doms = doc["labels"]["domains"]
    (a, b), e1 = g.edges[0], 0
    e2 = next(e for e, (x, y) in enumerate(g.edges) if e != e1 and {x, y} & {a, b})

    bad = copy.deepcopy(doc)
    bad["labels"]["domains"][str(e2)] = list(doms[str(e1)])
    rejects(bad, g, "edge-delta2", {}, "share a label")

    bad = copy.deepcopy(doc)
    bad["labels"]["domains"][str(e1)] = doms[str(e1)][:2 * g.max_degree - 2]
    rejects(bad, g, "edge-delta2", {}, "fewer than")

    bad = copy.deepcopy(doc)
    bad["labels"]["domains"][str(e1)] = doms[str(e1)] + [doc["labels"]["palette"]]
    rejects(bad, g, "edge-delta2", {}, "outside")


def test_report_of_another_graph_is_rejected(tmp_path):
    doc, _ = real_report(tmp_path, "edge-delta2", gnp(40, 8), {})
    rejects(doc, read_edge_list(gnp(41, 8)), "edge-delta2", {}, "another graph")
    del doc["labels"]
    rejects(doc, read_edge_list(gnp(40, 8)), "edge-delta2", {}, "malformed")


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(metrics)
