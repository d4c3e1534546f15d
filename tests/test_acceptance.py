"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with -s or -rA) and enforces its
runtime budget where one is stated.  Statistical criteria run on frozen seeds;
graph families with a degree constraint are realized by deterministically
scanning seeds until enough conforming graphs are found.
"""

from __future__ import annotations

import json
import math
import time
from itertools import combinations, permutations, product

import pytest

from genlabel import (
    GeneratorSpec,
    Graph,
    PolyFamily,
    cole_vishkin_3coloring,
    expand_to_generic,
    generate,
    generic_defective_coloring,
    generic_delta2_coloring,
    generic_random_coloring,
    line_graph,
    log_star,
    orient_by_id,
    orient_forest,
    residual_elements,
    smallest_prime_geq,
    verify_cover_free,
)
from genlabel.cli import DEFAULT_SUITE, main
from genlabel.decomposition import (
    arboricity_generic_coloring,
    forest_decomposition,
    generic_network_decomposition,
    h_partition,
)
from genlabel.edge_coloring import (
    dominating_edge_coloring,
    edge_coloring_via_line_graph,
    kuhn_defective_edge_coloring,
    pair_palette,
)
from genlabel.rng import Stream, subseed
from genlabel.verify import (
    _UnionFind,
    check_defective_domains,
    check_domains_disjoint,
    check_edge_defect,
    check_edge_dominating,
    check_edge_domains_disjoint,
    check_edge_properness,
    check_forest_labeling,
    check_network_decomposition,
    check_proper_vertex,
    metrics,
)

# the one implementation constant for log*-style round bounds (criteria 2, 4)
ROUND_CONSTANT = 6


def conforming_gnp(n: int, p: float, delta_max: int, count: int,
                   start_seed: int = 0) -> list[tuple[int, Graph]]:
    """First ``count`` seeds whose G(n,p) sample has 1 <= max degree <= delta_max."""
    found = []
    seed = start_seed
    while len(found) < count:
        g = generate(GeneratorSpec("gnp", n, p=p, seed=seed))
        if 1 <= g.max_degree <= delta_max:
            found.append((seed, g))
        seed += 1
        assert seed < start_seed + 4 * count + 64, "family scan diverged"
    return found


def test_criterion_01_one_round_random_coloring():
    """Algorithm 1 on G(n=1024, max degree <= 20), c=4, 100 seeds: exactly one
    communication round, every vertex keeps >= k/2 = 20 labels in >= 99 runs,
    adjacent domains disjoint in 100/100, all under 10 seconds."""
    t0 = time.perf_counter()
    k = math.ceil(4 * math.log2(1024))
    assert k == 40
    retention_ok = disjoint_ok = 0
    for seed, g in conforming_gnp(1024, 4.5 / 1023, 20, 100):
        res = generic_random_coloring(g, c=4.0, seed=1000 + seed, delta=20)
        assert res.report.comm_rounds == 1
        assert res.params["k"] == k
        if not res.failed and res.domains.min_size >= k // 2:
            retention_ok += 1
        if check_domains_disjoint(g, res.domains).ok:
            disjoint_ok += 1
    elapsed = time.perf_counter() - t0
    assert retention_ok >= 99, f"retention held in only {retention_ok}/100 runs"
    assert disjoint_ok == 100
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"[criterion 1] PASS: 1 round, retention {retention_ok}/100, "
          f"disjoint 100/100, {elapsed:.1f}s")


def test_criterion_02_delta2_pipeline():
    """Quadratic-palette pipeline on random trees and gnp graphs with
    max degree <= 10 and n in {256, 1024, 4096}: communication rounds at most
    log*(n) + C for the fixed C = ROUND_CONSTANT = 6 <= 10, final palette
    exactly the square of the smallest prime >= 3*max_degree, every domain at
    least max_degree labels, disjointness verdict true, all under 30 seconds."""
    t0 = time.perf_counter()
    cases = []
    for n, pm in ((256, 3.0), (1024, 2.5), (4096, 2.0)):
        cases.append(generate(GeneratorSpec("random-tree", n, max_deg=10, seed=n)))
        cases.extend(g for _, g in conforming_gnp(n, pm / n, 10, 2))
    assert ROUND_CONSTANT <= 10
    for g in cases:
        delta = g.max_degree
        res = generic_delta2_coloring(g)
        q_f = smallest_prime_geq(max(3 * delta, 2))
        assert res.domains.stride == q_f
        assert res.domains.palette == q_f * q_f
        assert res.domains.min_size >= delta
        assert res.report.comm_rounds <= log_star(g.n) + ROUND_CONSTANT
        assert check_domains_disjoint(g, res.domains).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"[criterion 2] PASS: {len(cases)} graphs, C={ROUND_CONSTANT}, "
          f"{elapsed:.1f}s")


def test_criterion_03_cover_free_oracles():
    """Cover-freeness certified by brute force: exhaustively for (d=1, q=5,
    Delta=4) over all C(24,4)*25 tuples, by 10^5 sampled tuples for (d=2, q=5,
    Delta=2), and the residual bound (>= Delta surviving elements) over 10^4
    sampled triples for (d=2, q=7, Delta=2); zero violations, under 60 s."""
    t0 = time.perf_counter()
    lines = PolyFamily(q=5, d=1)
    verdict = verify_cover_free(lines, delta=4, rho=0, mode="exhaustive")
    assert verdict.ok and verdict.tuples_checked == math.comb(24, 4) * 25

    quads = PolyFamily(q=5, d=2)
    sampled = verify_cover_free(quads, delta=2, rho=0, mode="sampled",
                                trials=100_000, seed=7)
    assert sampled.ok and sampled.tuples_checked == 100_000

    fam = PolyFamily(q=7, d=2)
    rng = Stream(subseed(11, 0x633361), 0)
    for _ in range(10_000):
        s0 = rng.draw_uniform(343)
        others = set()
        while len(others) < 2:
            j = rng.draw_uniform(343)
            if j != s0:
                others.add(j)
        assert len(residual_elements(fam, s0, sorted(others), 0)) >= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"[criterion 3] PASS: exhaustive {verdict.tuples_checked} tuples, "
          f"sampled 100000, residual 10000, {elapsed:.1f}s")


def test_criterion_04_defective_coloring():
    """Defective coloring with degree bound 16 and p in {1, 2, 4}, 20 seeds
    each: the worst-case-selection defect condition holds for every (vertex,
    label) pair, communication rounds stay within log*(n) + C, and the palette
    is at most 4 * q_final^2 with q_final the domains' stride."""
    families = conforming_gnp(1024, 5 / 1023, 16, 20)
    for p in (1, 2, 4):
        for seed, g in families:
            res = generic_defective_coloring(g, p=p, delta=16)
            verdict, worst = check_defective_domains(g, res.domains, p)
            assert verdict.ok, f"defect {worst} > {p} at seed {seed}"
            assert res.report.comm_rounds <= log_star(g.n) + ROUND_CONSTANT
            q_f = res.domains.stride
            assert res.domains.palette <= 4 * q_f * q_f
            assert res.domains.min_size >= res.params["domain_floor"]
    print("[criterion 4] PASS: p in {1,2,4} x 20 seeds, defect condition exact")


def test_criterion_05_cole_vishkin_expansion():
    """Oriented random tree with 10^5 vertices: proper 3-coloring, expanded
    domains of size exactly max_degree with palette 3*max_degree (contingency
    factor exactly 3), under 10 seconds."""
    t0 = time.perf_counter()
    g = generate(GeneratorSpec("random-tree", 100_000, seed=1))
    res = cole_vishkin_3coloring(g, orient_forest(g))
    assert check_proper_vertex(g, res.colors).ok
    assert set(res.colors) <= {0, 1, 2}
    delta = g.max_degree
    dom = expand_to_generic(res.colors, delta)
    assert all(len(d) == delta for d in dom.domains.values())
    assert metrics(dom.palette, dom.sizes())["contingency_factor"] == "3/1"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"[criterion 5] PASS: n=100000, delta={delta}, contingency 3, "
          f"{elapsed:.1f}s")


def test_criterion_06_network_decomposition():
    """c simultaneous clustering executions on connected-regime gnp graphs,
    n in {256, 1024, 4096}, c in {2, ceil(log2 n)}, 10 seeds: every cluster
    label's holders within weak diameter 2B = 4*ceil(log2 n) by BFS, distinct
    labels at most c * 4*log2(n), every domain exactly c labels, simulated
    rounds at most 8*log2(n)^2, all under 2 minutes."""
    t0 = time.perf_counter()
    for n in (256, 1024, 4096):
        log_n = math.log2(n)
        for c in (2, math.ceil(log_n)):
            for seed in range(10):
                g = generate(GeneratorSpec("gnp", n, p=6 / n, seed=seed))
                res = generic_network_decomposition(g, c=c, seed=seed)
                assert not res.failed
                bound = 2 * res.params["radius_cap"]
                assert bound == 4 * math.ceil(log_n)
                verdict, measured = check_network_decomposition(
                    g, res.domains, bound, int(c * 4 * log_n))
                assert verdict.ok, (n, c, seed, verdict.detail)
                assert all(len(d) == c for d in res.domains.domains.values())
                assert res.report.rounds <= 8 * log_n * log_n
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"[criterion 6] PASS: 60 runs across sizes and c values, {elapsed:.1f}s")


def _orientation_selections(out_edges_by_vertex):
    """Every way to pick at most one out-edge per vertex (superset of every
    label class of every injective assignment, for every palette size)."""
    pools = [list(edges) + [None] for edges in out_edges_by_vertex]
    return product(*pools)


def test_criterion_07_forest_decomposition():
    """id-orientation forest decomposition: exactly 2 communication rounds,
    at most max_degree label classes, all acyclic; the exhaustive assignment
    sweep over every graph on at most 6 vertices confirms contingency factor 1
    (each class of each injective assignment picks at most one out-edge per
    vertex, and every such selection is acyclic).  Peeling mode on a union of
    2 forests: layers within 2*log2(n), out-degree and class count at most 6."""
    for seed, g in conforming_gnp(1024, 5 / 1023, 16, 5):
        labeling, report = forest_decomposition(g, mode="id", seed=seed)
        assert report.comm_rounds == 2
        assert labeling.forest_count <= 16
        assert check_forest_labeling(g, labeling.edge_labels, labeling.assigner,
                                     labeling.forest_count).ok

    # exhaustive sweep: all 2^15 graphs on 6 vertices
    pairs = list(combinations(range(6), 2))
    configs = 0
    for m in range(len(pairs) + 1):
        for subset in combinations(pairs, m):
            out = [[] for _ in range(6)]
            for idx, (u, v) in enumerate(subset):
                out[u].append(idx)
            for pick in _orientation_selections(out):
                configs += 1
                uf = _UnionFind(6)
                for e in pick:
                    if e is not None:
                        u, v = subset[e]
                        assert uf.union(u, v), (subset, pick)
    assert configs > 2_000_000

    # literal full-product sweep on every graph with up to 4 vertices
    small_pairs = list(combinations(range(4), 2))
    for m in range(len(small_pairs) + 1):
        for subset in combinations(small_pairs, m):
            g = Graph.from_edges(4, subset)
            orientation = orient_by_id(g)
            forest_count = g.max_degree
            spaces = []
            for v in range(4):
                edges = orientation.out_edges(v)
                spaces.append([
                    tuple(zip(edges, perm))
                    for perm in permutations(range(1, forest_count + 1), len(edges))
                ])
            for combo in product(*spaces):
                labels = {e: num for part in combo for e, num in part}
                for lbl in range(1, forest_count + 1):
                    uf = _UnionFind(4)
                    for e, (u, v) in enumerate(g.edges):
                        if labels.get(e) == lbl:
                            assert uf.union(u, v)

    hp_graph = generate(GeneratorSpec("forest-union", 1024, a=2, seed=3))
    labeling, report = forest_decomposition(hp_graph, mode="h-partition", a=2, eps=1.0, seed=3)
    hp = h_partition(hp_graph, a=2, eps=1.0)
    assert hp.layer_count <= math.floor(2 * math.log2(1024))
    assert hp.orientation.max_out_degree <= 6
    assert labeling.forest_count <= 6
    assert check_forest_labeling(hp_graph, labeling.edge_labels,
                                 labeling.assigner, 6).ok
    print(f"[criterion 7] PASS: 2-round id mode, {configs} swept selections, "
          f"peeling mode bounded")


def test_criterion_08_arboricity_coloring():
    """Bounded-arboricity coloring on unions of 2 forests, n=1024, c=4, 100
    seeds: adjacent domains disjoint in 100/100, every vertex keeps >= k/2
    labels in >= 99 runs, palette exactly 2*floor(3a)*k."""
    k = math.ceil(4 * math.log2(1024))
    retention_ok = disjoint_ok = 0
    for seed in range(100):
        g = generate(GeneratorSpec("forest-union", 1024, a=2, seed=seed))
        res = arboricity_generic_coloring(g, a=2, eps=1.0, c=4.0, seed=5000 + seed)
        assert res.domains.palette == 2 * 6 * k
        if check_domains_disjoint(g, res.domains).ok:
            disjoint_ok += 1
        if not res.failed and res.domains.min_size >= k // 2:
            retention_ok += 1
    assert disjoint_ok == 100
    assert retention_ok >= 99
    print(f"[criterion 8] PASS: disjoint {disjoint_ok}/100, "
          f"retention {retention_ok}/100, palette {2 * 6 * k}")


def test_criterion_09_kuhn_edge_coloring():
    """One-round defective edge coloring, max degree <= 32, i in {1, 2, 4},
    100 seeds: palette at most C(ceil(delta/i)+1, 2), per-edge defect at most
    4i-2 in every run; exhaustive reachability of the full palette for the
    central edge of a double star with degree-4 endpoints at i=2."""
    families = conforming_gnp(256, 13 / 255, 32, 34)
    runs = 0
    for i in (1, 2, 4):
        for seed, g in families:
            res = kuhn_defective_edge_coloring(g, i=i, seed=seed)
            assert res.report.comm_rounds == 1
            limit = -(-g.max_degree // i)
            assert max(res.colors, default=0) < math.comb(res.params["numbers"] + 1, 2)
            assert res.params["numbers"] <= limit
            verdict, worst = check_edge_defect(g, res.colors, 4 * i - 2)
            assert verdict.ok, f"defect {worst} > {4 * i - 2} (i={i}, seed={seed})"
            runs += 1
    assert runs >= 100

    # reachability: double star, both endpoints of the central edge have degree 4
    i = 2
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    numbers = -(-g.max_degree // i)

    def endpoint_numbers(deg):
        options = set()
        for perm in permutations(range(deg)):
            options.add(perm.index(0) // i + 1)  # number given to edge at slot 0
        return options

    reachable = set()
    for a in endpoint_numbers(4):
        for b in endpoint_numbers(4):
            reachable.add((a, b) if a <= b else (b, a))
    assert reachable == set(pair_palette(numbers))
    print(f"[criterion 9] PASS: {runs} runs, defect bound exact, "
          f"palette reachability complete (contingency 1)")


def test_criterion_10_line_graph_edge_colorings():
    """Properness on edges of G and on vertices of L(G) coincide, exhaustively
    over every graph on 6 vertices with at most 6 edges and every partition of
    its edges into color classes; the quadratic variant yields at least
    2*max_degree - 1 labels per edge with a true disjointness verdict."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    pairs = list(combinations(range(6), 2))
    checked = 0
    for m in range(0, 7):
        for subset in combinations(pairs, m):
            g = Graph.from_edges(6, subset)
            lg = line_graph(g)
            for part in partitions(list(range(m))):
                labels = [0] * m
                for color, block in enumerate(part):
                    for e in block:
                        labels[e] = color
                edge_side = check_edge_properness(g, labels).ok
                vertex_side = check_proper_vertex(lg, labels).ok
                assert edge_side == vertex_side
                checked += 1
    assert checked > 100_000

    test_graphs = [
        generate(GeneratorSpec("clique", 3)),
        Graph.from_edges(9, [(0, i) for i in range(1, 9)]),
        generate(GeneratorSpec("path", 12)),
        generate(GeneratorSpec("gnp", 48, p=0.08, seed=2)),
    ]
    for g in test_graphs:
        res = edge_coloring_via_line_graph(g, variant="delta2", seed=1)
        assert res.domains.min_size >= 2 * g.max_degree - 1
        assert check_edge_domains_disjoint(g, res.domains).ok
    print(f"[criterion 10] PASS: {checked} labelings agree on both sides, "
          f"quadratic variant domains >= 2*max_degree-1")


def test_criterion_11_dominating_edge_coloring():
    """Colored dominating set on G(n=512, max degree <= 16), c=3, t=3, 50
    seeds: domination, per-class matchings, and properness of 1000 sampled
    joint selections per run all hold; the contingency factor is reported as
    ceil(sqrt(max_degree)).  Round counts are reported but (with substitute
    subroutines) deliberately not asserted."""
    families = conforming_gnp(512, 4.5 / 511, 16, 50)
    for seed, g in families:
        res = dominating_edge_coloring(g, c=3, t=3, seed=seed)
        assert not res.report.incomplete
        assert check_edge_dominating(g, res.dominating).ok
        for cls in range(1, res.params["classes"] + 1):
            covered: set[int] = set()
            for e in res.dominating:
                if res.class_of[e] == cls:
                    u, v = g.edges[e]
                    assert u not in covered and v not in covered
                    covered.update((u, v))
        ordered = sorted(res.dominating)
        pos = {e: idx for idx, e in enumerate(ordered)}
        base = [min(res.domains.domains[e]) for e in ordered]
        crowded = []  # vertices with >= 2 dominating edges: the only conflict sites
        for v in range(g.n):
            ids = [pos[g.edge_id(v, u)] for u in g.adjacency[v]
                   if g.edge_id(v, u) in pos]
            if len(ids) >= 2:
                crowded.append(ids)
        rng = Stream(subseed(seed, 0x73616D), 0)
        for trial in range(1000):
            draws = rng.draw_many(len(ordered), 3)
            labels = [b + d for b, d in zip(base, draws)]
            for ids in crowded:
                seen = set()
                for idx in ids:
                    assert labels[idx] not in seen
                    seen.add(labels[idx])
            if trial == 0:  # cross-check the scan against the module checker
                full: list = [None] * g.m
                for e, lbl in zip(ordered, labels):
                    full[e] = lbl
                assert check_edge_properness(g, full).ok
        s = math.isqrt(g.max_degree)
        if s * s < g.max_degree:
            s += 1
        assert metrics(res.domains.palette, res.domains.sizes())["contingency_factor"] == f"{s}/1"
    print("[criterion 11] PASS: 50 runs, domination + matchings + "
          "1000 selections each")


def test_criterion_12_cli_determinism(tmp_path):
    """Every cmd_run configuration of the full bench suite, invoked twice,
    writes byte-identical reports."""
    configs = 0
    for row in DEFAULT_SUITE:
        argv_base = ["run", "--algo", row["algo"], "--gen", row["gen"]]
        for key, value in row.get("params", {}).items():
            argv_base += ["--param", f"{key}={value}"]
        for seed in row.get("seeds", [0]):
            out_a = tmp_path / f"{row['algo']}-{seed}-a.json"
            out_b = tmp_path / f"{row['algo']}-{seed}-b.json"
            argv = argv_base + ["--seed", str(seed)]
            code_a = main(argv + ["--out", str(out_a)])
            code_b = main(argv + ["--out", str(out_b)])
            assert code_a == code_b == 0
            assert out_a.read_bytes() == out_b.read_bytes()
            configs += 1
    assert configs >= 20
    print(f"[criterion 12] PASS: {configs} configurations byte-identical on rerun")
