import math
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlabel import GeneratorSpec, Graph, Stream, generate, orient_by_id, run_sync
from genlabel.decomposition import (
    ArboricityError,
    arboricity_generic_coloring,
    forest_decomposition,
    generic_network_decomposition,
    h_partition,
    linial_saks,
    _ForestIdProgram,
    _linial_saks_program,
)
from genlabel.verify import (
    check_arboricity_witness,
    check_domains_disjoint,
    check_forest_labeling,
    check_network_decomposition,
    _UnionFind,
)
from test_edge_coloring import SWEEP_GRAPHS


def triangulated_grid(rows, cols):
    """Each vertex joined to its right, lower and lower-right neighbours."""
    edges = []
    for v in range(rows * cols):
        r, c = divmod(v, cols)
        if c + 1 < cols:
            edges.append((v, v + 1))
        if r + 1 < rows:
            edges.append((v, v + cols))
        if r + 1 < rows and c + 1 < cols:
            edges.append((v, v + cols + 1))
    return Graph.from_edges(rows * cols, edges)


def bfs_dist(g, s):
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


class TestLinialSaks:
    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        c = linial_saks(g, seed=0)
        assert c.clusters[0] is not None and not c.failed
        assert _linial_saks_program(g, seed=0).clusters == c.clusters

    def test_path64_weak_diameter_bfs_oracle(self):
        g = generate(GeneratorSpec("path", 64))
        c = linial_saks(g, seed=3)
        assert not c.failed
        bound = 2 * c.radius_cap
        members: dict = {}
        for v, cl in enumerate(c.clusters):
            members.setdefault(cl, []).append(v)
        for group in members.values():
            for v in group:
                dist = bfs_dist(g, v)
                assert all(u in dist and dist[u] <= bound for u in group)

    def test_clique_trivial_diameter(self):
        g = generate(GeneratorSpec("clique", 16))
        c = linial_saks(g, seed=1)
        assert not c.failed

    def test_engines_agree(self):
        """The sweep reproduces the program's clusterings, phases and rounds,
        and simulates no more messages than the program sends.  (The engines
        differ on comm_rounds: the sweep reports every round.)"""
        specs = (GeneratorSpec("gnp", 24, p=0.15), GeneratorSpec("gnp", 48, p=0.08),
                 GeneratorSpec("path", 40), GeneratorSpec("clique", 10),
                 GeneratorSpec("random-tree", 60))
        for spec in specs:
            for seed in range(4):
                g = generate(replace(spec, seed=seed))
                for cap in (None, 1, 2, 5):
                    a = _linial_saks_program(g, seed=seed, radius_cap=cap)
                    b = linial_saks(g, seed=seed, radius_cap=cap)
                    case = (spec.kind, seed, cap)
                    assert a.clusters == b.clusters, case
                    assert a.phase_count == b.phase_count, case
                    assert a.report.rounds == b.report.rounds, case
                    assert b.report.messages_total <= a.report.messages_total, case

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sweep_work_bound(self, seed):
        """Each phase expands a vertex only for a larger remaining radius, all
        below the cap: at most radius_cap * n simulated messages per phase."""
        n = 1024
        g = generate(GeneratorSpec("gnp", n, p=6 / n, seed=seed))
        c = linial_saks(g, seed=seed)
        assert c.report.messages_total <= c.phase_count * c.radius_cap * n

    def test_huge_cap_clusters_as_a_reachable_one(self):
        """A cap far above any radius drawn changes no clustering: no radius
        reaches 200 here, so caps 200 and 10**9 draw the same radii.  The
        sweep's per-phase work follows the radii drawn, not the cap."""
        n = 256
        g = generate(GeneratorSpec("gnp", n, p=6 / n, seed=4))
        huge = linial_saks(g, seed=4, radius_cap=10**9)
        assert huge.clusters == linial_saks(g, seed=4, radius_cap=200).clusters

    def test_every_vertex_clustered(self):
        g = generate(GeneratorSpec("gnp", 128, p=0.05, seed=2))
        c = linial_saks(g, seed=5)
        assert all(cl is not None for cl in c.clusters)


class TestNetworkDecomposition:
    def test_single_vertex_domain_size_two(self):
        g = Graph.from_edges(1, [])
        res = generic_network_decomposition(g, c=2, seed=4)
        assert len(res.domains.domains[0]) == 2

    def test_rejects_c_below_two(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError):
            generic_network_decomposition(g, c=1)

    def test_path64_checker_passes(self):
        g = generate(GeneratorSpec("path", 64))
        res = generic_network_decomposition(g, c=2, seed=3)
        bound = 2 * res.params["radius_cap"]
        verdict, measured = check_network_decomposition(g, res.domains, bound, 10**9)
        assert verdict.ok
        assert all(len(d) == 2 for d in res.domains.domains.values())

    def test_labels_decode_to_same_cluster(self):
        g = generate(GeneratorSpec("gnp", 64, p=0.1, seed=6))
        res = generic_network_decomposition(g, c=3, seed=6)
        stride = res.domains.stride
        holders: dict = {}
        for v, dom in res.domains.domains.items():
            for x in dom:
                holders.setdefault(x, []).append(v)
        # recompute: same label => same (execution, cluster) by construction
        from genlabel.rng import subseed

        for x, group in holders.items():
            execution = x // stride + 1
            run = linial_saks(g, seed=subseed(6, 0x6E64, execution),
                              radius_cap=res.params["radius_cap"])
            assert len({run.clusters[v] for v in group}) == 1

    def test_rounds_within_phase_schedule(self):
        g = generate(GeneratorSpec("gnp", 256, p=6 / 256, seed=1))
        res = generic_network_decomposition(g, c=2, seed=1)
        assert res.report.rounds <= 8 * math.log2(256) ** 2


class TestHPartition:
    def test_star_two_layers(self):
        star = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
        hp = h_partition(star, a=1, eps=2)
        assert hp.layer_count <= 2
        assert hp.layer[0] == 2 and all(hp.layer[v] == 1 for v in range(1, 10))

    def test_tree_out_degree_bound(self):
        g = generate(GeneratorSpec("random-tree", 500, seed=4))
        hp = h_partition(g, a=1, eps=1)
        assert hp.orientation.max_out_degree <= 3
        for v in range(g.n):
            higher = sum(1 for u in g.adjacency[v] if hp.layer[u] >= hp.layer[v])
            assert higher <= 3

    def test_layer_budget(self):
        g = generate(GeneratorSpec("random-tree", 1024, seed=9))
        hp = h_partition(g, a=1, eps=1)
        assert hp.layer_count <= math.floor(2 * math.log2(1024)) + 1

    def test_subnormal_eps(self):
        """eps=1e-320 makes 2/eps infinite; the layer cap stays finite and
        the partition is the one any tiny eps gives."""
        g = generate(GeneratorSpec("forest-union", 60, a=2, seed=1))
        assert h_partition(g, a=2, eps=1e-320) == h_partition(g, a=2, eps=1e-300)

    def test_clique_violation_with_witness(self):
        g = generate(GeneratorSpec("clique", 8))
        with pytest.raises(ArboricityError) as exc:
            h_partition(g, a=1, eps=1)
        assert len(exc.value.witness) == 8

    def test_layer_cap_witness_certifies(self):
        """Past the layer cap the witness is the set before the first slow
        layer: on the triangulated 18x18 grid, the whole grid (901 edges
        against 323), not the six edgeless vertices left unpeeled at the cap."""
        g = triangulated_grid(18, 18)
        with pytest.raises(ArboricityError, match="exceeded the 17-layer bound") as exc:
            h_partition(g, a=1, eps=1.0)
        assert exc.value.witness == tuple(range(324))
        assert check_arboricity_witness(g, exc.value.witness, 1).ok
        assert not check_arboricity_witness(g, (119, 136, 153, 170, 187, 204), 1).ok

    def test_corrupted_witness_fails(self):
        g = generate(GeneratorSpec("clique", 8))
        assert check_arboricity_witness(g, range(8), 3).ok
        verdict = check_arboricity_witness(g, range(8), 4)  # 28 edges, not above 4*7
        assert (verdict.ok, verdict.status) == (False, "violated")
        assert verdict.detail == "8 vertices induce 28 edges, not more than 4*(8-1)"
        assert check_arboricity_witness(g, (0, 1, 2), 1).ok  # a triangle is no forest
        assert not check_arboricity_witness(g, (0, 1, 2), 2).ok
        assert not check_arboricity_witness(g, (5,), 1).ok
        assert not check_arboricity_witness(g, (), 1).ok

    @given(st.one_of(
        st.builds(lambda n, p, seed: generate(GeneratorSpec("gnp", n, p=p, seed=seed)),
                  st.integers(2, 24), st.floats(0.2, 1.0), st.integers(0, 10**6)),
        st.builds(triangulated_grid, st.integers(2, 15), st.integers(2, 15))),
        st.integers(1, 3), st.sampled_from([2.0, 1.5, 1.0, 0.5]) | st.floats(0.01, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_every_refusal_certifies(self, g, a, eps):
        """Every refusal's witness induces more than a*(|W|-1) edges, from
        either branch: no vertex qualifies, or the layer cap is exceeded."""
        try:
            h_partition(g, a=a, eps=eps)
        except ArboricityError as exc:
            assert check_arboricity_witness(g, exc.witness, a).ok

    def test_orientation_acyclic(self):
        g = generate(GeneratorSpec("forest-union", 200, a=2, seed=3))
        hp = h_partition(g, a=2, eps=1)
        order = {v: (hp.layer[v], v) for v in range(g.n)}
        for e, (u, v) in enumerate(g.edges):
            dst = hp.orientation.target[e]
            assert order[u + v - dst] < order[dst]


def assignment_space(g, orientation, forest_count):
    """All injective out-edge numberings, vertex by vertex."""
    from itertools import permutations

    per_vertex = []
    for v in range(g.n):
        edges = orientation.out_edges(v)
        options = [
            tuple(zip(edges, perm))
            for perm in permutations(range(1, forest_count + 1), len(edges))
        ]
        per_vertex.append(options)
    return per_vertex


def classes_acyclic(g, labels_by_edge, forest_count):
    for lbl in range(1, forest_count + 1):
        uf = _UnionFind(g.n)
        for e, (u, v) in enumerate(g.edges):
            if labels_by_edge.get(e) == lbl and not uf.union(u, v):
                return False
    return True


class TestForestDecomposition:
    def test_k4_id_mode(self, k4):
        labeling, report = forest_decomposition(k4, mode="id", seed=2)
        assert report.comm_rounds == 2
        assert labeling.forest_count == 3
        assert check_forest_labeling(k4, labeling.edge_labels, labeling.assigner, 3).ok
        # vertex 0 has out-degree 3: must use all three labels
        own = [labeling.edge_labels[e] for e in range(k4.m) if labeling.assigner[e] == 0]
        assert sorted(own) == [1, 2, 3]

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        labeling, _ = forest_decomposition(g, mode="id", seed=0)
        assert labeling.edge_labels == (1,) and labeling.forest_count == 1

    def test_exhaustive_assignment_sweep_small(self):
        """Every injective assignment yields acyclic classes (contingency 1),
        checked by enumerating the full product space on small graphs."""
        graphs = [
            generate(GeneratorSpec("clique", 4)),
            generate(GeneratorSpec("path", 8)),
            Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]),
        ]
        for g in graphs:
            orientation = orient_by_id(g)
            forest_count = g.max_degree
            space = assignment_space(g, orientation, forest_count)
            for combo in product(*space):
                labels = {e: num for part in combo for e, num in part}
                assert classes_acyclic(g, labels, forest_count)

    def test_id_mode_draws_only_where_it_numbers(self, monkeypatch):
        """Only a vertex with a higher-id neighbor shuffles the labels: on a
        300-leaf star the center's one shuffle takes 299 draws and the leaves
        none, where a leaf that shuffled all 300 labels would add 299 each."""
        draws = []
        draw_uniform = Stream.draw_uniform

        def counted(stream, bound):
            draws.append(bound)
            return draw_uniform(stream, bound)

        monkeypatch.setattr(Stream, "draw_uniform", counted)
        star = Graph.from_edges(301, [(0, v) for v in range(1, 301)])
        labeling, _ = forest_decomposition(star, mode="id", seed=3)
        assert len(draws) <= 300
        assert sorted(labeling.edge_labels) == list(range(1, 301))

    def test_h_partition_mode(self):
        g = generate(GeneratorSpec("forest-union", 256, a=2, seed=5))
        labeling, report = forest_decomposition(g, mode="h-partition", a=2, eps=1.0, seed=5)
        assert labeling.forest_count == 6
        assert check_forest_labeling(g, labeling.edge_labels, labeling.assigner, 6).ok

    def test_h_partition_mode_requires_a(self, k4):
        with pytest.raises(ValueError):
            forest_decomposition(k4, mode="h-partition")

    def test_assigner_and_receiver_agree(self):
        g = generate(GeneratorSpec("gnp", 40, p=0.2, seed=8))
        labeling, _ = forest_decomposition(g, mode="id", seed=8)
        reference = run_sync(_ForestIdProgram(g.max_degree), g, 8, max_rounds=4)
        # the reference's receivers recorded the numbers the assigners gave
        for v in range(g.n):
            for u, num in reference.outputs[v][1]:
                e = g.edge_id(u, v)
                assert labeling.edge_labels[e] == num and labeling.assigner[e] == u


class TestForestIdMatchesProgram:
    """id mode numbers each vertex's out-edges in one loop and states the
    report ``_ForestIdProgram`` gives under ``run_sync``: the same labels
    and assigners, rounds, comm_rounds, messages and incomplete."""

    @pytest.mark.parametrize("g", SWEEP_GRAPHS)
    def test_equals_program(self, g):
        for seed in (0, 1, 5):
            labeling, report = forest_decomposition(g, mode="id", seed=seed)
            reference = run_sync(_ForestIdProgram(g.max_degree), g, seed, max_rounds=4)
            labels = [0] * g.m
            assigner = [0] * g.m
            for v, (assigned, _) in enumerate(reference.outputs):
                for u, num in assigned:
                    labels[g.edge_id(v, u)] = num
                    assigner[g.edge_id(v, u)] = v
            assert labeling.edge_labels == tuple(labels)
            assert labeling.assigner == tuple(assigner)
            assert report == replace(reference, outputs=())


class TestArboricityColoring:
    def test_isolated_vertex_keeps_k(self):
        g = Graph.from_edges(1, [])
        res = arboricity_generic_coloring(g, a=1, seed=3)
        assert len(res.domains.domains[0]) == res.params["k"]

    def test_disjointness_every_trial(self):
        g = generate(GeneratorSpec("forest-union", 256, a=2, seed=2))
        for seed in range(5):
            res = arboricity_generic_coloring(g, a=2, eps=1.0, c=4.0, seed=seed)
            assert check_domains_disjoint(g, res.domains).ok
            assert not res.failed

    def test_palette_formula(self):
        g = generate(GeneratorSpec("forest-union", 128, a=2, seed=1))
        res = arboricity_generic_coloring(g, a=2, eps=1.0, c=4.0, seed=1)
        assert res.domains.palette == 2 * 6 * res.params["k"]

    def test_rounds_accounting(self):
        g = generate(GeneratorSpec("forest-union", 512, a=3, seed=6))
        res = arboricity_generic_coloring(g, a=3, eps=1.0, c=4.0, seed=6)
        assert res.params["layers"] == h_partition(g, a=3, eps=1.0).layer_count
        assert res.report.comm_rounds <= 1
