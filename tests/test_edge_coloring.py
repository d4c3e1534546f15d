import math
from itertools import combinations, permutations

import pytest

from genlabel import GeneratorSpec, Graph, Stream, edge_coloring, generate, line_graph
from genlabel.edge_coloring import (
    _MatchingProgram,
    _ProposalColoringProgram,
    _matching_sweep,
    _proposal_sweep,
    dominating_edge_coloring,
    edge_coloring_via_line_graph,
    kuhn_defective_edge_coloring,
    maximal_matching,
    pair_index,
    pair_palette,
    simple_edge_coloring,
)
from genlabel.runtime import RunReport, run_sync
from genlabel.verify import (
    check_edge_defect,
    check_edge_dominating,
    check_edge_properness,
    check_matching,
)


class TestLineGraphVariants:
    def test_single_edge_full_domain(self):
        g = Graph.from_edges(2, [(0, 1)])
        res = edge_coloring_via_line_graph(g, variant="random", c=4.0, seed=1)
        assert len(res.domains.domains[0]) == res.params["k"]

    def test_triangle_delta2_disjoint(self, triangle):
        res = edge_coloring_via_line_graph(triangle, variant="delta2")
        d = res.domains.domains
        for e1, e2 in combinations(range(3), 2):
            assert set(d[e1]).isdisjoint(d[e2])
        assert all(len(d[e]) >= 2 * triangle.max_degree - 1 for e in range(3))

    def test_star_k18_random_all_disjoint(self):
        g = Graph.from_edges(9, [(0, i) for i in range(1, 9)])
        res = edge_coloring_via_line_graph(g, variant="random", c=4.0, seed=3)
        d = res.domains.domains
        for e1, e2 in combinations(range(8), 2):
            assert set(d[e1]).isdisjoint(d[e2])
        # k uses the line graph's vertex count, i.e. the edge count of G
        assert res.params["k"] == math.ceil(4.0 * math.log2(g.m))

    def test_params_leave_owners_to_the_graph(self, path4):
        """An edge's simulating node is its higher endpoint, which the graph
        states; the result's params do not restate it."""
        res = edge_coloring_via_line_graph(path4, variant="random", seed=0)
        assert "owners" not in res.params and res.params["variant"] == "random"


class TestKuhn:
    def test_palette_formula_delta4_i2(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])  # delta 4
        res = kuhn_defective_edge_coloring(g, i=2, seed=1)
        assert pair_palette(res.params["numbers"]) == [(1, 1), (1, 2), (2, 2)]
        assert set(res.colors) <= {0, 1, 2}

    def test_one_round_and_defect(self):
        g = generate(GeneratorSpec("gnp", 256, p=12 / 255, seed=3))
        for seed in range(10):
            res = kuhn_defective_edge_coloring(g, i=3, seed=seed)
            assert res.report.comm_rounds == 1
            verdict, _ = check_edge_defect(g, res.colors, 4 * 3 - 2)
            assert verdict.ok

    def test_i_equal_delta_single_color(self, k4):
        res = kuhn_defective_edge_coloring(k4, i=3, seed=5)
        assert res.params["numbers"] == 1
        assert set(res.colors) == {pair_index(1, 1, 1)}

    def test_numbering_multiplicity_respected(self):
        g = generate(GeneratorSpec("clique", 9))  # delta 8
        res = kuhn_defective_edge_coloring(g, i=2, seed=7)
        from collections import Counter

        for v in range(g.n):
            counts = Counter(num for _, num in res.numbering[v])
            assert all(1 <= num <= res.params["numbers"] for num in counts)
            assert max(counts.values()) <= res.params["i"]
        assert res.params["numbers"] == 4

    def test_pair_index_is_palette_position(self):
        for numbers in range(1, 41):
            palette = pair_palette(numbers)
            assert [pair_index(a, b, numbers) for a, b in palette] == list(range(len(palette)))

    def test_numbering_matches_pairs(self):
        g = generate(GeneratorSpec("gnp", 32, p=0.2, seed=5))
        res = kuhn_defective_edge_coloring(g, i=2, seed=5)
        table = [dict(res.numbering[v]) for v in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            a, b = table[u][v], table[v][u]
            assert res.colors[e] == pair_index(min(a, b), max(a, b), res.params["numbers"])

    def test_i_out_of_range(self, k4):
        with pytest.raises(ValueError):
            kuhn_defective_edge_coloring(k4, i=0)

    def test_reachability_on_double_star(self):
        """Every palette color is attainable for the central edge of a double
        star (max degree 4, i=2): enumerate all valid endpoint numberings.

        A degree-1 endpoint can only ever assign number 1, so the classic
        star's outer edges cannot realize {2,2}; the central edge of the
        double star has two full-degree endpoints and reaches the whole
        palette.
        """
        # vertices 0-1 joined; 0 also joined to 2,3,4; 1 to 5,6,7
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        i = 2
        numbers = -(-g.max_degree // i)
        central = g.edge_id(0, 1)

        def valid_numberings(deg):
            nums = []
            for perm in permutations(range(deg)):
                assignment = tuple(pos // i + 1 for pos in perm)
                nums.append(assignment)
            return set(nums)

        reachable = set()
        for mine in valid_numberings(4):
            for theirs in valid_numberings(4):
                a, b = mine[0], theirs[0]  # number each endpoint gives edge 0-1
                reachable.add((a, b) if a <= b else (b, a))
        assert reachable == set(pair_palette(numbers))
        res = kuhn_defective_edge_coloring(g, i=i, seed=2)
        assert pair_palette(numbers)[res.colors[central]] in reachable


class TestSimpleEdgeColoring:
    def test_matching_colored_first_attempt(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        report = simple_edge_coloring(g, seed=1)
        assert report.rounds == 2
        assert check_edge_properness(g, report.outputs).ok

    def test_p4_palette_3(self, path4):
        report = simple_edge_coloring(path4, palette_size=3, seed=2)
        assert check_edge_properness(g=path4, edge_labels=report.outputs).ok
        assert not report.incomplete

    def test_k8_hundred_seeds(self):
        g = generate(GeneratorSpec("clique", 8))
        worst = 0
        for seed in range(100):
            report = simple_edge_coloring(g, palette_size=21, seed=seed)
            assert not report.incomplete
            assert check_edge_properness(g, report.outputs).ok
            worst = max(worst, report.rounds)
        assert worst <= 50

    def test_palette_too_small_rejected(self, k4):
        with pytest.raises(ValueError):
            simple_edge_coloring(k4, palette_size=4)  # 2*3-1 = 5 needed


class TestMaximalMatching:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        m = maximal_matching(g, range(g.m), seed=0)
        assert m.edges == frozenset({0})

    def test_p3_one_of_two(self):
        g = generate(GeneratorSpec("path", 3))
        seen = set()
        for seed in range(10):
            m = maximal_matching(g, range(g.m), seed=seed)
            assert len(m.edges) == 1
            seen |= m.edges
        assert seen == {0, 1}  # both outcomes occur across seeds

    def test_many_seeds_checker(self):
        g = generate(GeneratorSpec("gnp", 512, p=8 / 511, seed=9))
        for seed in range(20):
            m = maximal_matching(g, range(g.m), seed=seed)
            assert not m.report.incomplete
            assert check_matching(g, m.edges, range(g.m)).ok


# G(n, p) over seeds, paths and cliques from n = 0, stars, isolated vertices,
# and disjoint 2-edge paths: a path whose edges both fix sends "fixed" only to
# halted edges, while the other paths go on
SWEEP_GRAPHS = (
    [generate(GeneratorSpec("gnp", 60, p=0.08, seed=s)) for s in range(6)]
    + [generate(GeneratorSpec(kind, n)) for kind in ("path", "clique") for n in (0, 1, 2, 5, 9)]
    + [Graph.from_edges(n, [(0, v) for v in range(1, n)]) for n in (3, 12)]
    + [Graph.from_edges(9, [(1, 2), (4, 5), (5, 6)]),
       Graph.from_edges(24, [(v, v + 1) for v in range(24) if v % 3 < 2])])


class TestSweepsMatchPrograms:
    """Each sweep gives the whole report its node program gives under
    ``run_sync``: outputs, rounds, comm_rounds, messages and incomplete,
    under the public entry point's budget and under budgets that run out."""

    @pytest.mark.parametrize("g", SWEEP_GRAPHS)
    def test_proposal_coloring(self, g):
        delta = max(g.max_degree, 1)
        full = 24 * (int(math.log2(g.m + 2)) + 2)
        lg = line_graph(g)
        for palette in (2 * delta - 1, 3 * delta):
            for seed in (0, 5):
                reference = run_sync(_ProposalColoringProgram(palette), lg, seed, max_rounds=full)
                assert simple_edge_coloring(g, palette_size=palette, seed=seed) == reference
                for budget in (1, 2, 3, 5):
                    assert _proposal_sweep(g, palette, seed, budget) == run_sync(
                        _ProposalColoringProgram(palette), lg, seed, max_rounds=budget)

    @pytest.mark.parametrize("g", SWEEP_GRAPHS)
    def test_matching(self, g):
        """Among all of G's edges or a subset, the sweep is the program on G's
        vertices and those edges, and the matching is given in G's edge ids."""
        full = 48 * (int(math.log2(g.n + 2)) + 2)
        odd_lower = [e for e, (u, v) in enumerate(g.edges) if min(u, v) % 2]
        for subset in (range(g.m), range(0, g.m, 2), odd_lower):
            h = Graph.from_edges(g.n, [g.edges[e] for e in subset])
            for seed in (0, 5):
                reference = run_sync(_MatchingProgram(), h, seed, max_rounds=full)
                match = maximal_matching(g, subset, seed=seed)
                assert match.report == reference
                assert match.edges == {g.edge_id(v, u) for v, u in enumerate(reference.outputs)
                                       if u is not None}
                for budget in (1, 2, 3, 4, 5):
                    assert _matching_sweep(g, subset, seed, budget) == run_sync(
                        _MatchingProgram(), h, seed, max_rounds=budget)

    def test_matching_key_ties(self, monkeypatch):
        """Keys cut to two bits tie often, so picks fall to the (lo, hi) order.
        Both draw paths are cut, the program's ``Stream.draw_u64`` and the
        sweep's ``u64_draws``, and the cut changes the sweep's reports, so a
        cut that missed either path would fail."""
        runs = [(g, seed) for g in SWEEP_GRAPHS for seed in (0, 5)]
        uncut = [_matching_sweep(g, range(g.m), seed, 10_000) for g, seed in runs]
        draw_u64, u64_draws = Stream.draw_u64, edge_coloring.u64_draws
        monkeypatch.setattr(Stream, "draw_u64", lambda self: draw_u64(self) & 3)
        monkeypatch.setattr(edge_coloring, "u64_draws",
                            lambda *args: [key & 3 for key in u64_draws(*args)])
        cut = [_matching_sweep(g, range(g.m), seed, 10_000) for g, seed in runs]
        assert cut == [run_sync(_MatchingProgram(), g, seed, max_rounds=10_000)
                       for g, seed in runs]
        assert cut != uncut

    def test_budgets_run_out(self):
        """The short budgets above stop runs part way, with some edges done."""
        g = SWEEP_GRAPHS[0]
        coloring = _proposal_sweep(g, 3 * g.max_degree, 0, 3)
        assert coloring.incomplete and None in coloring.outputs
        assert any(c is not None for c in coloring.outputs)
        matching = _matching_sweep(g, range(g.m), 0, 4)
        assert matching.incomplete and any(u is not None for u in matching.outputs)


class TestDominating:
    def test_class_of_partitions_the_base_palette(self, monkeypatch):
        """Delta 4, c 3: palette 12 in 2 classes of width 6; an uncolored edge
        gets class 0."""
        monkeypatch.setattr(edge_coloring, "simple_edge_coloring",
                            lambda *a, **k: RunReport(1, 1, 0, outputs=(0, 5, 6, 11, None)))
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        res = dominating_edge_coloring(g, c=3, t=3, seed=0)
        assert (res.params["base_palette"], res.params["classes"],
                res.params["class_width"]) == (12, 2, 6)
        assert res.class_of == (1, 1, 2, 2, 0)

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        res = dominating_edge_coloring(g, c=3, t=3, seed=1)
        assert res.dominating == frozenset({0})
        assert res.domains.domains[0] == (0, 1, 2)

    def test_full_checkers_over_seeds(self):
        g = generate(GeneratorSpec("gnp", 512, p=4.5 / 511, seed=11))
        for seed in range(5):
            res = dominating_edge_coloring(g, c=3, t=3, seed=seed)
            assert not res.report.incomplete
            assert check_edge_dominating(g, res.dominating).ok
            for cls in range(1, res.params["classes"] + 1):
                members = [e for e in range(g.m) if res.class_of[e] == cls]
                matched = [e for e in members if e in res.dominating]
                assert check_matching(g, matched, members).ok

    def test_joint_selection_proper(self):
        g = generate(GeneratorSpec("gnp", 256, p=5 / 255, seed=4))
        res = dominating_edge_coloring(g, c=3, t=3, seed=4)
        rng = Stream(123, 0)
        for _ in range(200):
            labels: list = [None] * g.m
            for e in sorted(res.dominating):
                pool = sorted(res.domains.domains[e])
                labels[e] = pool[rng.draw_uniform(len(pool))]
            assert check_edge_properness(g, labels).ok

    def test_contingency_is_sqrt_delta(self):
        g = generate(GeneratorSpec("gnp", 128, p=8 / 127, seed=2))
        res = dominating_edge_coloring(g, c=3, t=3, seed=2)
        s = math.isqrt(g.max_degree)
        if s * s < g.max_degree:
            s += 1
        from genlabel.verify import metrics

        assert metrics(res.domains.palette, res.domains.sizes())["contingency_factor"] == f"{s}/1"

    def test_rejects_bad_params(self, k4):
        with pytest.raises(ValueError):
            dominating_edge_coloring(k4, c=2)
        with pytest.raises(ValueError):
            dominating_edge_coloring(k4, t=1)
