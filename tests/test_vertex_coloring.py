from dataclasses import replace

import pytest

from genlabel import (
    GeneratorSpec,
    Graph,
    Stream,
    cole_vishkin_3coloring,
    edge_coloring_via_line_graph,
    expand_to_generic,
    generate,
    generic_defective_coloring,
    generic_delta2_coloring,
    generic_random_coloring,
    line_graph,
    log_star,
    orient_by_id,
    orient_forest,
    runtime,
    smallest_prime_geq,
    vertex_coloring,
)
from genlabel.decomposition import h_partition
from genlabel.runtime import run_sync
from genlabel.vertex_coloring import (
    InvariantError,
    PolyFamily,
    _DrawPruneProgram,
    _PipelineProgram,
    _run_pipeline,
    draw_and_prune,
)
from genlabel.verify import (
    check_defective_domains,
    check_domains_disjoint,
    check_proper_vertex,
    metrics,
)
from test_edge_coloring import SWEEP_GRAPHS


class TestColeVishkin:
    def test_single_vertex_fixed_color(self):
        g = Graph.from_edges(1, [])
        res = cole_vishkin_3coloring(g, orient_forest(g))
        assert res.colors == (0,)

    def test_directed_path_10k(self):
        g = generate(GeneratorSpec("path", 10_000))
        res = cole_vishkin_3coloring(g, orient_forest(g))
        assert check_proper_vertex(g, res.colors).ok
        assert set(res.colors) <= {0, 1, 2}

    def test_random_tree_rounds(self):
        g = generate(GeneratorSpec("random-tree", 4096, seed=11))
        res = cole_vishkin_3coloring(g, orient_forest(g))
        assert check_proper_vertex(g, res.colors).ok
        assert res.report.rounds <= log_star(4096) + 10
        assert not res.report.incomplete

    def test_forest_with_many_components(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)])
        res = cole_vishkin_3coloring(g, orient_forest(g))
        assert check_proper_vertex(g, res.colors).ok

    def test_rejects_out_degree_two(self, k4):
        with pytest.raises(ValueError, match="out-degree"):
            cole_vishkin_3coloring(k4, orient_by_id(k4))


class TestExpand:
    def test_direct_construction(self):
        dom = expand_to_generic([2, 0], delta=3)
        assert dom.domains[0] == (2, 5, 8)  # (i, 2) -> i*3+2
        assert dom.palette == 9

    def test_adjacent_domains_disjoint(self):
        g = generate(GeneratorSpec("path", 3))
        res = cole_vishkin_3coloring(g, orient_forest(g))
        dom = expand_to_generic(res.colors, delta=2)
        assert check_domains_disjoint(g, dom).ok

    def test_contingency_three_on_path(self):
        g = generate(GeneratorSpec("path", 3))
        res = cole_vishkin_3coloring(g, orient_forest(g))
        dom = expand_to_generic(res.colors, delta=2)
        assert metrics(dom.palette, dom.sizes())["contingency_factor"] == "3/1"
        assert all(len(d) == 2 for d in dom.domains.values())

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            expand_to_generic([0, 1], 0)

    def test_expansion_validity_mirrors_base_properness(self):
        """The expanded domains are valid (pairwise disjoint on edges) exactly
        when the base 3-coloring is proper."""
        g = Graph.from_edges(2, [(0, 1)])
        assert check_domains_disjoint(g, expand_to_generic([0, 1], 3)).ok
        assert not check_domains_disjoint(g, expand_to_generic([1, 1], 3)).ok

    def test_rejects_wide_palette(self):
        with pytest.raises(ValueError):
            expand_to_generic([0, 4], 2)


class TestRandomColoring:
    def test_isolated_vertex_keeps_everything(self):
        g = Graph.from_edges(1, [])
        res = generic_random_coloring(g, c=4.0, seed=5)
        assert len(res.domains.domains[0]) == res.params["k"]

    def test_exactly_one_comm_round(self, k4):
        res = generic_random_coloring(k4, c=4.0, seed=1)
        assert res.report.comm_rounds == 1

    def test_symmetric_removal_of_shared_draw(self):
        """Find a seed where the two endpoints of an edge drew the same tagged
        value; neither surviving domain may contain it."""
        g = Graph.from_edges(2, [(0, 1)])
        k, rng_range = 4, 4  # delta=2 -> range 4: collisions are common
        found = False
        for seed in range(200):
            d0 = Stream(seed, 0).draw_many(k, rng_range)
            d1 = Stream(seed, 1).draw_many(k, rng_range)
            shared = {i * rng_range + x for (i, x), y in zip(enumerate(d0), d1) if x == y}
            if not shared:
                continue
            found = True
            res = generic_random_coloring(g, c=4.0, seed=seed, delta=2)
            assert res.params["k"] == k
            for v in (0, 1):
                assert shared.isdisjoint(res.domains.domains[v])
            break
        assert found

    def test_disjointness_deterministic(self):
        g = generate(GeneratorSpec("gnp", 256, p=0.02, seed=3))
        for seed in range(5):
            res = generic_random_coloring(g, c=4.0, seed=seed)
            assert check_domains_disjoint(g, res.domains).ok

    def test_clique_retention_mean(self):
        """On K_17 every vertex is pruned by all 16 neighbors; the *expected*
        survival is ~0.6k, so the mean over trials clears k/2 even though
        single trials routinely dip below it at k=40."""
        g = generate(GeneratorSpec("clique", 17))
        total = runs = k = 0
        for seed in range(30):
            res = generic_random_coloring(g, c=4.0, seed=seed, delta=16)
            k = res.params["k"]
            sizes = res.domains.sizes()
            total += sum(sizes)
            runs += len(sizes)
        assert total / runs >= k / 2

    def test_palette_and_stride(self, k4):
        res = generic_random_coloring(k4, c=4.0, seed=2)
        assert res.domains.stride == 2 * res.params["delta"]
        assert res.domains.palette == res.domains.stride * res.params["k"]
        for dom in res.domains.domains.values():
            assert dom and 0 <= min(dom) and max(dom) < res.domains.palette

    def test_rejects_low_delta_bound(self, k4):
        with pytest.raises(ValueError):
            generic_random_coloring(k4, delta=1)


def _roots(orientation) -> frozenset:
    return frozenset(v for v in range(orientation.graph.n) if not orientation.out_degree(v))


class TestDrawPruneEngines:
    """The centralized sweep against the message-passing program, each node
    drawing on its own stream: the same run report, outputs included, and
    the same vertices left empty."""

    @staticmethod
    def assert_agree(g, k, value_range, receivers, quiet, seeds=range(3)):
        for seed in seeds:
            program = run_sync(_DrawPruneProgram(k, value_range, receivers, quiet), g, seed)
            _, report, failed = draw_and_prune(g, seed, k, value_range, receivers, quiet)
            assert report == program
            assert failed == tuple(v for v, domain in enumerate(program.outputs)
                                   if not domain)
        return program

    @pytest.mark.parametrize("n,p", [(2, 1.0), (30, 0.1), (120, 0.05), (60, 0.4)])
    @pytest.mark.parametrize("k,value_range", [(1, 2), (5, 3), (12, 40)])
    def test_gnp(self, n, p, k, value_range):
        g = generate(GeneratorSpec("gnp", n, p=p, seed=n))
        report = self.assert_agree(g, k, value_range, g.adjacency, frozenset())
        assert report.messages_total == 2 * g.m

    def test_some_vertices_fail(self):
        """A tiny value range empties some domains, and the sweep and the
        program agree on which."""
        g = generate(GeneratorSpec("clique", 12))
        assert draw_and_prune(g, 0, 2, 2, g.adjacency, frozenset())[2]
        self.assert_agree(g, 2, 2, g.adjacency, frozenset())

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_arboricity_orientation_with_quiet_roots(self, a):
        g = generate(GeneratorSpec("forest-union", 80, a=a, seed=a))
        orientation = h_partition(g, a).orientation
        self.assert_agree(g, 6, 4, orientation.children(), _roots(orientation))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_graphs(self, n):
        g = Graph.from_edges(n, [])
        report = self.assert_agree(g, 4, 8, g.adjacency, frozenset())
        assert (report.rounds, report.comm_rounds, report.messages_total) == (2 * n, 0, 0)

    def test_isolated_vertices(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2)])
        self.assert_agree(g, 5, 2, g.adjacency, frozenset())

    def test_all_quiet(self):
        """Every vertex halts before the exchange: one round, no delivery,
        every draw kept, and the messages sent are still counted."""
        g = generate(GeneratorSpec("clique", 6))
        report = self.assert_agree(g, 5, 2, g.adjacency, frozenset(range(6)))
        assert (report.rounds, report.comm_rounds, report.messages_total) == (1, 0, 30)
        assert all(len(domain) == 5 for domain in report.outputs)

    def test_star(self):
        g = Graph.from_edges(41, [(0, v) for v in range(1, 41)])
        self.assert_agree(g, 8, 6, g.adjacency, frozenset())
        orientation = orient_forest(g)
        self.assert_agree(g, 8, 6, orientation.children(), _roots(orientation))

    @pytest.mark.parametrize("k,value_range", [(2, 2**63), (3, 2**63), (3, 2**64 + 5)])
    def test_wide_labels(self, k, value_range):
        """Labels at and past 64 bits: a palette of 2**64 still fits uint64, a
        wider one keeps the labels as Python ints, and a value range above
        2**64 is drawn row by row."""
        g = generate(GeneratorSpec("gnp", 20, p=0.3, seed=1))
        self.assert_agree(g, k, value_range, g.adjacency, frozenset())


class TestDelta2:
    def test_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        res = generic_delta2_coloring(g)
        assert all(len(d) >= 1 for d in res.domains.domains.values())

    def test_tree_with_degree_cap(self):
        g = generate(GeneratorSpec("random-tree", 4096, max_deg=10, seed=17))
        delta = g.max_degree
        res = generic_delta2_coloring(g)
        q_f = smallest_prime_geq(max(3 * delta, 2))
        assert res.domains.stride == q_f
        assert res.domains.palette == q_f * q_f
        assert res.domains.min_size >= delta
        assert check_domains_disjoint(g, res.domains).ok
        assert res.report.comm_rounds <= log_star(4096) + 6

    def test_clique_disjoint_and_bounded(self):
        g = generate(GeneratorSpec("clique", 5))  # Delta=4, q_f=13
        res = generic_delta2_coloring(g)
        assert check_domains_disjoint(g, res.domains).ok
        assert sum(res.domains.sizes()) <= 169
        # clique sanity: disjointness forces min domain <= palette/(Delta+1)
        assert res.domains.min_size <= res.domains.palette // 5

    def test_deterministic(self):
        g = generate(GeneratorSpec("gnp", 200, p=0.03, seed=8))
        a = generic_delta2_coloring(g)
        b = generic_delta2_coloring(g)
        assert a.domains.domains == b.domains.domains

    def test_multi_step_reduction_path(self):
        # small degree forces q_f^3 below n, exercising reduction rounds
        g = generate(GeneratorSpec("path", 4096))
        res = generic_delta2_coloring(g)
        assert res.params["reduction_steps"]
        assert check_domains_disjoint(g, res.domains).ok
        assert res.domains.min_size >= 2


# graphs whose pipelines take one or two reduction steps for rho in {0, 1, 2}
REDUCING_GRAPHS = [generate(GeneratorSpec("path", 400)),
                   generate(GeneratorSpec("random-tree", 2000, max_deg=3, seed=0))]


class TestPipelineMatchesProgram:
    """``_run_pipeline``'s sweep gives the domains and the report of
    ``_PipelineProgram`` under ``run_sync`` with the program's budget."""

    @staticmethod
    def assert_matches(g, delta, rho):
        res = _run_pipeline(g, delta, rho)
        steps = [tuple(s) for s in res.params["reduction_steps"]]
        program = _PipelineProgram(steps, res.domains.stride, rho)
        reference = run_sync(program, g, 0, max_rounds=len(steps) + 2)
        assert res.domains.domains == {v: tuple(sorted(reference.outputs[v]))
                                       for v in range(g.n)}
        assert res.report == replace(reference, outputs=())
        return res

    @pytest.mark.parametrize("g", SWEEP_GRAPHS + REDUCING_GRAPHS)
    @pytest.mark.parametrize("rho", [0, 1, 2])
    def test_graph(self, g, rho):
        self.assert_matches(g, max(g.max_degree, 1), rho)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_line_graph(self, seed):
        g = generate(GeneratorSpec("gnp", 40, p=0.1, seed=seed))
        for rho in (0, 1, 2):
            self.assert_matches(line_graph(g), 2 * g.max_degree - 1, rho)

    def test_reduction_steps_taken(self):
        assert all(_run_pipeline(g, g.max_degree, rho).params["reduction_steps"]
                   for g in REDUCING_GRAPHS for rho in (0, 1, 2))

    def test_production_never_reaches_run_sync(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the round engine ran")
        monkeypatch.setattr(runtime, "_run_rounds", refuse)
        g = REDUCING_GRAPHS[0]
        generic_delta2_coloring(g)
        generic_defective_coloring(g, p=1)
        edge_coloring_via_line_graph(generate(GeneratorSpec("gnp", 40, p=0.1, seed=0)),
                                     variant="delta2")

    def test_neighbours_sharing_the_colour_are_not_counted(self, monkeypatch):
        """A hand-off colouring in which pairs of path neighbours share a colour:
        the residual round leaves those neighbours out, as the program does."""
        monkeypatch.setattr(vertex_coloring, "_reduce_color",
                            lambda fam, node, color, others: node // 2)
        self.assert_matches(REDUCING_GRAPHS[0], 2, 0)

    def test_first_broken_vertex_is_the_programs(self, monkeypatch):
        """With point sets cut to one element, some vertex's set is covered;
        the sweep raises for the same vertex as the program."""
        monkeypatch.setattr(PolyFamily, "elements", lambda self, i: frozenset({i % 7}))
        g = REDUCING_GRAPHS[1]
        with pytest.raises(InvariantError) as sweep:
            _run_pipeline(g, g.max_degree, 0)
        program = _PipelineProgram([(2, 13)], 11, 0)  # the tree's plan for rho 0
        with pytest.raises(InvariantError) as reference:
            run_sync(program, g, 0, max_rounds=3)
        assert str(sweep.value) == str(reference.value)
        assert not str(sweep.value).startswith("vertex 0:")


class TestDefective:
    def test_p_equals_delta(self):
        g = generate(GeneratorSpec("clique", 5))
        res = generic_defective_coloring(g, p=4)
        verdict, worst = check_defective_domains(g, res.domains, 4)
        assert verdict.ok and worst <= 4

    def test_defect_condition_scan(self):
        g = generate(GeneratorSpec("gnp", 1024, p=9 / 1023, seed=5))
        p = 4
        res = generic_defective_coloring(g, p=p)
        verdict, _ = check_defective_domains(g, res.domains, p)
        assert verdict.ok
        assert res.domains.min_size >= res.params["domain_floor"]
        assert res.domains.palette == res.domains.stride ** 2

    def test_clique_counting_bound(self):
        """On K_{Delta+1} each label can sit in at most p+1 domains, so the
        domain mass is at most palette*(p+1)."""
        g = generate(GeneratorSpec("clique", 9))  # Delta = 8
        res = generic_defective_coloring(g, p=2)
        verdict, _ = check_defective_domains(g, res.domains, 2)
        assert verdict.ok
        from collections import Counter

        usage = Counter(x for d in res.domains.domains.values() for x in d)
        assert max(usage.values()) <= 3  # p + 1
        assert sum(res.domains.sizes()) <= res.domains.palette * 3

    def test_p_out_of_range(self, k4):
        with pytest.raises(ValueError):
            generic_defective_coloring(k4, p=0)
        with pytest.raises(ValueError):
            generic_defective_coloring(k4, p=4)

    def test_rounds_budget(self):
        g = generate(GeneratorSpec("gnp", 1024, p=9 / 1023, seed=6))
        res = generic_defective_coloring(g, p=2)
        assert res.report.comm_rounds <= log_star(1024) + 6
