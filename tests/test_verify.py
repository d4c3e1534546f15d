from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlabel import GeneratorSpec, Graph, LabelDomain, generate
from genlabel.verify import (
    check_defective_domains,
    check_defective_labels,
    check_domain_floor,
    check_domains_disjoint,
    check_edge_defect,
    check_edge_domains_disjoint,
    check_edge_dominating,
    check_edge_properness,
    check_forest_labeling,
    check_matching,
    check_network_decomposition,
    check_proper_vertex,
    metrics,
    Verdict,
    _UnionFind,
)


def vdom(palette, *sets, stride=1):
    """Vertex domains of the given label sets; equal sets share one tuple
    object, as the domains of cv3-expansion do."""
    held: dict[frozenset, tuple] = {}
    return LabelDomain(kind="vertex", palette=palette, stride=stride, domains={
        i: held.setdefault(frozenset(s), tuple(sorted(s))) for i, s in enumerate(sets)})


class TestProperVertex:
    def test_triangle_proper(self, triangle):
        assert check_proper_vertex(triangle, [0, 1, 2]).ok

    def test_triangle_improper_reports_edge(self, triangle):
        v = check_proper_vertex(triangle, [0, 0, 1])
        assert not v.ok and v.counterexample == [0, 1]

    def test_edgeless_constant(self):
        g = Graph.from_edges(3, [])
        assert check_proper_vertex(g, [5, 5, 5]).ok

    def test_missing_label_incomplete(self, triangle):
        v = check_proper_vertex(triangle, [0, None, 1])
        assert not v.ok and v.status == "incomplete"


class TestDisjoint:
    def test_disjoint_pair(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert check_domains_disjoint(g, vdom(5, {1, 2}, {3, 4})).ok

    def test_overlapping_pair(self):
        g = Graph.from_edges(2, [(0, 1)])
        v = check_domains_disjoint(g, vdom(5, {1, 2}, {2, 3}))
        assert not v.ok and v.status == "violated"

    def test_empty_domain_degenerate(self):
        g = Graph.from_edges(2, [(0, 1)])
        v = check_domains_disjoint(g, vdom(5, {1}, set()))
        assert not v.ok and v.status == "degenerate"

    def test_disjoint_path4(self, path4):
        dom = vdom(8, {0, 1}, {2, 3}, {4, 5}, {6, 7})
        assert check_domains_disjoint(path4, dom).ok

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_every_joint_selection(self, data):
        """The structural check against its meaning: domains pass exactly
        when every joint selection, one label per vertex, is proper."""
        n = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph.from_edges(n, edges)
        sets = [data.draw(st.frozensets(st.integers(0, 3), min_size=1, max_size=3))
                for _ in range(n)]
        dom = vdom(4, *sets)
        picks = product(*(sorted(dom.domains[v]) for v in range(g.n)))
        assert check_domains_disjoint(g, dom).ok == \
            all(check_proper_vertex(g, list(pick)).ok for pick in picks)


def edom(palette, *sets):
    return LabelDomain(kind="edge", palette=palette,
                       domains={e: tuple(sorted(s)) for e, s in enumerate(sets)})


class TestDomainFloor:
    def test_floor_met(self):
        v = check_domain_floor(vdom(6, {0, 1}, {2, 3, 4}), 2)
        assert (v.ok, v.status, v.detail) == (True, "ok", "min domain 2 vs floor 2")

    def test_floor_missed(self):
        v = check_domain_floor(vdom(6, {0}, {2, 3, 4}), 2)
        assert (v.ok, v.status, v.detail) == (False, "violated", "min domain 1 vs floor 2")

    def test_no_entities_pass_vacuously(self):
        assert check_domain_floor(vdom(6), 5).ok


class TestEdgeDomainsDisjoint:
    """The only verdict of edge-random and edge-delta2: edges that share an
    endpoint hold disjoint label sets."""

    def test_shared_endpoint_overlap_violated(self, path4):
        # path 0-1-2-3: edges 1=(1,2) and 2=(2,3) meet at vertex 2 and share 4 and 5
        v = check_edge_domains_disjoint(path4, edom(8, {0, 1}, {2, 4, 5}, {5, 4, 7}))
        assert (v.ok, v.status) == (False, "violated")
        assert v.counterexample == [1, 2]
        assert v.detail == "edges 1,2 share label 4 at vertex 2"

    def test_overlap_without_common_endpoint_ok(self, path4):
        # edges 0=(0,1) and 2=(2,3) hold the same labels but share no vertex
        v = check_edge_domains_disjoint(path4, edom(8, {3, 6}, {0, 1}, {3, 6}))
        assert v.ok and v.status == "ok"

    def test_empty_domain_degenerate(self, path4):
        v = check_edge_domains_disjoint(path4, edom(8, {0}, set(), {1}))
        assert (v.ok, v.status, v.counterexample) == (False, "degenerate", 1)

    def test_vertex_domains_rejected(self, path4):
        with pytest.raises(ValueError, match="applies to edge domains"):
            check_edge_domains_disjoint(path4, vdom(8, {0}, {1}, {2}, {3}))

    @staticmethod
    def pairwise_scan(g, dom):
        """The check's definition: intersect every pair of domains held by
        edges at each vertex, in adjacency order."""
        name = "edge-domains-disjoint"
        for e, d in dom.domains.items():
            if not d:
                return Verdict(name, False, "degenerate", f"edge {e} has an empty domain", e)
        sets = {e: frozenset(d) for e, d in dom.domains.items()}
        for v in range(g.n):
            incident = [e for e in (g.edge_id(v, u) for u in g.adjacency[v]) if e in sets]
            for i, a in enumerate(incident):
                for b in incident[i + 1:]:
                    if sets[a] & sets[b]:
                        return Verdict(name, False, "violated",
                                       f"edges {a},{b} share label "
                                       f"{min(sets[a] & sets[b])} at vertex {v}", [a, b])
        return Verdict(name, True)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_counting_matches_pairwise_scan(self, data):
        """Domains drawn from six labels, sorted with repeats allowed, some
        empty and some missing from the map, on a random graph of 1 to 7
        vertices: the counting check gives the scan's verdict."""
        n = data.draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, data.draw(st.lists(st.sampled_from(pairs), max_size=12))
                             if pairs else [])
        domain = st.lists(st.integers(0, 5), max_size=4).map(lambda d: tuple(sorted(d)))
        held = data.draw(st.lists(st.none() | domain, min_size=g.m, max_size=g.m))
        dom = LabelDomain(kind="edge", palette=6,
                          domains={e: d for e, d in enumerate(held) if d is not None})
        assert check_edge_domains_disjoint(g, dom) == self.pairwise_scan(g, dom)


class TestDefective:
    def test_proper_coloring_defect_zero(self, triangle):
        verdict, worst = check_defective_labels(triangle, [0, 1, 2], 0)
        assert verdict.ok and worst == 0

    def test_monochromatic_k4(self, k4):
        verdict, worst = check_defective_labels(k4, [7, 7, 7, 7], 2)
        assert not verdict.ok and worst == 3

    def test_domains_mode(self, triangle):
        dom = vdom(4, {0, 1}, {1, 2}, {3})
        verdict, worst = check_defective_domains(triangle, dom, 1)
        assert verdict.ok and worst == 1
        verdict, _ = check_defective_domains(triangle, dom, 0)
        assert not verdict.ok


class TestEdgeCheckers:
    def test_star_proper_edges(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert check_edge_properness(g, [1, 2, 3]).ok
        assert not check_edge_properness(g, [1, 1, 2]).ok

    def test_partial_coloring_allowed(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert check_edge_properness(g, [1, None, 1]).ok is False
        assert check_edge_properness(g, [1, None, 2]).ok

    def test_dominating_p3_middle(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert check_edge_dominating(g, [1]).ok
        assert not check_edge_dominating(g, [0]).ok  # (2,3) undominated

    def test_edge_defect_counts(self, k4):
        verdict, worst = check_edge_defect(k4, [1, 1, 1, 1, 1, 1], 10)
        assert verdict.ok and worst == 4  # each K4 edge meets 4 others

    def test_matching_checker(self, path4):
        assert check_matching(path4, [0, 2], range(path4.m)).ok
        assert not check_matching(path4, [0, 1], range(path4.m)).ok  # shares vertex 1
        assert not check_matching(path4, [0], range(path4.m)).ok  # edge 2 still addable

    def test_matching_checker_on_a_subset(self, path4):
        """Maximality is among ``edges`` only, and verdicts name G's edge ids."""
        assert check_matching(path4, [0], [0, 1]).ok  # edge 2 is addable but outside
        assert check_matching(path4, [1], [0, 2]).ok
        verdict = check_matching(path4, [0], [0, 2])
        assert not verdict.ok and verdict.counterexample == 2
        assert verdict.detail.startswith("edge 2=(2,3) ")
        verdict = check_matching(path4, [0, 1], [0, 1])
        assert not verdict.ok and verdict.counterexample == 1
        assert verdict.detail.startswith("edge 1 ")


@st.composite
def forest_labelings(draw):
    """A small graph with an edge labeling that may break any rule: labels
    out of range, a repeated label at an assigner, or a cycle in a class."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=min(n, len(pairs)),
                          unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    assigner = [draw(st.sampled_from(edge)) for edge in g.edges]
    label_count = max(1, max(map(assigner.count, range(n))) - draw(st.integers(0, 1)))
    # each vertex deals out its own order of the labels, repeating once it
    # has assigned them all; one label may then be overwritten by any value
    orders = [draw(st.permutations(range(1, label_count + 1))) for _ in range(n)]
    dealt = [0] * n
    labels = []
    for v in assigner:
        labels.append(orders[v][dealt[v] % label_count])
        dealt[v] += 1
    if g.m and not draw(st.integers(0, 3)):
        labels[draw(st.integers(0, g.m - 1))] = draw(st.integers(0, label_count + 1))
    return g, labels, assigner, label_count


def forest_reference(g, edge_labels, assigner, label_count):
    """The forest checker by its definition: one union-find pass over every
    edge for each label in 1..label_count."""
    name = "forest-labeling"
    used = [set() for _ in range(g.n)]
    for e in range(g.m):
        lbl, v = edge_labels[e], assigner[e]
        if not 1 <= lbl <= label_count:
            return Verdict(name, False, "violated",
                           f"edge {e} labeled {lbl} outside 1..{label_count}", e)
        if lbl in used[v]:
            return Verdict(name, False, "violated",
                           f"vertex {v} assigned label {lbl} to two of its edges", v)
        used[v].add(lbl)
    for lbl in range(1, label_count + 1):
        uf = _UnionFind(g.n)
        for e, (u, v) in enumerate(g.edges):
            if edge_labels[e] == lbl and not uf.union(u, v):
                return Verdict(name, False, "violated",
                               f"label class {lbl} contains a cycle through edge {e}", e)
    return Verdict(name, True)


class TestForestChecker:
    def test_triangle_single_class_cycle(self, triangle):
        # assigners all distinct so only the class-1 cycle can trip the check
        v = check_forest_labeling(triangle, [1, 1, 1], [0, 2, 1], 1)
        assert not v.ok and "cycle" in v.detail

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert check_forest_labeling(g, [1], [0], 1).ok

    def test_duplicate_label_at_assigner(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        v = check_forest_labeling(g, [1, 1], [0, 0], 2)
        assert not v.ok and "two of its edges" in v.detail

    def test_first_cycle_in_lowest_label(self):
        """Two label classes each close a cycle; the lower label is reported,
        at the edge that closes its cycle."""
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        v = check_forest_labeling(g, [2, 2, 2, 1, 1, 1], [0, 2, 1, 3, 5, 4], 2)
        assert not v.ok and v.counterexample == g.edge_id(4, 5)
        assert "label class 1" in v.detail

    @given(forest_labelings())
    @settings(max_examples=300, deadline=None)
    def test_matches_one_pass_per_label(self, case):
        """The checker against its definition, written out: the range and
        assigner scan, then one union-find over all edges for each label
        1..label_count in turn; the first failure is reported."""
        g, labels, assigner, label_count = case
        assert check_forest_labeling(g, labels, assigner, label_count) == \
            forest_reference(g, labels, assigner, label_count)


class TestNetworkDecomposition:
    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        dom = vdom(2, {0, 1})
        verdict, measured = check_network_decomposition(g, dom, 0, 2)
        assert verdict.ok and measured["distinct_labels"] == 2

    def test_far_vertices_sharing_label_fail(self):
        g = generate(GeneratorSpec("path", 10))
        domains = {v: (100,) if v in (0, 9) else (v,) for v in range(10)}
        dom = LabelDomain(kind="vertex", palette=101, domains=domains)
        verdict, _ = check_network_decomposition(g, dom, 4, 100)
        assert not verdict.ok

    def test_disconnected_holders_fail(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dom = vdom(1, {0}, {0}, {0}, {0})
        verdict, _ = check_network_decomposition(g, dom, 100, 100)
        assert not verdict.ok

    def test_nonuniform_sizes_fail(self):
        g = Graph.from_edges(2, [(0, 1)])
        dom = vdom(4, {0, 1}, {2})
        verdict, _ = check_network_decomposition(g, dom, 2, 10)
        assert not verdict.ok


class TestMetrics:
    def test_simple_ratio(self):
        dom = vdom(9, {0, 1, 2}, {3, 4, 5, 6})
        rep = metrics(dom.palette, dom.sizes())
        assert rep["contingency_factor"] == "3/1"
        assert rep["solution_domain_min"] == 3
        assert rep["solution_domain_max"] == 4

    def test_forest_view_contingency_one(self):
        """Five edges that may each take any of 3 labels."""
        assert metrics(3, [3] * 5)["contingency_factor"] == "1/1"

    def test_no_entity_contingency_zero(self):
        doc = metrics(1, [])
        assert (doc["solution_domain_min"], doc["contingency_factor"]) == (0, "0/1")

    def test_document_shape(self):
        dom = vdom(6, {0, 1}, {2, 3, 4})
        doc = metrics(dom.palette, dom.sizes(), [Verdict(name="x", ok=True)])
        assert doc == {"problem_domain_size": 6, "solution_domain_min": 2,
                       "solution_domain_median": 2, "solution_domain_max": 3,
                       "contingency_factor": "3/1",
                       "verdicts": [{"name": "x", "ok": True, "status": "ok"}]}
        assert list(doc) == ["problem_domain_size", "solution_domain_min",
                             "solution_domain_median", "solution_domain_max",
                             "contingency_factor", "verdicts"]


def test_checkers_do_not_import_algorithm_modules():
    """Dependency direction: the checker module imports only the graph and
    label-domain types from the package, no algorithm module and no RNG, so
    it can serve as the algorithms' oracle."""
    import ast

    import genlabel.verify as verify_mod

    tree = ast.parse(open(verify_mod.__file__).read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("genlabel") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package.add(node.module)
            else:
                assert not (node.module or "").startswith("genlabel")
    assert package == {"graphs", "labels"}
