import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlabel import (
    GeneratorSpec,
    Graph,
    dump_edge_list,
    forest_union_parts,
    generate,
    line_graph,
    load_edge_list,
    log_star,
    orient_by_id,
    orient_forest,
)
from genlabel.graphs import EdgeListError


def is_acyclic_undirected(n, edges):
    """Union-find oracle: an edge joining an already-joined pair closes a cycle."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def topological_order_exists(n, directed_edges):
    """Kahn's algorithm oracle for acyclicity of a directed graph."""
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for s, t in directed_edges:
        out[s].append(t)
        indeg[t] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return seen == n


class TestEdgeList:
    def test_path_parse(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2

    def test_duplicate_collapse(self):
        g = load_edge_list("0 1\n1 0")
        assert g.m == 1

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(EdgeListError, match="line 1"):
            load_edge_list("0 0")

    def test_header_bounds(self):
        with pytest.raises(EdgeListError, match="out of range"):
            load_edge_list("p 2 1\n0 5")

    @pytest.mark.parametrize("text,message", [
        ("p x 3\n0 1", "line 1: header needs an integer n >= 0, got 'x'"),
        ("p -3 0", "line 1: header needs an integer n >= 0, got '-3'"),
        ("0 5\np 3 1", "line 2: header needs an integer n >= 6, got '3'"),
    ], ids=["non-integer", "negative", "below-an-earlier-id"])
    def test_bad_header_names_its_line(self, text, message):
        with pytest.raises(EdgeListError) as exc:
            load_edge_list(text)
        assert str(exc.value) == message

    def test_header_sets_n(self):
        g = load_edge_list("p 10 1\n0 1")
        assert g.n == 10

    def test_comments_ignored(self):
        g = load_edge_list("# hi\nc another\n0 1")
        assert g.m == 1

    def test_round_trip_bit_exact(self):
        g = generate(GeneratorSpec("gnp", 30, p=0.2, seed=4))
        text = dump_edge_list(g)
        assert load_edge_list(text) == g
        assert dump_edge_list(load_edge_list(text)) == text


class TestInvariants:
    @given(st.integers(0, 30), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_symmetric_and_indices_dense(self, n, seed):
        g = generate(GeneratorSpec("gnp", n, p=0.3, seed=seed))
        for v in range(g.n):
            for u in g.adjacency[v]:
                assert v in g.adjacency[u]
        assert sorted(g.edge_index.values()) == list(range(g.m))
        for e, (u, v) in enumerate(g.edges):
            assert u < v and g.edge_id(u, v) == e
        assert g.max_degree == max((g.degree(v) for v in range(g.n)), default=0)


class TestGenerators:
    def test_clique(self):
        g = generate(GeneratorSpec("clique", 4))
        assert g.m == 6 and g.max_degree == 3

    def test_gnp_empty(self):
        assert generate(GeneratorSpec("gnp", 0, p=0.5)).n == 0

    def test_gnp_p_range_rejected(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("gnp", 5, p=1.5))

    @pytest.mark.parametrize("p", [5e-324, 1e-310])
    def test_gnp_subnormal_p_edgeless(self, p):
        """A subnormal p makes every geometric skip infinite: no edge, and no
        overflow converting the skip to an int."""
        assert generate(GeneratorSpec("gnp", 100, p=p)).m == 0

    def test_deterministic(self):
        a = generate(GeneratorSpec("gnp", 50, p=0.1, seed=9))
        b = generate(GeneratorSpec("gnp", 50, p=0.1, seed=9))
        assert a == b
        assert a != generate(GeneratorSpec("gnp", 50, p=0.1, seed=10))

    def test_random_tree_is_tree(self):
        g = generate(GeneratorSpec("random-tree", 300, seed=2))
        assert g.m == 299
        assert is_acyclic_undirected(g.n, g.edges)

    def test_random_tree_degree_cap(self):
        g = generate(GeneratorSpec("random-tree", 500, max_deg=5, seed=2))
        assert g.m == 499 and g.max_degree <= 5
        assert is_acyclic_undirected(g.n, g.edges)

    def test_forest_union_parts_acyclic(self):
        g, parts = forest_union_parts(GeneratorSpec("forest-union", 100, a=2, seed=7))
        assert len(parts) == 2
        for part in parts:
            assert is_acyclic_undirected(g.n, part)
        covered = {e for part in parts for e in part}
        assert set(g.edges) == covered
        assert g.max_degree <= 2  # union of two matchings

    def test_forest_union_arboricity_bound_via_generate(self):
        g = generate(GeneratorSpec("forest-union", 64, a=3, seed=1))
        assert g.max_degree <= 3


class TestOrientation:
    def test_orient_by_id_k4(self, k4):
        o = orient_by_id(k4)
        assert [o.out_degree(v) for v in range(4)] == [3, 2, 1, 0]

    def test_orient_by_id_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        o = orient_by_id(g)
        assert o.target == (1,)

    @given(st.integers(2, 40), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_orient_by_id_acyclic_oracle(self, n, seed):
        g = generate(GeneratorSpec("gnp", n, p=0.3, seed=seed))
        o = orient_by_id(g)
        directed = [(o.source(e), o.target[e]) for e in range(g.m)]
        assert topological_order_exists(g.n, directed)

    @pytest.mark.parametrize("n,p,seed", [(0, 0.5, 0), (1, 0.5, 0), (12, 0.4, 1),
                                          (40, 0.15, 2), (60, 0.05, 3)])
    def test_children_are_lower_id_neighbors(self, n, p, seed):
        g = generate(GeneratorSpec("gnp", n, p=p, seed=seed))
        children = orient_by_id(g).children()
        assert len(children) == g.n
        for v in range(g.n):
            assert children[v] == tuple(u for u in g.adjacency[v] if u < v)

    def test_orient_forest_out_degree_le_1(self):
        g = generate(GeneratorSpec("random-tree", 200, seed=5))
        o = orient_forest(g)
        assert o.max_out_degree == 1
        roots = [v for v in range(g.n) if o.out_degree(v) == 0]
        assert roots == [0]
        directed = [(o.source(e), o.target[e]) for e in range(g.m)]
        assert topological_order_exists(g.n, directed)

    def test_orient_forest_rejects_cycles(self, triangle):
        with pytest.raises(ValueError, match="cycle"):
            orient_forest(triangle)


class TestLineGraph:
    def test_triangle_maps_to_triangle(self, triangle):
        lg = line_graph(triangle)
        assert lg.n == 3 and lg.m == 3

    def test_two_edge_path(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        lg = line_graph(g)
        assert lg.n == 2 and lg.m == 1

    def test_star_k13_is_triangle(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        lg = line_graph(g)
        # direct incidence enumeration: all three edges share vertex 0
        assert lg.m == 3 and lg.max_degree == 2

    @given(st.integers(2, 25), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_degree_bound(self, n, seed):
        g = generate(GeneratorSpec("gnp", n, p=0.4, seed=seed))
        lg = line_graph(g)
        assert lg.n == g.m
        if g.m:
            assert lg.max_degree <= 2 * g.max_degree - 1
        # adjacency iff shared endpoint
        for e1, e2 in lg.edges:
            assert set(g.edges[e1]) & set(g.edges[e2])


def test_log_star_values():
    assert log_star(2) == 0
    assert log_star(4) == 1
    assert log_star(16) == 2
    assert log_star(256) == 3
    assert log_star(4096) == 3
    assert log_star(100000) == 4
