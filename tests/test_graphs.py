import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlabel import (
    GeneratorSpec,
    Graph,
    dump_edge_list,
    forest_union_parts,
    generate,
    graphs,
    line_graph,
    load_edge_list,
    log_star,
    orient_by_id,
    orient_forest,
)
from genlabel.graphs import MAX_GRAPH_SIZE, EdgeListError


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

    @pytest.mark.parametrize("text,message", [
        ("p 3", "line 1: malformed header 'p 3'"),
        ("p 3 1 junk\n0 1\n", "line 1: malformed header 'p 3 1 junk'"),
        ("0 1 2", "line 1: expected 'u v', got '0 1 2'"),
        ("0 x", "line 1: non-integer vertex id in '0 x'"),
        ("0 -1", "line 1: negative vertex id in '0 -1'"),
        ("p 2 1\n0 5", "line 2: vertex id out of range for declared n=2"),
        ("p 4 2\n0 1\n  1 2 3  \n", "line 3: expected 'u v', got '1 2 3'"),
        ("p 10 40\n0 1\n", "line 1: header declares m=40, but the file has 1 edge lines"),
        ("# c\np 10 x\n0 1\n", "line 2: header needs an integer m, got 'x'"),
        ("p 4 1\n0 1\np 4 1\n1 2\n", "line 3: header declares m=1, but the file has 2 edge lines"),
        ("p 4 9\n0 1\n0 9\n", "line 3: vertex id out of range for declared n=4"),
    ], ids=["short-header", "long-header", "three-tokens", "non-integer", "negative", "out-of-range",
            "three-tokens-later-line", "edge-count", "non-integer-m", "last-header-counts",
            "earlier-line-wins"])
    def test_line_error_messages(self, text, message):
        with pytest.raises(EdgeListError) as exc:
            load_edge_list(text)
        assert str(exc.value) == message

    def test_header_sets_n(self):
        g = load_edge_list("p 10 1\n0 1")
        assert g.n == 10

    def test_header_m_counts_duplicate_lines(self):
        assert load_edge_list("p 3 2\n0 1\n1 0\n").m == 1

    def test_comments_ignored(self):
        g = load_edge_list("# hi\nc another\n0 1")
        assert g.m == 1

    def test_round_trip_bit_exact(self):
        g = generate(GeneratorSpec("gnp", 30, p=0.2, seed=4))
        text = dump_edge_list(g)
        assert load_edge_list(text) == g
        assert dump_edge_list(load_edge_list(text)) == text


def _outcome(load, text):
    """What ``load(text)`` gives: the graph with its edge index, or the
    exception's type and message."""
    try:
        g = load(text)
    except Exception as exc:  # noqa: BLE001 -- the type is part of the outcome
        return type(exc), str(exc)
    return g, g.edge_index


def _mutate(lines: list[str], kind: str, i: int, n: int) -> str:
    """The canonical ``lines`` (header first, no line breaks) with one change
    of ``kind`` at line ``i``, joined back into a text."""
    lines = list(lines)
    body = lines[1:]
    j = 1 + i % len(body) if body else 0
    if kind == "swap" and len(body) >= 2:
        k = j + 1 if j + 1 < len(lines) else j - 1
        lines[j], lines[k] = lines[k], lines[j]
    elif kind == "rewrap" and len(body) >= 2:  # "u v x\ny": as many tokens and lines
        k = j + 1 if j + 1 < len(lines) else j - 1
        first, second = sorted((j, k))
        x, y = lines[second].split()
        lines[first] += " " + x
        lines[second] = y
    elif kind == "duplicate":
        lines.insert(j, lines[j])
    elif kind == "comment":
        lines.insert(i % (len(lines) + 1), ("# note", "c note")[i % 2])
    elif kind == "no-header":
        del lines[0]
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "third-token":
        lines[j] += " 1"
    elif kind == "header-token":
        lines[0] += " 1"
    elif kind in ("plus", "underscore", "zero", "arabic-digit", "long-digits"):
        tokens = lines[j].split(" ")
        t = i % len(tokens)
        tokens[t] = {"plus": "+", "underscore": "_", "zero": "0",
                     "arabic-digit": "\u0663", "long-digits": "1" * 5000}[kind] + tokens[t]
        lines[j] = " ".join(tokens)
    elif kind == "inner-underscore":
        lines[j] = lines[j].replace(" ", "0_0 ", 1)
    elif kind == "id-at-n" and body:
        u, _v = lines[j].split()
        lines[j] = f"{u} {n + i % 3}"
    elif kind == "huge-n":
        lines[0] = f"p {MAX_GRAPH_SIZE + 1 + i % 2} {len(body)}"
    elif kind == "no-final-newline":
        return "\n".join(lines)
    elif kind == "blank-line":
        lines.insert(i % (len(lines) + 1), " ")
    elif kind == "truncate" and body:  # cut at a line boundary: the header's m is one too many
        del lines[-1]
    return "\n".join(lines) + "\n"


MUTATIONS = ("none", "swap", "rewrap", "duplicate", "comment", "no-header", "crlf", "third-token",
             "header-token",
             "plus", "underscore", "zero", "arabic-digit", "long-digits",
             "inner-underscore", "id-at-n", "huge-n", "no-final-newline", "blank-line",
             "truncate")


class TestCanonicalLoad:
    """The one-pass parse of dump_edge_list's form against the line parser."""

    @given(st.integers(0, 14), st.floats(0.0, 1.0), st.integers(0, 10**6),
           st.sampled_from(MUTATIONS), st.integers(0, 10**6))
    @settings(max_examples=400, deadline=None)
    def test_equals_line_parser(self, n, p, seed, kind, i):
        g = generate(GeneratorSpec("gnp", n, p=p, seed=seed))
        text = _mutate(dump_edge_list(g).splitlines(), kind, i, n)
        expected = _outcome(graphs._load_lines, text)
        assert _outcome(load_edge_list, text) == expected
        if kind == "none":
            assert expected == (g, g.edge_index)

    def test_canonical_text_skips_the_line_parser(self, monkeypatch):
        def refuse(text):
            raise AssertionError("a canonical text reached the line parser")

        monkeypatch.setattr(graphs, "_load_lines", refuse)
        for g in (generate(GeneratorSpec("gnp", 200, p=0.05, seed=3)),
                  Graph.from_edges(7, []), Graph.from_edges(0, [])):
            loaded = load_edge_list(dump_edge_list(g))
            assert loaded == g and loaded.edge_index == g.edge_index

    def test_max_degree_cached_without_changing_equality(self):
        g, h = (generate(GeneratorSpec("gnp", 40, p=0.2, seed=1)) for _ in range(2))
        assert g.max_degree == max(map(len, g.adjacency)) == g.max_degree
        assert g == h and hash(g) == hash(h)
        assert Graph.from_edges(0, []).max_degree == 0


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


    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_from_edges_against_naive_build(self, case):
        n, pairs = case
        g = Graph.from_edges(n, pairs)
        assert g.edges == tuple(sorted({(min(e), max(e)) for e in pairs}))
        assert g.adjacency == tuple(
            tuple(sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v}))
            for v in range(n))
        assert g.edge_index == {e: i for i, e in enumerate(g.edges)}


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
        directed = [(v, o.target[e]) for v in range(g.n) for e in o.out_edges(v)]
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
        directed = [(v, o.target[e]) for v in range(g.n) for e in o.out_edges(v)]
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
