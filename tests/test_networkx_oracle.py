"""networkx as a second, test-only oracle for the checkers in verify and for
graphs.line_graph, compared on Hypothesis graphs of up to 9 vertices."""

from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from genlabel import Graph, LabelDomain, line_graph
from genlabel.verify import check_forest_labeling, check_matching, check_network_decomposition


@st.composite
def graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                            if pairs else [])


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@given(graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_check_matching(g, data):
    ids = data.draw(st.sets(st.sampled_from(range(g.m))) if g.m else st.just(set()))
    matching = {g.edges[e] for e in ids}
    h = to_nx(g)
    assert check_matching(g, ids, []).ok == nx.is_matching(h, matching)
    assert check_matching(g, ids, range(g.m)).ok == nx.is_maximal_matching(h, matching)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_line_graph(g):
    """L-vertex j is edge j of G."""
    expected = {frozenset(map(g.edges.index, pair)) for pair in nx.line_graph(to_nx(g)).edges}
    lg = line_graph(g)
    assert lg.n == g.m
    assert {frozenset(edge) for edge in lg.edges} == expected


@given(graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_check_forest_labeling(g, data):
    """The labeling passes iff every label is in 1..count, no vertex assigns
    one label twice, and every label class is a forest."""
    count = data.draw(st.integers(1, 4))
    labels = [data.draw(st.integers(0, count + 1)) for _ in range(g.m)]
    assigner = [data.draw(st.sampled_from(edge)) for edge in g.edges]
    in_range = all(1 <= lbl <= count for lbl in labels)
    assigned = list(zip(assigner, labels))
    distinct = len(set(assigned)) == len(assigned)
    forests = all(nx.is_forest(nx.Graph([g.edges[e] for e in range(g.m) if labels[e] == lbl]))
                  for lbl in set(labels))
    verdict = check_forest_labeling(g, labels, assigner, count)
    assert verdict.ok == (in_range and distinct and forests)


@given(graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_weak_diameter(g, data):
    """Uniform domains of size 2 pass the diameter bound iff every label's
    holders are pairwise within it in G, by networkx's all-pairs distances;
    a passing report never understates the largest holder distance."""
    labels = st.integers(0, 3)
    domains = {v: (data.draw(labels), 4 + data.draw(labels)) for v in range(g.n)}
    bound = data.draw(st.integers(0, 4))
    dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    holders: dict[int, list[int]] = {}
    for v, dom in domains.items():
        for x in dom:
            holders.setdefault(x, []).append(v)
    pairs = [(a, b) for hs in holders.values() for a, b in combinations(hs, 2)]
    within = all(b in dist[a] and dist[a][b] <= bound for a, b in pairs)
    dom = LabelDomain(kind="vertex", domains=domains, palette=8, stride=4)
    verdict, measured = check_network_decomposition(g, dom, bound, label_budget=8)
    assert verdict.ok == within
    if within:
        true_diameter = max((dist[a][b] for a, b in pairs), default=0)
        assert true_diameter <= measured["max_weak_diameter"] <= bound
