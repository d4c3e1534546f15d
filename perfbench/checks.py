"""Independent checks of `genlabel run` reports.

Each check reads the input edge list with its own parser and the report as
plain JSON, and tests a property the algorithm's output must have by
definition.  Nothing here imports genlabel: neither its verifiers nor its
algorithms nor a stored copy of an earlier report.

The only convention shared with the program is the documented edge-list and
report format: an edge is the pair (u, v) with u < v, and its index is its
position among the graph's distinct edges in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass


class Rejected(Exception):
    """A report violates a property its algorithm guarantees."""


@dataclass(frozen=True)
class EdgeList:
    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)


def read_edge_list(text: str) -> EdgeList:
    """Parse "p <n> <m>" plus "u v" lines; '#' and 'c' lines are comments."""
    n = None
    pairs = set()
    top = -1
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith(("#", "c")):
            continue
        if parts[0] == "p":
            n = int(parts[1])
            continue
        u, v = int(parts[0]), int(parts[1])
        pairs.add((min(u, v), max(u, v)))
        top = max(top, u, v)
    n = top + 1 if n is None else n
    edges = tuple(sorted(pairs))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return EdgeList(n=n, edges=edges, adjacency=tuple(tuple(a) for a in adj))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Rejected(message)


def _domains(doc: dict, count: int, entities=None) -> dict[int, set[int]]:
    """The report's label domains as sets, keyed by entity id.

    ``entities`` is the exact key set expected (default: 0..count-1).
    """
    raw = doc["labels"]["domains"]
    doms = {int(k): v for k, v in raw.items()}
    expected = set(range(count)) if entities is None else set(entities)
    _require(set(doms) == expected,
             f"domains cover {len(doms)} entities, expected {len(expected)}")
    out = {}
    for k, labels in doms.items():
        s = set(labels)
        _require(len(s) == len(labels), f"entity {k} lists a label twice")
        out[k] = s
    return out


def _within_palette(doms: dict[int, set[int]], palette: int) -> None:
    for k, d in doms.items():
        _require(bool(d), f"entity {k} has an empty domain")
        _require(min(d) >= 0 and max(d) < palette,
                 f"entity {k} holds a label outside [0, {palette})")


def check_random_coloring(doc: dict, g: EdgeList, params: dict) -> None:
    """Adjacent vertices hold disjoint, non-empty domains below the palette,
    with at most one label per tag (label // stride)."""
    palette, stride = doc["labels"]["palette"], doc["labels"]["stride"]
    doms = _domains(doc, g.n)
    _within_palette(doms, palette)
    for v, d in doms.items():
        _require(len({x // stride for x in d}) == len(d),
                 f"vertex {v} holds two labels with one tag")
    for u, v in g.edges:
        _require(not doms[u] & doms[v], f"adjacent vertices {u}, {v} share a label")


def _bfs_until(adjacency, source: int, targets: set[int], limit: int) -> dict[int, int]:
    """Distances from ``source`` to the ``targets`` it reaches within ``limit``
    hops; stops as soon as every target is found."""
    dist = {source: 0}
    found = {source: 0} if source in targets else {}
    frontier = [source]
    depth = 0
    while frontier and depth < limit and len(found) < len(targets):
        depth += 1
        nxt = []
        for v in frontier:
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = depth
                    nxt.append(u)
                    if u in targets:
                        found[u] = depth
        frontier = nxt
    return found


def _holders_within(adjacency, holders: list[int], bound: int) -> bool:
    """True iff every two holders are at most ``bound`` apart in the graph.

    One BFS from a holder x settles every pair (a, b) with
    d(a, x) + d(x, b) <= bound, by the triangle inequality; only holders that
    are too far from x for that get a BFS of their own.
    """
    targets = set(holders)
    x = holders[0]
    dist = _bfs_until(adjacency, x, targets, bound)
    if len(dist) < len(targets):
        return False
    far = max(dist.values())
    for a in holders:
        if dist[a] + far > bound and len(_bfs_until(adjacency, a, targets, bound)) < len(targets):
            return False
    return True


def check_network_decomposition(doc: dict, g: EdgeList, params: dict) -> None:
    """Every vertex holds exactly c labels, one in each execution's range, and
    every label's holders lie pairwise within diameter_bound in G."""
    c = params["c"]
    stride = doc["labels"]["stride"]
    bound = doc["metrics"]["diameter_bound"]
    doms = _domains(doc, g.n)
    holders: dict[int, list[int]] = {}
    for v in range(g.n):
        d = doms[v]
        _require(sorted(x // stride for x in d) == list(range(c)),
                 f"vertex {v} does not hold one label in each of {c} executions")
        for x in d:
            holders.setdefault(x, []).append(v)
    for x, hs in holders.items():
        _require(_holders_within(g.adjacency, hs, bound),
                 f"holders of label {x} are more than {bound} apart")


def check_dominating_edge(doc: dict, g: EdgeList, params: dict) -> None:
    """Every edge outside the dominating set shares an endpoint with one in
    it, each class is a matching, and class i's domain is [(i-1)t, it)."""
    t = params["t"]
    _require(len(doc["edges"]) == len(g.edges), "report lists another edge count")
    for e, entry in enumerate(doc["edges"]):
        _require((entry["u"], entry["v"]) == g.edges[e],
                 f"report edge {e} is not input edge {g.edges[e]}")
    dominating = set(doc["dominating"])
    _require(dominating <= set(range(len(g.edges))), "dominating edge out of range")
    doms = _domains(doc, len(g.edges), dominating)
    touched = set()
    class_ends: dict[int, set[int]] = {}
    for e in dominating:
        u, v = g.edges[e]
        touched.update((u, v))
        cls = doc["class_of"][e]
        _require(cls >= 1, f"dominating edge {e} has no class")
        ends = class_ends.setdefault(cls, set())
        _require(u not in ends and v not in ends,
                 f"class {cls} is not a matching at edge {e}")
        ends.update((u, v))
        _require(doms[e] == set(range((cls - 1) * t, cls * t)),
                 f"edge {e} of class {cls} has the wrong domain")
    for e, (u, v) in enumerate(g.edges):
        _require(e in dominating or u in touched or v in touched,
                 f"edge {e} is not dominated")


def check_edge_delta2(doc: dict, g: EdgeList, params: dict) -> None:
    """Edges sharing an endpoint hold disjoint domains, each of at least
    2*max_degree - 1 labels, all below the palette."""
    doms = _domains(doc, len(g.edges))
    _within_palette(doms, doc["labels"]["palette"])
    floor = 2 * g.max_degree - 1
    for e, d in doms.items():
        _require(len(d) >= floor, f"edge {e} holds {len(d)} labels, fewer than {floor}")
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    for v, es in enumerate(incident):
        seen: set[int] = set()
        for e in es:
            _require(seen.isdisjoint(doms[e]),
                     f"edges at vertex {v} share a label")
            seen |= doms[e]


CHECKS = {
    "random-coloring": check_random_coloring,
    "network-decomposition": check_network_decomposition,
    "dominating-edge": check_dominating_edge,
    "edge-delta2": check_edge_delta2,
}


def check_report(doc: dict, g: EdgeList, algo: str, params: dict) -> None:
    """Raise Rejected unless the report is a correct output for input ``g``."""
    try:
        _require(doc["algorithm"] == algo, f"report is for {doc['algorithm']!r}")
        _require(doc["graph"]["n"] == g.n and doc["graph"]["m"] == len(g.edges),
                 "report describes another graph")
        CHECKS[algo](doc, g, params)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise Rejected(f"malformed report: {exc!r}") from exc
