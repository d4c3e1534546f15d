"""Independent checkers for validity invariants and the privacy metrics.

Every checker here is a pure function of its inputs, re-implemented from the
definitions (BFS, union-find, incidence scans) without calling any algorithm
module, so the checkers double as oracles for the algorithms' outputs.

Metrics: the problem domain is the declared palette; the solution domain is
the minimum per-entity domain size; the contingency factor is their ratio
(1 is perfect).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from statistics import median_low

from .graphs import Graph
from .labels import LabelDomain


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    status: str = "ok"  # ok | violated | incomplete | degenerate
    detail: str = ""
    counterexample: object = None

    def to_document(self) -> dict:
        doc = {"name": self.name, "ok": self.ok, "status": self.status}
        if self.detail:
            doc["detail"] = self.detail
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


def _ok(name: str, detail: str = "") -> Verdict:
    return Verdict(name=name, ok=True, detail=detail)


def _fail(name: str, status: str, detail: str, counterexample=None) -> Verdict:
    return Verdict(name=name, ok=False, status=status, detail=detail,
                   counterexample=counterexample)


def check_proper_vertex(g: Graph, labels) -> Verdict:
    """No edge may join two equal labels; missing labels are 'incomplete'."""
    name = "proper-vertex"
    for v in range(g.n):
        if labels[v] is None:
            return _fail(name, "incomplete", f"vertex {v} has no label", v)
    for u, v in g.edges:
        if labels[u] == labels[v]:
            return _fail(name, "violated",
                         f"edge ({u},{v}) is monochromatic with label {labels[u]}",
                         [u, v])
    return _ok(name)


def check_edge_properness(g: Graph, edge_labels) -> Verdict:
    """No two same-labeled edges may share an endpoint (None = uncolored)."""
    name = "proper-edge"
    for v in range(g.n):
        seen: dict[object, int] = {}
        for u in g.adjacency[v]:
            e = g.edge_id(v, u)
            lbl = edge_labels[e]
            if lbl is None:
                continue
            if lbl in seen:
                return _fail(name, "violated",
                             f"edges {seen[lbl]} and {e} share vertex {v} and label {lbl}",
                             [seen[lbl], e])
            seen[lbl] = e
    return _ok(name)


def check_domains_disjoint(g: Graph, dom: LabelDomain) -> Verdict:
    """Adjacent entities must hold disjoint label sets.

    With every domain non-empty, this holds exactly when every joint
    selection (one label drawn from each domain) is a proper labeling.
    Vertices may share one domain object, as cv3-expansion's do: a set is
    built once per distinct object, and each distinct pair of objects that an
    edge joins is compared once.
    """
    name = "domains-disjoint"
    if dom.kind != "vertex":
        raise ValueError("disjointness check applies to vertex domains")
    for v in range(g.n):
        if not dom.domains.get(v):
            return _fail(name, "degenerate", f"vertex {v} has an empty domain", v)
    domains = list(map(dom.domains.__getitem__, range(g.n)))
    slot_of: dict[int, int] = {}
    slots = [slot_of.setdefault(id(d), len(slot_of)) for d in domains]
    firsts = list({id(d): d for d in domains}.values())  # the objects by slot
    sets = list(map(frozenset, firsts))
    pairs = g.edges  # with no domain object shared, slot v is vertex v
    if len(firsts) < g.n:
        pairs = set(zip(map(slots.__getitem__, map(itemgetter(0), pairs)),
                        map(slots.__getitem__, map(itemgetter(1), pairs))))
    if all(map(frozenset.isdisjoint, map(sets.__getitem__, map(itemgetter(0), pairs)),
               map(firsts.__getitem__, map(itemgetter(1), pairs)))):
        return _ok(name)
    u, v = next((u, v) for u, v in g.edges if not sets[slots[u]].isdisjoint(domains[v]))
    shared = min(sets[slots[u]].intersection(domains[v]))
    return _fail(name, "violated", f"vertices {u},{v} share label {shared}", [u, v])


def check_domain_floor(dom: LabelDomain, floor: int) -> Verdict:
    """Every entity's domain must hold at least ``floor`` labels; an empty
    entity set passes vacuously."""
    ok = not dom.domains or dom.min_size >= floor
    return Verdict(name="domain-floor", ok=ok, status="ok" if ok else "violated",
                   detail=f"min domain {dom.min_size} vs floor {floor}")


def check_edge_domains_disjoint(g: Graph, dom: LabelDomain) -> Verdict:
    """Edges sharing an endpoint must hold disjoint label sets.

    At a vertex, the incident domains are pairwise disjoint exactly when the
    sum of their lengths equals the size of their union: a label held by two
    of them counts twice in the sum but once in the union.  So each vertex is
    tested by that count, and the pairwise scan runs only where the count
    disagrees, to name the first shared label.  A domain that repeats a label
    also makes the count disagree; the scan then finds no pair and the walk
    goes on, so the verdict is the scan's alone at every vertex."""
    name = "edge-domains-disjoint"
    if dom.kind != "edge":
        raise ValueError("edge disjointness check applies to edge domains")
    for e, d in dom.domains.items():
        if not d:
            return _fail(name, "degenerate", f"edge {e} has an empty domain", e)
    for v in range(g.n):
        incident = [g.edge_id(v, u) for u in g.adjacency[v]]
        incident = [e for e in incident if e in dom.domains]
        held = [dom.domains[e] for e in incident]
        if sum(map(len, held)) == len(set().union(*held)):
            continue
        sets = list(map(frozenset, held))
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                shared = sets[i] & sets[j]
                if shared:
                    return _fail(name, "violated",
                                 f"edges {incident[i]},{incident[j]} share label "
                                 f"{min(shared)} at vertex {v}",
                                 [incident[i], incident[j]])
    return _ok(name)


def check_defective_labels(g: Graph, labels, p: int) -> tuple[Verdict, int]:
    """Each vertex may have at most p same-labeled neighbors; returns max defect."""
    name = "defective-labels"
    worst = 0
    witness = None
    for v in range(g.n):
        defect = sum(1 for u in g.adjacency[v] if labels[u] == labels[v])
        if defect > worst:
            worst, witness = defect, v
    if worst > p:
        return _fail(name, "violated",
                     f"vertex {witness} has {worst} same-labeled neighbors > p={p}",
                     witness), worst
    return _ok(name, f"max defect {worst}"), worst


def check_defective_domains(g: Graph, dom: LabelDomain, p: int) -> tuple[Verdict, int]:
    """Worst-case-selection defect: for every v and every x in D(v), at most
    p neighbors of v may hold x in their domains."""
    name = "defective-domains"
    worst = 0
    witness = None
    sets = {v: frozenset(d) for v, d in dom.domains.items()}
    empty = frozenset()
    for v in range(g.n):
        for x in dom.domains.get(v, ()):
            cnt = sum(1 for u in g.adjacency[v] if x in sets.get(u, empty))
            if cnt > worst:
                worst, witness = cnt, (v, x)
    if worst > p:
        return _fail(name, "violated",
                     f"vertex {witness[0]} label {witness[1]} has defect {worst} > p={p}",
                     list(witness)), worst
    return _ok(name, f"max defect {worst}"), worst


def check_edge_defect(g: Graph, edge_labels, bound: int) -> tuple[Verdict, int]:
    """Per-edge defect: adjacent edges sharing the edge's label, at most bound."""
    name = "defective-edges"
    per_vertex: list[dict[object, int]] = []
    for v in range(g.n):
        counts: dict[object, int] = {}
        for u in g.adjacency[v]:
            lbl = edge_labels[g.edge_id(v, u)]
            counts[lbl] = counts.get(lbl, 0) + 1
        per_vertex.append(counts)
    worst = 0
    witness = None
    for e, (u, v) in enumerate(g.edges):
        lbl = edge_labels[e]
        defect = per_vertex[u][lbl] + per_vertex[v][lbl] - 2
        if defect > worst:
            worst, witness = defect, e
    if worst > bound:
        return _fail(name, "violated",
                     f"edge {witness} has defect {worst} > {bound}", witness), worst
    return _ok(name, f"max defect {worst}"), worst


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False if they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def check_forest_labeling(g: Graph, edge_labels, assigner, label_count: int) -> Verdict:
    """Each label class must be acyclic and each vertex must give its
    assigned edges pairwise distinct labels in 1..label_count.  Classes are
    checked in ascending label order, each by a union-find over its own edges
    in ascending edge order."""
    name = "forest-labeling"
    used: list[set[int]] = [set() for _ in range(g.n)]
    classes: dict[int, list[int]] = {}
    for e in range(g.m):
        lbl, v = edge_labels[e], assigner[e]
        if not 1 <= lbl <= label_count:
            return _fail(name, "violated",
                         f"edge {e} labeled {lbl} outside 1..{label_count}", e)
        if lbl in used[v]:
            return _fail(name, "violated",
                         f"vertex {v} assigned label {lbl} to two of its edges", v)
        used[v].add(lbl)
        classes.setdefault(lbl, []).append(e)
    uf = _UnionFind(g.n)
    for lbl in sorted(classes):
        for e in classes[lbl]:
            if not uf.union(*g.edges[e]):
                return _fail(name, "violated",
                             f"label class {lbl} contains a cycle through edge {e}", e)
        for e in classes[lbl]:  # only this class's endpoints were joined
            for x in g.edges[e]:
                uf.parent[x] = x
    return _ok(name)


def check_arboricity_witness(g: Graph, witness, a: int) -> Verdict:
    """The vertex set ``witness`` must induce more than a*(|W|-1) edges, so
    by Nash-Williams no a forests cover its subgraph: arboricity above a."""
    name = "arboricity-witness"
    members = set(witness)
    edges = sum(1 for v in members for u in g.adjacency[v] if u > v and u in members)
    if len(members) < 2 or edges <= a * (len(members) - 1):
        return _fail(name, "violated",
                     f"{len(members)} vertices induce {edges} edges, not more than "
                     f"{a}*({len(members)}-1)")
    return _ok(name, f"{len(members)} vertices induce {edges} edges")


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in g.adjacency[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _holder_diameter(g: Graph, holders: list[int], bound: int) -> tuple[bool, int]:
    """(within_bound, measured_or_certified_diameter) for one label's holders.

    A single-source certificate (all holders within bound/2 of some holder)
    proves the pairwise bound; otherwise falls back to exact all-pairs BFS.
    The returned value is exact whenever the fallback ran, else an upper bound.
    """
    if len(holders) <= 1:
        return True, 0
    dist0 = _bfs_distances(g, holders[0])
    radii = [dist0[h] for h in holders]
    if all(d >= 0 for d in radii):
        r = max(radii)
        if 2 * r <= bound:
            return True, 2 * r
    worst = 0
    for h in holders:
        dist = _bfs_distances(g, h)
        for other in holders:
            d = dist[other]
            if d < 0:
                return False, -1  # disconnected holders: infinite diameter
            worst = max(worst, d)
    return worst <= bound, worst


def check_network_decomposition(g: Graph, dom: LabelDomain, diameter_bound: int,
                                label_budget: int) -> tuple[Verdict, dict]:
    """All holders of one cluster label must lie pairwise within the diameter
    bound, the distinct label count must fit the budget, and domains must share
    one uniform size."""
    name = "network-decomposition"
    sizes = {len(d) for d in dom.domains.values()}
    measured = {"max_weak_diameter": 0, "distinct_labels": 0}
    if len(sizes) > 1:
        return _fail(name, "violated", f"domain sizes not uniform: {sorted(sizes)}"), measured
    holders: dict[int, list[int]] = {}
    for v in sorted(dom.domains):
        for x in dom.domains[v]:
            holders.setdefault(x, []).append(v)
    measured["distinct_labels"] = len(holders)
    worst = 0
    for x, hs in holders.items():
        within, diam = _holder_diameter(g, hs, diameter_bound)
        if not within:
            return _fail(
                name, "violated",
                f"label {x} holders exceed weak diameter {diameter_bound}",
                x), measured
        worst = max(worst, diam)
    measured["max_weak_diameter"] = worst
    if len(holders) > label_budget:
        return _fail(name, "violated",
                     f"{len(holders)} distinct labels exceed budget {label_budget}"), measured
    return _ok(name, f"{len(holders)} labels, weak diameter <= {worst}"), measured


def check_edge_dominating(g: Graph, dominating) -> Verdict:
    """Every edge outside D must share an endpoint with an edge of D."""
    name = "edge-dominating"
    dominated = [False] * g.n
    dset = set(dominating)
    for e in dset:
        u, v = g.edges[e]
        dominated[u] = dominated[v] = True
    for e, (u, v) in enumerate(g.edges):
        if e not in dset and not (dominated[u] or dominated[v]):
            return _fail(name, "violated", f"edge {e}=({u},{v}) is undominated", e)
    return _ok(name)


def check_matching(g: Graph, matching, edges) -> Verdict:
    """The G edge ids in ``matching`` must be a matching that no G edge with
    its id in ``edges`` could be added to; edges are checked in the given order."""
    name = "maximal-matching"
    covered = [False] * g.n
    for e in sorted(matching):
        u, v = g.edges[e]
        if covered[u] or covered[v]:
            return _fail(name, "violated", f"edge {e} collides inside the matching", e)
        covered[u] = covered[v] = True
    for e in edges:
        u, v = g.edges[e]
        if not covered[u] and not covered[v]:
            return _fail(name, "violated", f"edge {e}=({u},{v}) could still be added", e)
    return _ok(name)


def metrics(palette: int, sizes: list[int], verdicts=()) -> dict:
    """The metrics document of domains of the given ``sizes`` from ``palette``
    labels, and ``verdicts``: the problem domain (the palette), the solution domain
    sizes, and their ratio, the contingency factor, as "p/q" (0 when the smallest
    is empty or there is no entity)."""
    smallest = min(sizes, default=0)
    cf = Fraction(palette, smallest) if smallest else Fraction(0)
    return {
        "problem_domain_size": palette,
        "solution_domain_min": smallest,
        "solution_domain_median": int(median_low(sizes)) if sizes else 0,
        "solution_domain_max": max(sizes, default=0),
        "contingency_factor": f"{cf.numerator}/{cf.denominator}",
        "verdicts": [v.to_document() for v in verdicts],
    }
