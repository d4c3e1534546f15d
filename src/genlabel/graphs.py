"""Simple undirected graphs with dense ids, generators, orientations, line graphs.

Vertices are 0..n-1.  Edges are canonical pairs (u, v) with u < v, listed in
lexicographic order; the position of an edge in that list is its dense edge
index (a bijection onto 0..m-1).  Graphs are immutable after construction and
safe to share read-only across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .rng import Stream, subseed

GENERATOR_KINDS = ("clique", "path", "random-tree", "gnp", "forest-union")
MAX_LINE_GRAPH_EDGES = 2_000_000  # edge-random at the cap peaks near 0.6 GB
MAX_GRAPH_SIZE = 1_000_000  # most vertices of a graph, and most edges a generator makes


class EdgeListError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph from unordered pairs; duplicates collapse, loops rejected.
        An ``n`` above MAX_GRAPH_SIZE is refused before anything is built."""
        if not 0 <= n <= MAX_GRAPH_SIZE:
            raise ValueError(f"vertex count must be in [0, {MAX_GRAPH_SIZE}], got {n}")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        return Graph._from_sorted(n, tuple(sorted(canon)))

    @staticmethod
    def _from_sorted(n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """The graph of canonical pairs in strictly increasing order.  Each
        adjacency list comes out sorted: a vertex gets its lower neighbours,
        then its higher ones, each in increasing order."""
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return Graph(n=n, edges=edges, adjacency=tuple(map(tuple, adj)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Each edge's dense index, built on first use."""
        return dict(zip(self.edges, range(len(self.edges))))

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_index[(u, v) if u < v else (v, u)]


def load_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list.

    Each non-comment line is "u v".  An optional header "p <n> <m>" fixes the
    vertex count, and m must equal the number of "u v" lines, duplicates
    included; without it, n = max id + 1.  With several headers the last one
    counts.  Lines starting with '#' or 'c' are comments.  Duplicate edges
    collapse; self-loops, out-of-range ids, a header below an earlier line's
    ids and a header m that the edge lines do not meet are rejected with their
    line number.
    The canonical form that ``dump_edge_list`` writes is parsed in one pass;
    any other text goes through the line parser.
    """
    g = _load_canonical(text)
    return g if g is not None else _load_lines(text)


_CANONICAL_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)")
_CANONICAL_BODY = re.compile(r"(?:[0-9]+ [0-9]+\n)*")


def _load_canonical(text: str) -> Graph | None:
    """The graph of a canonical edge list (a "p n m" header, then m strictly
    increasing "u v" lines with u < v < n, each ending in a newline), or None
    for any other text.  It equals ``_load_lines(text)``."""
    head, _, rest = text.partition("\n")
    header = _CANONICAL_HEADER.fullmatch(head)
    if header is None or _CANONICAL_BODY.fullmatch(rest) is None:
        return None
    try:  # an id past int's digit limit is the line parser's error
        n, m = int(header[1]), int(header[2])
        it = map(int, rest.split())
        edges = tuple(zip(it, it))
    except ValueError:
        return None
    if n > MAX_GRAPH_SIZE or m != len(edges):
        return None
    prev = (-1, -1)
    for e in edges:
        if not (prev < e and e[0] < e[1] < n):
            return None
        prev = e
    return Graph._from_sorted(n, edges)


def _load_lines(text: str) -> Graph:
    """``load_edge_list`` line by line: every form it accepts, and every error."""
    n_declared = m_header = None  # m_header: the last header's (line, m)
    pairs: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 3:
                raise EdgeListError(f"line {lineno}: malformed header {line!r}")
            try:
                n_declared = int(parts[1])
            except ValueError:
                n_declared = None
            if n_declared is None or n_declared <= max_id:
                raise EdgeListError(f"line {lineno}: header needs an integer n >= {max_id + 1}, "
                                    f"got {parts[1]!r}")
            try:
                m_header = (lineno, int(parts[2]))
            except ValueError:
                raise EdgeListError(f"line {lineno}: header needs an integer m, "
                                    f"got {parts[2]!r}") from None
            continue
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"line {lineno}: non-integer vertex id in {line!r}") from exc
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if n_declared is not None and (u >= n_declared or v >= n_declared):
            raise EdgeListError(
                f"line {lineno}: vertex id out of range for declared n={n_declared}"
            )
        pairs.append((u, v))
        max_id = max(max_id, u, v)
    if m_header is not None and m_header[1] != len(pairs):
        raise EdgeListError(f"line {m_header[0]}: header declares m={m_header[1]}, "
                            f"but the file has {len(pairs)} edge lines")
    n = n_declared if n_declared is not None else max_id + 1
    return Graph.from_edges(n, pairs)


def dump_edge_list(g: Graph) -> str:
    """Serialize to the canonical header + sorted "u v" lines form.

    ``load_edge_list(dump_edge_list(g))`` reproduces ``g`` and the round trip
    is byte-exact for canonical inputs.
    """
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    p: float | None = None
    a: int | None = None
    max_deg: int | None = None  # degree cap, random-tree only
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.kind == "gnp":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"gnp requires p in [0,1], got {self.p}")
        if self.kind == "forest-union":
            if self.a is None or self.a < 1:
                raise ValueError(f"forest-union requires a >= 1, got {self.a}")
        if self.max_deg is not None and (self.kind != "random-tree" or self.max_deg < 2):
            raise ValueError("max_deg applies to random-tree only and must be >= 2")
        pairs = self.n * (self.n - 1) // 2
        edges = {"clique": pairs, "gnp": (self.p or 0.0) * pairs,
                 "forest-union": (self.a or 1) * (self.n // 2)}.get(self.kind, self.n - 1)
        if edges > MAX_GRAPH_SIZE:
            raise ValueError(f"{self.kind} graph would have about {edges:.0f} "
                             f"edges, more than {MAX_GRAPH_SIZE}")


def generate(spec: GeneratorSpec) -> Graph:
    """Deterministic graph generation; same spec, same graph."""
    spec.validate()
    n = spec.n
    if spec.kind == "clique":
        return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if spec.kind == "path":
        return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    if spec.kind == "random-tree":
        rng = Stream(subseed(spec.seed, 0x7265), 0)
        cap = spec.max_deg
        degree = [0] * max(n, 1)
        edges = []
        for v in range(1, n):
            u = rng.draw_uniform(v)
            # average degree below 2 guarantees an under-cap vertex exists
            while cap is not None and degree[u] >= cap:
                u = rng.draw_uniform(v)
            edges.append((v, u))
            degree[u] += 1
            degree[v] += 1
        return Graph.from_edges(n, edges)
    if spec.kind == "gnp":
        return _gnp(n, spec.p or 0.0, spec.seed)
    g, _parts = forest_union_parts(spec)
    return g


def _gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) by geometric skipping over lexicographic pair indices."""
    if p <= 0.0 or n < 2:
        return Graph.from_edges(n, [])
    if p >= 1.0:
        return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    rng = Stream(subseed(seed, 0x676E70), 0)
    log_q = math.log1p(-p)
    total = n * (n - 1) // 2
    edges = []
    idx = -1

    def offset(u: int) -> int:  # pairs in rows before u
        return u * (2 * n - u - 1) // 2

    while True:
        r = rng.draw_float()
        skip = math.log(1.0 - r) / log_q  # inf when p is subnormal
        if skip >= total:
            break
        idx += 1 + int(skip)
        if idx >= total:
            break
        # invert lexicographic pair index -> (u, v) via the row quadratic
        u = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * idx)) // 2
        while offset(u + 1) <= idx:
            u += 1
        while offset(u) > idx:
            u -= 1
        edges.append((u, u + 1 + idx - offset(u)))
    return Graph.from_edges(n, edges)


def forest_union_parts(spec: GeneratorSpec) -> tuple[Graph, tuple[tuple[tuple[int, int], ...], ...]]:
    """Union of ``a`` random matchings, returned with the generating forests.

    Each part is a perfect matching drawn from a random pairing (one vertex
    unmatched when n is odd), so each part is trivially a forest and the union
    has arboricity <= a and maximum degree <= a by construction.
    """
    spec.validate()
    if spec.kind != "forest-union":
        raise ValueError(f"forest_union_parts needs kind='forest-union', got {spec.kind!r}")
    n, a = spec.n, spec.a or 1
    parts = []
    edges: list[tuple[int, int]] = []
    for j in range(a):
        order = Stream(subseed(spec.seed, 0x6675, j), 0).shuffle(list(range(n)))
        matching = []
        for t in range(0, n - 1, 2):
            u, v = order[t], order[t + 1]
            matching.append((u, v) if u < v else (v, u))
        parts.append(tuple(sorted(matching)))
        edges.extend(matching)
    return Graph.from_edges(n, edges), tuple(parts)


@dataclass(frozen=True)
class Orientation:
    """A direction for every edge; ``target[e]`` is the endpoint edge e points to.

    Out-edges point from a vertex toward its parents (the classic oriented-tree
    convention: a vertex has an out-edge to each parent).  Not checked for
    cycles: ``orient_by_id``, ``orient_forest`` and ``h_partition`` build none.
    """

    graph: Graph
    target: tuple[int, ...]
    _out: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @staticmethod
    def from_targets(g: Graph, target) -> "Orientation":
        out: list[list[int]] = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            head = target[e]
            if head not in (u, v):
                raise ValueError(f"edge {e} target {head} is not an endpoint")
            out[u + v - head].append(e)
        return Orientation(
            graph=g, target=tuple(target), _out=tuple(tuple(o) for o in out))

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    @property
    def max_out_degree(self) -> int:
        return max((len(o) for o in self._out), default=0)

    def children(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the sources of the edges pointing at it, in vertex order."""
        kids: list[list[int]] = [[] for _ in range(self.graph.n)]
        for v, out in enumerate(self._out):
            for e in out:
                kids[self.target[e]].append(v)
        return tuple(tuple(k) for k in kids)


def orient_by_id(g: Graph) -> Orientation:
    """Orient every edge toward its higher-id endpoint (always acyclic)."""
    return Orientation.from_targets(g, [v for _, v in g.edges])


def orient_forest(g: Graph) -> Orientation:
    """Orient a forest toward BFS parents, rooting each component at its min id.

    Raises ValueError if the graph contains a cycle.  Every non-root vertex
    gets exactly one out-edge (to its parent); roots get none.
    """
    parent = [-1] * g.n
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    queue.append(u)
                elif u != parent[v]:
                    raise ValueError("graph is not a forest: cycle detected")
    target = []
    for u, v in g.edges:
        if parent[u] == v:
            target.append(v)
        elif parent[v] == u:
            target.append(u)
        else:  # unreachable on a forest
            raise ValueError("graph is not a forest: non-tree edge")
    return Orientation.from_targets(g, target)


def line_graph_size(g: Graph) -> int:
    """The edge count of L(G), sum_v C(deg v, 2); more than
    MAX_LINE_GRAPH_EDGES is refused."""
    size = sum(d * (d - 1) // 2 for d in map(len, g.adjacency))
    if size > MAX_LINE_GRAPH_EDGES:
        raise ValueError(f"line graph must have at most {MAX_LINE_GRAPH_EDGES} edges, "
                         f"got {size}")
    return size


def line_graph(g: Graph) -> Graph:
    """The line graph L(G): vertex j of L(G) is edge j of G.

    Two L-vertices are adjacent iff the corresponding edges share an
    endpoint, so deg_L(e) = deg(u)+deg(v)-2.  An L(G) over the
    ``line_graph_size`` cap is refused before any edge is built.
    """
    line_graph_size(g)
    l_edges = []
    for v in range(g.n):
        incident = [g.edge_id(v, u) for u in g.adjacency[v]]
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                a, b = incident[i], incident[j]
                l_edges.append((a, b) if a < b else (b, a))
    return Graph.from_edges(g.m, l_edges)


def log_star(n: float) -> int:
    """Iterated base-2 logarithm: applications of log2 until the value is <= 2."""
    count = 0
    x = float(n)
    while x > 2.0:
        x = math.log2(x)
        count += 1
    return count
