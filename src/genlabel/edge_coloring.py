"""Edge-labeling algorithms: line-graph reductions, one-round defective
coloring, and a generically colored edge dominating set.

Line-graph runs reuse the vertex algorithms on L(G) verbatim (the draw budget
k uses L(G)'s vertex count, i.e. the edge count of G); each edge is simulated
by its higher-id endpoint, which the edge itself names, so no result lists
it.  The dominating-set algorithm replaces its two cited subroutines with
simple randomized ones, so its round count is reported but carries no bound.
They run as centralized sweeps over G; their node programs are the references
the tests run under ``run_sync``.  The one-round defective coloring is
computed directly from its single exchange of edge numbers and keeps no
reference program.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .graphs import Graph, line_graph, line_graph_size
from .labels import MAX_FACTOR, LabelDomain
from .results import DomainsResult
from .rng import Stream, node_keys, stream_bases, subseed, u64_draws, uniform_draws
from .runtime import NodeContext, NodeProgram, RunReport
from .vertex_coloring import generic_delta2_coloring, generic_random_coloring


def edge_coloring_via_line_graph(g: Graph, variant: str = "random",
                                 c: float = 4.0, seed: int = 0) -> DomainsResult:
    """Run a generic vertex coloring on L(G) to get per-edge label domains.

    Adjacent edges share an endpoint, hence are adjacent in L(G), hence get
    disjoint domains.  The degree bound handed to the vertex algorithm is
    2*max_degree(G) - 1, the line graph's classic degree bound, which also
    keeps the delta2 variant's domains at 2*max_degree(G) - 1 or larger.
    """
    lg = line_graph(g)
    bound = max(1, 2 * g.max_degree - 1)
    if variant == "random":
        base = generic_random_coloring(lg, c=c, seed=seed, delta=bound)
    elif variant == "delta2":
        base = generic_delta2_coloring(lg, delta=bound)
    else:
        raise ValueError(f"variant must be 'random' or 'delta2', got {variant!r}")
    dom = LabelDomain(kind="edge", domains=base.domains.domains, palette=base.domains.palette,
                      stride=base.domains.stride)
    params = dict(base.params)
    params["variant"] = variant
    return DomainsResult(domains=dom, report=base.report, params=params,
                         failed=base.failed)


# ---------------------------------------------------------------------------
# one-round defective edge coloring


def pair_palette(numbers: int) -> list[tuple[int, int]]:
    """All unordered pairs {a, b} with 1 <= a <= b <= numbers, in lexicographic
    order; the coloring's palette of C(numbers+1, 2) colors."""
    return [(a, b) for a in range(1, numbers + 1) for b in range(a, numbers + 1)]


def pair_index(a: int, b: int, numbers: int) -> int:
    """The index of (a, b), a <= b, in ``pair_palette(numbers)``, computed
    without building the palette."""
    return (a - 1) * (2 * numbers + 2 - a) // 2 + b - a


@dataclass(frozen=True)
class KuhnEdgeColoring:
    """``colors[e]`` is edge e's index in ``pair_palette(params["numbers"])``,
    a palette of C(numbers+1, 2) colors: ``pair_index(a, b, numbers)`` for
    the numbers a <= b its endpoints gave it.

    ``numbering[v]`` is vertex v's assignment table: (neighbor, number) per
    incident edge, each of the ``params["numbers"]`` numbers used on at most
    ``params["i"]`` of them.
    """

    colors: tuple[int, ...]
    numbering: tuple[tuple[tuple[int, int], ...], ...]
    report: RunReport
    params: dict = field(default_factory=dict)


def kuhn_defective_edge_coloring(g: Graph, i: int, seed: int = 0) -> KuhnEdgeColoring:
    """One-round defective edge coloring with C(ceil(max_degree/i)+1, 2) colors
    and per-edge defect at most 4i-2.

    Each vertex numbers its incident edges with a random valid numbering (a
    uniformly random order of its neighbors from its own stream, number =
    ceil(position/i)) and tells each neighbor the number of the shared edge;
    an edge's color is the unordered pair of the two numbers.  Each endpoint
    assigns each number to at most i of its edges, so at most 2i-1 other
    edges per endpoint can agree on the edge's pair, giving the 4i-2 bound.
    The numbering is drawn uniformly so every palette color is reachable for
    an edge whose endpoints both have full degree.

    The report is the schedule's: one round of numbering and sending, and a
    second in which the 2m numbers arrive, if there is an edge.
    """
    delta = g.max_degree
    if not 1 <= i <= max(delta, 1):
        raise ValueError(f"i must be in [1, {max(delta, 1)}], got {i}")
    numbers = -(-delta // i) if delta else 1
    numbering = tuple(
        tuple(sorted((u, pos // i + 1)
                     for pos, u in enumerate(Stream(seed, v).shuffle(list(neighbors)))))
        for v, neighbors in enumerate(g.adjacency))
    tables = [dict(row) for row in numbering]
    colors = tuple(pair_index(min(a, b), max(a, b), numbers)
                   for a, b in ((tables[u][v], tables[v][u]) for u, v in g.edges))
    report = RunReport(rounds=(2 if g.m else 1) if g.n else 0,
                       comm_rounds=1 if g.m else 0, messages_total=2 * g.m)
    return KuhnEdgeColoring(colors=colors, numbering=numbering, report=report,
                            params={"i": i, "numbers": numbers})


# ---------------------------------------------------------------------------
# substitute subroutines: proper edge coloring and maximal matching


class _ProposalColoringProgram(NodeProgram):
    """Random-proposal vertex coloring, run on L(G) for edge coloring: an
    uncolored node proposes a color its colored neighbors don't hold and keeps
    it unless an adjacent proposal collides."""

    def __init__(self, palette_size: int):
        self.palette = palette_size

    def init(self, ctx: NodeContext):
        # state: [phase, color, taken (neighbor colors), proposal]
        return ["propose", None, set(), None]

    def step(self, ctx: NodeContext, state, inbox):
        phase, color, taken, proposal = state
        if phase == "propose":
            for _, (kind, value) in inbox:
                if kind == "fixed":
                    taken.add(value)
            free = [x for x in range(self.palette) if x not in taken]
            proposal = free[ctx.rng.draw_uniform(len(free))]
            out = [(u, ("proposal", proposal)) for u in ctx.neighbors]
            return ["resolve", color, taken, proposal], out, False
        clashed = False
        for _, (kind, value) in inbox:
            if kind == "proposal" and value == proposal:
                clashed = True
            elif kind == "fixed":
                taken.add(value)
        if not clashed:
            out = [(u, ("fixed", proposal)) for u in ctx.neighbors]
            return ["done", proposal, taken, None], out, True
        return ["propose", color, taken, None], [], False

    def output(self, ctx: NodeContext, state):
        return state[1]


def simple_edge_coloring(g: Graph, palette_size: int | None = None,
                         seed: int = 0, keys: list[int] | None = None) -> RunReport:
    """Proper edge coloring by repeated random proposals on the line graph;
    the report's ``outputs[e]`` is edge e's color.

    Needs a palette of at least 2*max_degree - 1 (so a free color always
    exists); with 3*max_degree or more it terminates in logarithmically many
    rounds with high probability, else the report is flagged incomplete.
    The run is ``_ProposalColoringProgram`` on L(G), computed as a sweep
    over G that builds no L(G).  ``keys`` is ``rng.node_keys(k)`` for some
    k >= m, which runs on one graph can share.
    """
    delta = max(g.max_degree, 1)
    palette = 3 * delta if palette_size is None else palette_size
    if palette < 2 * delta - 1:
        raise ValueError(f"palette {palette} below 2*max_degree-1 = {2 * delta - 1}")
    line_graph_size(g)
    return _proposal_sweep(g, palette, seed, 24 * (int(math.log2(g.m + 2)) + 2), keys)


def _proposal_sweep(g: Graph, palette: int, seed: int, max_rounds: int,
                    keys: list[int] | None = None) -> RunReport:
    """``run_sync(_ProposalColoringProgram(palette), line_graph(g), seed,
    max_rounds)``, report for report, replayed on G.

    The L-nodes run in lock-step: every live edge proposes in odd rounds and
    resolves in even ones.  So the colors edge (u, v) has heard fixed are the
    ones fixed at u or v before it proposes, ``used[u] | used[v]``, and it
    clashes when another live edge at u or at v proposed the same color.
    Each proposal and each fix sends deg_L(e) = deg(u) + deg(v) - 2
    messages.  A round is a communication round when a message reaches an
    edge that is still live.
    """
    edges = g.edges
    deg = [len(a) for a in g.adjacency]
    fan = [deg[u] + deg[v] - 2 for u, v in edges]
    used: list[set[int]] = [set() for _ in range(g.n)]
    bases = stream_bases(seed, node_keys(g.m) if keys is None else keys[:g.m])
    counters = [0] * g.m
    colors: list[int | None] = [None] * g.m
    live = list(range(g.m))
    fixed_at: set[int] = set()  # the endpoints of the edges fixed last round
    rounds = comm_rounds = messages = 0
    while live and rounds < max_rounds:
        # propose: draw the r-th color outside the fixed ones at both endpoints
        comm_rounds += bool(fixed_at) and any(
            u in fixed_at or v in fixed_at for u, v in map(edges.__getitem__, live))
        rounds += 1
        proposals = []
        draws = uniform_draws(bases, counters, live, [
            palette - len(used[u] | used[v]) for u, v in map(edges.__getitem__, live)])
        for e, color in zip(live, draws):
            u, v = edges[e]
            for x in sorted(used[u] | used[v]):
                if x > color:
                    break
                color += 1
            proposals.append(color)
            messages += fan[e]
        if rounds == max_rounds:
            break
        # resolve: keep a proposal no other live edge made at either endpoint;
        # proposals reach a live edge iff two live edges meet at some vertex
        ends = [(u * palette + c, v * palette + c)  # (endpoint, color) keys
                for (u, v), c in zip(map(edges.__getitem__, live), proposals)]
        proposed = Counter(key for pair in ends for key in pair)
        comm_rounds += len({key // palette for key in proposed}) < 2 * len(live)
        rounds += 1
        fixed_at = set()
        clashed = []
        for e, color, (at_u, at_v) in zip(live, proposals, ends):
            if proposed[at_u] > 1 or proposed[at_v] > 1:
                clashed.append(e)
                continue
            u, v = edges[e]
            colors[e] = color
            used[u].add(color)
            used[v].add(color)
            fixed_at.update((u, v))
            messages += fan[e]
        live = clashed
    return RunReport(rounds=rounds, comm_rounds=comm_rounds, messages_total=messages,
                     outputs=tuple(colors), incomplete=bool(live))


@dataclass(frozen=True)
class Matching:
    edges: frozenset[int]
    report: RunReport


class _MatchingProgram(NodeProgram):
    """Randomized maximal matching: free endpoints exchange per-edge random
    keys, an edge whose combined key is the local maximum at both endpoints
    joins the matching, and matched vertices withdraw."""

    def init(self, ctx: NodeContext):
        # state: [phase, matched_to, free_neighbors, keys_mine, keys_theirs, pick]
        return ["keys", None, set(ctx.neighbors), {}, {}, None]

    def step(self, ctx: NodeContext, state, inbox):
        phase, matched_to, free_nbrs, mine, theirs, pick = state
        if phase == "keys":
            for _, msg in inbox:
                if msg[0] == "gone":
                    free_nbrs.discard(msg[1])
            if not free_nbrs:
                return ["done", None, free_nbrs, {}, {}, None], [], True
            mine = {u: ctx.rng.draw_u64() for u in sorted(free_nbrs)}
            out = [(u, ("key", ctx.node, mine[u])) for u in sorted(free_nbrs)]
            return ["pick", None, free_nbrs, mine, {}, None], out, False
        if phase == "pick":
            theirs = {}
            for _, msg in inbox:
                if msg[0] == "key":
                    theirs[msg[1]] = msg[2]
            candidates = [u for u in sorted(free_nbrs) if u in theirs]
            if not candidates:
                return ["keys", None, free_nbrs, {}, {}, None], [], False
            def strength(u):
                lo, hi = min(ctx.node, u), max(ctx.node, u)
                return (mine[u] ^ theirs[u], lo, hi)
            pick = max(candidates, key=strength)
            return ["resolve", None, free_nbrs, mine, theirs, pick], \
                [(pick, ("pick", ctx.node))], False
        # resolve: the edge is matched iff both endpoints picked each other
        pickers = {msg[1] for _, msg in inbox if msg[0] == "pick"}
        if pick is not None and pick in pickers:
            out = [(u, ("gone", ctx.node)) for u in sorted(free_nbrs) if u != pick]
            return ["done", pick, set(), {}, {}, None], out, True
        return ["keys", None, free_nbrs, {}, {}, None], [], False

    def output(self, ctx: NodeContext, state):
        return state[1]


def maximal_matching(g: Graph, edges, seed: int = 0,
                     keys: list[int] | None = None) -> Matching:
    """Distributed maximal matching by symmetric random proposals among the
    G edges whose ids are in ``edges``, returned as G's edge ids.

    The globally strongest eligible edge always matches, so progress is
    guaranteed; with high probability the run finishes within its logarithmic
    round budget, else it is flagged incomplete.  The run is
    ``_MatchingProgram`` on G's vertices and those edges, computed as a sweep.
    ``keys`` is ``rng.node_keys(k)`` for some k >= n.
    """
    report = _matching_sweep(g, edges, seed, 48 * (int(math.log2(g.n + 2)) + 2), keys)
    return Matching(edges=frozenset(g.edge_id(v, u) for v, u in enumerate(report.outputs)
                                    if u is not None), report=report)


def _matching_sweep(g: Graph, edges, seed: int, max_rounds: int,
                    keys: list[int] | None = None) -> RunReport:
    """``run_sync(_MatchingProgram(), H, seed, max_rounds)``, report for
    report, where H has G's vertices and the G edges whose ids are in
    ``edges``; replayed over the vertices that still have a free neighbor.

    The live vertices run keys, pick and resolve in lock-step, so a live
    vertex's free neighbors are exactly its unmatched neighbors, and in a
    pick round each of them has sent it a key.  A vertex draws one key per
    free neighbor, in sorted order, from its own stream.  For a fixed v,
    ordering edges by (lo, hi) is ordering them by u, so v picks the largest
    ``(key xor) * n + u``.

    Every round after the first delivers a message to a live vertex: keys
    and picks go to live vertices, and a component of free vertices that
    stays live through a resolve round matched its strongest edge, so one of
    its unmatched vertices hears "gone".
    """
    free: dict[int, set[int]] = {}
    for u, v in map(g.edges.__getitem__, edges):
        free.setdefault(u, set()).add(v)
        free.setdefault(v, set()).add(u)
    keys = node_keys(g.n) if keys is None else keys
    bases = dict(zip(free, stream_bases(seed, [keys[v] for v in free])))
    counters = dict.fromkeys(free, 0)
    n = g.n
    partner: list[int | None] = [None] * n
    live = n
    rounds = messages = 0
    while live and rounds < max_rounds:
        phase = rounds % 3
        if phase == 0:  # keys: a vertex left without free neighbors halts
            free = {v: nbrs for v, nbrs in free.items() if nbrs}
            drawn = {}
            for v, nbrs in free.items():
                order = sorted(nbrs)
                drawn[v] = dict(zip(order, u64_draws(bases, counters, v, len(order))))
                messages += len(order)
        elif phase == 1:  # pick: the strongest edge by (key xor, lo, hi)
            pick = {}
            for v, nbrs in free.items():
                mine = drawn[v]
                pick[v] = max([(mine[u] ^ drawn[u][v]) * n + u for u in nbrs]) % n
            messages += len(free)
        else:  # resolve: mutual picks match and tell their other free neighbors
            matched = {v for v, u in pick.items() if pick[u] == v}
            for v in matched:
                partner[v] = pick[v]
                others = free.pop(v)
                others.discard(pick[v])
                messages += len(others)
                for u in others:
                    if u not in matched:
                        free[u].discard(v)
        live = len(free)
        rounds += 1
    return RunReport(rounds=rounds, comm_rounds=max(rounds - 1, 0), messages_total=messages,
                     outputs=tuple(partner), incomplete=live > 0)


# ---------------------------------------------------------------------------
# generically colored edge dominating set


@dataclass(frozen=True)
class DominatingColoredSet:
    """A dominating edge set split into per-class matchings with disjoint
    per-class color ranges: class i edges may pick any of its t colors, for
    the ``params["classes"]`` classes."""

    dominating: frozenset[int]
    class_of: tuple[int, ...]
    domains: LabelDomain
    report: RunReport
    params: dict = field(default_factory=dict)


def dominating_edge_coloring(g: Graph, c: int = 3, t: int = 3,
                             seed: int = 0) -> DominatingColoredSet:
    """Colored edge dominating set: properly color edges with c*max_degree
    colors, split the palette into ceil(sqrt(max_degree)) classes, compute one
    maximal matching per class, and give class i's matching the color range
    [(i-1)*t, i*t).

    The union of the matchings dominates every edge; classes are matchings
    with disjoint ranges, so any joint selection is a proper partial edge
    coloring.  Problem domain t*s, solution domain t, contingency factor
    s = ceil(sqrt(max_degree)).
    """
    if not 3 <= c <= MAX_FACTOR:
        raise ValueError(f"c must be in [3, {MAX_FACTOR}], got {c}")
    if not 2 <= t <= MAX_FACTOR:
        raise ValueError(f"t must be in [2, {MAX_FACTOR}], got {t}")
    delta = max(g.max_degree, 1)
    s = math.isqrt(delta - 1) + 1  # ceil(sqrt(delta))
    base_palette = c * delta
    width = -(-base_palette // s)
    keys = node_keys(max(g.n, g.m))
    coloring = simple_edge_coloring(g, palette_size=base_palette,
                                    seed=subseed(seed, 0x6563), keys=keys)
    class_of = tuple(
        col // width + 1 if col is not None else 0
        for col in coloring.outputs)
    members: list[list[int]] = [[] for _ in range(s + 1)]  # class 0: uncolored
    for e, cls in enumerate(class_of):
        members[cls].append(e)
    matches = [maximal_matching(g, members[cls], seed=subseed(seed, 0x6D6D, cls), keys=keys)
               for cls in range(1, s + 1)]
    dominating = frozenset().union(*(match.edges for match in matches))
    domains = {
        e: tuple(range((class_of[e] - 1) * t, class_of[e] * t))
        for e in sorted(dominating)
    }
    dom = LabelDomain(kind="edge", domains=domains, palette=t * s, stride=t)
    # the class matchings run side by side, after the coloring
    report = RunReport.sequential(
        [coloring, RunReport.parallel(match.report for match in matches)])
    params = {
        "c": c,
        "t": t,
        "classes": s,
        "class_width": width,
        "base_palette": base_palette,
        "round_accounting": "substitute-subroutine",
    }
    return DominatingColoredSet(
        dominating=dominating, class_of=class_of, domains=dom, report=report, params=params)
