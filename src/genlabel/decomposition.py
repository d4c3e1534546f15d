"""Clustering, forest decomposition, and low-arboricity coloring.

Linial-Saks style clustering runs in phases: every still-unclustered vertex
draws a truncated geometric radius, floods its (radius, id) candidacy that
far through the active subgraph, and everyone strictly inside the ball of
the largest candidacy it hears joins that candidate's cluster and retires.
A cluster is identified by (phase, center id), so two vertices sharing a
cluster label lie within 2B of each other in the original graph.

``linial_saks`` computes it by a centralized sweep that produces the
clustering of the message-passing node program from the same seeds;
``_linial_saks_program`` runs that program and is the reference the tests
check the sweep against.  The sweep prunes its floods: within a phase
it expands a vertex only for a remaining radius larger than any earlier flood
brought there, since a smaller one reaches only vertices already claimed.
Its message count is the number of expansions it simulates, each a distinct
message of the node program, so it never exceeds the program's count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .graphs import Graph, Orientation, orient_by_id
from .labels import MAX_FACTOR, LabelDomain, draw_count
from .results import DomainsResult
from .rng import Stream, geometric_draws, node_keys, stream_bases, subseed
from .runtime import NodeContext, NodeProgram, RunReport, run_sync
from .vertex_coloring import draw_and_prune


class ArboricityError(ValueError):
    """The claimed arboricity bound is inconsistent with the graph."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness


def default_radius_cap(n: int) -> int:
    return max(1, math.ceil(2 * math.log2(max(n, 2))))


@dataclass(frozen=True)
class Clustering:
    """One clustering execution: per-vertex (phase, center) or None on give-up."""

    clusters: tuple[tuple[int, int] | None, ...]
    phase_count: int
    radius_cap: int
    report: RunReport

    @property
    def failed(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.clusters) if c is None)

    def distinct_clusters(self) -> list[tuple[int, int]]:
        return sorted({c for c in self.clusters if c is not None})


class _LSProgram(NodeProgram):
    """Message-passing Linial-Saks phases (reference round-model engine)."""

    def __init__(self, radius_cap: int, phase_budget: int):
        self.cap = radius_cap
        self.budget = phase_budget

    def init(self, ctx: NodeContext):
        # state: [round_in_phase, phase, radius, heard, cluster]
        # heard: center -> (radius, dist); refreshed every phase
        return [0, 0, 0, {}, None]

    def step(self, ctx: NodeContext, state, inbox):
        j, phase, radius, heard, cluster = state
        cap = self.cap
        outbox = []
        if j == 0:
            radius = ctx.rng.geometric(cap)
            heard = {ctx.node: (radius, 0)}
            if radius >= 1:
                msg = (radius, ctx.node, 1)
                outbox = [(u, msg) for u in ctx.neighbors]
        else:
            for _, (r_w, w, h) in inbox:
                if w not in heard:
                    heard[w] = (r_w, h)
                    if h + 1 <= r_w:
                        fwd = (r_w, w, h + 1)
                        outbox.extend((u, fwd) for u in ctx.neighbors)
        if j == cap:
            r_win, center = max((rd, w) for w, (rd, _) in heard.items())
            dist = heard[center][1]
            if dist < r_win:
                return [0, phase, radius, {}, (phase, center)], [], True
            if phase + 1 >= self.budget:
                return [0, phase, radius, {}, None], [], True  # give up
            return [0, phase + 1, 0, {}, None], [], False
        return [j + 1, phase, radius, heard, cluster], outbox, False

    def output(self, ctx: NodeContext, state):
        return state[4]


def _cap_and_budget(n: int, radius_cap: int | None) -> tuple[int, int]:
    """The radius cap (the default for n if None) and the phase budget."""
    cap = default_radius_cap(n) if radius_cap is None else radius_cap
    if cap < 1:
        raise ValueError(f"radius cap must be >= 1, got {cap}")
    return cap, max(8, math.ceil(8 * math.log2(max(n, 2))))  # phases before giving up


def _linial_saks_program(g: Graph, seed: int = 0,
                         radius_cap: int | None = None) -> Clustering:
    """``linial_saks`` run as the message-passing node program: the reference
    the sweep is checked against in the tests."""
    radius_cap, phase_budget = _cap_and_budget(g.n, radius_cap)
    program = _LSProgram(radius_cap, phase_budget)
    report = run_sync(program, g, seed,
                      max_rounds=phase_budget * (radius_cap + 1) + 1)
    phases = -(-report.rounds // (radius_cap + 1))  # cap+1 rounds per phase
    return Clustering(clusters=report.outputs, phase_count=phases,
                      radius_cap=radius_cap, report=report)


def linial_saks(g: Graph, seed: int = 0, radius_cap: int | None = None, *,
                keys: list[int] | None = None) -> Clustering:
    """One weak-diameter clustering execution, computed by a centralized sweep
    that yields the node program's clustering for the same seed.

    Every vertex lands in exactly one cluster whose members sit within
    2*radius_cap of each other in G; a vertex that stays unclustered past the
    phase budget gives up and is reported in ``failed`` (retry with a new
    seed).

    ``keys`` is ``rng.node_keys(g.n)``, which executions on one graph share.
    Each phase draws its radii in one ``geometric_draws`` batch, bit-exact
    with every vertex's ``Stream``.

    Per phase, candidates are processed in decreasing (radius, id) order,
    from buckets by radius sized by the largest radius drawn, not by the cap,
    which has no upper bound; a bounded BFS through this phase's active
    vertices claims every vertex for the first (hence maximal) candidacy that
    reaches it, which is exactly the program's max-of-heard rule.  The sweep
    stops early once every active vertex is claimed.

    Pruning: ``best[u]`` is the largest remaining radius with which any flood
    of this phase has expanded u.  A later flood that reaches u with no more
    than that stops there: everything it could reach through u lies within
    ``best[u]`` of u and is already claimed by an earlier, larger candidacy.
    So a vertex claimed first by w is reached along an unpruned shortest path
    and its recorded depth is its true distance.  Retired vertices hold a
    ``best`` no flood can beat.  ``messages_total`` counts the expansions the
    sweep simulates; each is a distinct message of the node program, so it
    never exceeds the program's count.  ``best[u]`` only rises through values
    below the cap, so a phase costs at most ``radius_cap * n`` messages.
    """
    radius_cap, phase_budget = _cap_and_budget(g.n, radius_cap)
    n = g.n
    bases = stream_bases(seed, node_keys(n) if keys is None else keys)
    counters = [0] * n
    clusters: list[tuple[int, int] | None] = [None] * n
    adjacency = g.adjacency
    best = [-1] * n
    radius = [0] * n
    center_of = [0] * n
    dist_of = [0] * n
    active = list(range(n))  # kept sorted
    messages = 0
    phases_run = 0
    for phase in range(phase_budget):
        if not active:
            break
        phases_run = phase + 1
        geometric_draws(bases, counters, active, radius_cap, radius)
        buckets = [[] for _ in range(max(map(radius.__getitem__, active)) + 1)]
        for v in active:
            buckets[radius[v]].append(v)
            best[v] = -1
            center_of[v] = -1
        unclaimed = len(active)
        for w in chain.from_iterable(map(reversed, reversed(buckets))):
            if not unclaimed:
                break
            r_w = radius[w]
            if center_of[w] < 0:
                center_of[w] = w
                dist_of[w] = 0
                unclaimed -= 1
            if r_w <= best[w]:
                continue
            best[w] = r_w
            frontier = [w]
            for depth in range(1, r_w + 1):
                left = r_w - depth
                nxt = []
                for v in frontier:
                    for u in adjacency[v]:
                        if left > best[u]:
                            best[u] = left
                            messages += 1
                            nxt.append(u)
                            if center_of[u] < 0:
                                center_of[u] = w
                                dist_of[u] = depth
                                unclaimed -= 1
                frontier = nxt
        still_active = []
        for v in active:
            center = center_of[v]
            if dist_of[v] < radius[center]:
                clusters[v] = (phase, center)
                best[v] = radius_cap  # above any radius a flood passes on
            else:
                still_active.append(v)
        active = still_active
    report = RunReport.sweep(phases_run * (radius_cap + 1), messages,
                             incomplete=bool(active))
    return Clustering(clusters=tuple(clusters), phase_count=phases_run,
                      radius_cap=radius_cap, report=report)


def generic_network_decomposition(g: Graph, c: int = 2, seed: int = 0,
                                  radius_cap: int | None = None) -> DomainsResult:
    """Run c independent clustering executions simultaneously; vertex v's
    domain is {(execution i, cluster of v in run i)}, always of size c.

    Labels encode (execution, cluster): any two vertices sharing a label were
    put in the same cluster by the same execution, so every label class has
    weak diameter at most 2*radius_cap.  Rounds are the maximum over the
    simultaneous executions; a failed execution flags the whole result.
    """
    if not 2 <= c <= MAX_FACTOR:
        raise ValueError(f"c must be in [2, {MAX_FACTOR}], got {c}")
    cap = default_radius_cap(g.n) if radius_cap is None else radius_cap
    keys = node_keys(g.n)
    runs = [
        linial_saks(g, seed=subseed(seed, 0x6E64, i), radius_cap=cap, keys=keys)
        for i in range(1, c + 1)
    ]
    failed = sorted({v for run in runs for v in run.failed})
    dense_maps = []
    for run in runs:
        dense_maps.append({cl: j for j, cl in enumerate(run.distinct_clusters())})
    stride = max((len(m) for m in dense_maps), default=1) or 1
    domains = {}
    for v in range(g.n):
        labels = []
        for i, run in enumerate(runs):
            cl = run.clusters[v]
            if cl is not None:
                labels.append(i * stride + dense_maps[i][cl])
        domains[v] = tuple(labels)  # increasing: label i*stride + j has j < stride
    dom = LabelDomain(kind="vertex", domains=domains, palette=c * stride,
                      stride=stride)
    report = RunReport.parallel(r.report for r in runs)
    params = {
        "c": c,
        "radius_cap": cap,
        "phase_counts": [r.phase_count for r in runs],
        "clusters_per_execution": [len(m) for m in dense_maps],
    }
    return DomainsResult(domains=dom, report=report, params=params,
                         failed=tuple(failed))


@dataclass(frozen=True)
class HPartition:
    """Peeling layers: every vertex has at most (2+eps)*a neighbors in its own
    or higher layers, and the induced orientation (toward higher layer, ties
    toward higher id) is acyclic with out-degree at most floor((2+eps)*a)."""

    layer: tuple[int, ...]
    layer_count: int  # one simulated round per peeled layer
    orientation: Orientation


def h_partition(g: Graph, a: int, eps: float = 1.0) -> HPartition:
    """Iterated peeling of low-degree vertices for graphs of arboricity <= a.

    Layer i strips every remaining vertex of remaining degree <= (2+eps)*a.
    If no vertex qualifies while some remain, the arboricity claim is wrong
    and the remaining vertex set is reported as the witness subgraph (all its
    degrees exceed (2+eps)*a >= 2a, impossible at arboricity a).  At arboricity
    a every layer peels more than eps/(2+eps) of the remaining set, which the
    layer cap allows for; so past the cap, the witness is the set R remaining
    before the first layer that peeled at most that share.  More than
    2|R|/(2+eps) vertices of R keep a degree above (2+eps)*a inside R, so R
    induces more than a*|R| edges.
    """
    if a < 1:
        raise ValueError(f"arboricity bound must be >= 1, got {a}")
    if not 0 < eps <= 2:
        raise ValueError(f"eps must be in (0, 2], got {eps}")
    threshold = (2 + eps) * a
    # at most n layers peel, so the min changes no outcome; 2/eps may be inf
    cap = (math.floor(min((2 / eps) * math.log2(g.n), g.n)) + 1) if g.n >= 2 else 1
    degree = [g.degree(v) for v in range(g.n)]
    layer = [0] * g.n
    remaining = set(range(g.n))
    share = Fraction(eps)  # a slow layer peels at most share/(2+share) of R
    dense = ()
    level = 0
    while remaining:
        level += 1
        peel = [v for v in remaining if degree[v] <= threshold]
        if not peel:
            raise ArboricityError(
                f"no vertex of degree <= {threshold} left; arboricity bound "
                f"{a} violated", tuple(sorted(remaining)))
        if not dense and len(peel) * (2 + share) <= share * len(remaining):
            dense = tuple(sorted(remaining))
        if level > cap:
            raise ArboricityError(
                f"peeling exceeded the {cap}-layer bound; arboricity bound "
                f"{a} violated", dense)
        for v in peel:
            layer[v] = level
            remaining.discard(v)
        for v in peel:
            for u in g.adjacency[v]:
                degree[u] -= 1
    target = []
    for u, v in g.edges:
        ku, kv = (layer[u], u), (layer[v], v)
        target.append(v if kv > ku else u)
    orientation = Orientation.from_targets(g, target)
    return HPartition(layer=tuple(layer), layer_count=level, orientation=orientation)


@dataclass(frozen=True)
class ForestLabeling:
    """Edge labels in 1..forest_count, each assigned by one endpoint such that
    a vertex's assigned edges carry pairwise distinct labels; every label
    class is then a forest (each vertex has at most one parent per class).
    From an edge's viewpoint every label in 1..forest_count is possible, so
    its domain is that whole range and the contingency factor is 1."""

    edge_labels: tuple[int, ...]
    assigner: tuple[int, ...]
    forest_count: int


class _ForestIdProgram(NodeProgram):
    """Two communication rounds: exchange ids to orient, then send each
    higher-id neighbor a random distinct label for the shared edge.  The
    reference the tests check ``forest_decomposition``'s id mode against."""

    def __init__(self, forest_count: int):
        self.forest_count = forest_count

    def init(self, ctx: NodeContext):
        return [0, (), ()]

    def step(self, ctx: NodeContext, state, inbox):
        r = state[0]
        if r == 0:
            return [1, (), ()], [(u, ctx.node) for u in ctx.neighbors], False
        if r == 1:
            higher = sorted(nid for _, nid in inbox if nid > ctx.node)
            # a vertex with no edge to number skips its shuffle: its stream is its own
            numbers = ctx.rng.shuffle(list(range(1, self.forest_count + 1))) if higher else ()
            assigned = tuple(zip(higher, numbers))
            return [2, assigned, ()], [(u, num) for u, num in assigned], False
        received = tuple(sorted((u, num) for u, num in inbox))
        return [3, state[1], received], [], True

    def output(self, ctx: NodeContext, state):
        return (state[1], state[2])


def forest_decomposition(g: Graph, mode: str = "id", a: int | None = None,
                         eps: float = 1.0, seed: int = 0) -> tuple[ForestLabeling, RunReport]:
    """Label every edge with a forest index; every label class is acyclic.
    Returns the labeling and the run report; no per-edge domain is built.

    id mode: orient toward higher ids, with forest_count = max degree and the
    report of ``_ForestIdProgram``.  h-partition mode: orient via the peeling
    partition, with forest_count = floor((2+eps)*a) and a <= MAX_FACTOR.
    Either way each vertex with out-edges shuffles 1..forest_count on its own
    stream and numbers them in edge order, so it draws uniformly among
    injective assignments and every one of them is valid.
    """
    if mode == "id":
        orientation = orient_by_id(g)
        forest_count = g.max_degree
        # the program's id exchange, numbering and receive-only round
        report = RunReport(rounds=3 if g.n else 0, comm_rounds=2 if g.m else 0,
                           messages_total=3 * g.m)
    elif mode == "h-partition":
        if a is None:
            raise ValueError("h-partition mode requires the arboricity bound a")
        if a > MAX_FACTOR:  # each vertex shuffles all floor((2+eps)*a) labels
            raise ValueError(f"a must be at most {MAX_FACTOR}, got {a}")
        hp = h_partition(g, a, eps)
        orientation = hp.orientation
        forest_count = math.floor((2 + eps) * a)
        # every edge has one source, which numbers it: out-degree <= forest_count
        report = RunReport.sweep(hp.layer_count + 1 if g.n else 0, g.m)
    else:
        raise ValueError(f"mode must be 'id' or 'h-partition', got {mode!r}")
    labels = [0] * g.m
    assigner = [0] * g.m
    for v in range(g.n):
        out = orientation.out_edges(v)
        if not out:  # only a vertex that numbers shuffles
            continue
        numbers = Stream(seed, v).shuffle(list(range(1, forest_count + 1)))
        for num, e in zip(numbers, out):
            labels[e] = num
            assigner[e] = v
    return ForestLabeling(tuple(labels), tuple(assigner), forest_count), report


def arboricity_generic_coloring(g: Graph, a: int, eps: float = 1.0,
                                c: float = 4.0, seed: int = 0) -> DomainsResult:
    """Generic coloring for arboricity-a graphs: acyclic low-out-degree
    orientation via the peeling partition, then one round of parent-to-child
    color-set pruning.  Each edge has one direction, so adjacent surviving
    sets are disjoint outright.  Palette 2*floor((2+eps)*a)*k, with stride
    2*floor((2+eps)*a); the peeling takes ``params["layers"]`` rounds."""
    hp = h_partition(g, a, eps)
    bound = math.floor((2 + eps) * a)
    k = draw_count(c, g.n)
    orientation = hp.orientation
    roots = frozenset(v for v in range(g.n) if not orientation.out_degree(v))
    dom, report, failed = draw_and_prune(g, seed, k, 2 * bound, orientation.children(),
                                         roots)
    params = {
        "a": a,
        "eps": eps,
        "c": c,
        "k": k,
        "out_degree_bound": bound,
        "layers": hp.layer_count,
    }
    return DomainsResult(domains=dom, report=report, params=params, failed=failed)
