"""Generic vertex-coloring algorithms, each computed by a centralized pass
per round over arrays.  The node programs kept here are the references the
tests run under ``run_sync``; Cole-Vishkin has none.

Every algorithm here computes, for each vertex, a *set* of labels such that
any private choice from the sets is globally valid: disjoint neighbor sets
for proper coloring, bounded per-label neighbor multiplicity for defective
coloring.  The second (private, uniform) selection stage is trivial and left
to the caller.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from operator import add

from .coverfree import PolyFamily, smallest_prime_geq
from .graphs import Graph, Orientation, log_star
from .labels import MAX_DELTA, LabelDomain, draw_count
from .results import ColoringResult, DomainsResult
from .rng import Stream, draw_array
from .runtime import NodeContext, NodeProgram, RunReport


def _degree_bound(g: Graph, delta: int | None) -> int:
    """The given degree bound, or the max degree if none; at least 1.  A given
    bound above MAX_DELTA is refused before anything is sized by it."""
    if delta is not None and delta > MAX_DELTA:
        raise ValueError(f"delta must be at most {MAX_DELTA}, got {delta}")
    bound = g.max_degree if delta is None else delta
    if bound < g.max_degree:
        raise ValueError(f"delta {bound} below realized max degree {g.max_degree}")
    return max(bound, 1)


# ---------------------------------------------------------------------------
# 3-coloring of oriented forests and its domain expansion


def _reduction_rounds(n: int) -> int:
    """Rounds of bit-index reduction needed to bring n colors down to <= 6."""
    count = 0
    palette = max(n, 1)
    while palette > 6:
        palette = 2 * math.ceil(math.log2(palette))
        count += 1
    return count


def _bit_reduce(own: int, other: int) -> int:
    diff = own ^ other
    i = (diff & -diff).bit_length() - 1  # lowest differing bit index
    return 2 * i + ((own >> i) & 1)


def _free_color(a: int, b: int) -> int:
    """The smallest of 0, 1, 2 that is neither a nor b."""
    return min({0, 1, 2} - {a, b})


def cole_vishkin_3coloring(g: Graph, orientation: Orientation) -> ColoringResult:
    """Proper 3-coloring of an oriented forest in about log*(n) rounds.

    The orientation must have out-degree at most 1 everywhere (each vertex
    knows its unique parent) and be acyclic.  Colors start as ids, then run
    iterated bit reduction against the parent's color and three
    shift/recolor pass pairs, one pass over a parent array per round.  Roots
    reduce against their own color with the lowest bit flipped and rotate
    their color (+1 mod 3) when shifting, which keeps every intermediate
    coloring proper.

    The report is the schedule's: round 0 sends the ids and round t + 6
    recolors last, so t + 7 rounds, in t + 6 of which every vertex that has a
    parent hears that parent's color.
    """
    if orientation.graph is not g and orientation.graph != g:
        raise ValueError("orientation was built for a different graph")
    if orientation.max_out_degree > 1:
        bad = next(v for v in range(g.n) if orientation.out_degree(v) > 1)
        raise ValueError(f"not an oriented forest: vertex {bad} has out-degree > 1")
    parent = [orientation.target[out[0]] if out else -1
              for out in map(orientation.out_edges, range(g.n))]
    t = _reduction_rounds(g.n)
    colors = list(range(g.n))
    for _ in range(t):
        colors = [_bit_reduce(c, colors[p] if p >= 0 else c ^ 1)
                  for c, p in zip(colors, parent)]
    for target in (5, 4, 3):
        # shift down; then a vertex of the target color avoids its parent's
        # color and its own old one, which every child now holds
        shifted = [colors[p] if p >= 0 else (c + 1) % 3 for c, p in zip(colors, parent)]
        colors = [_free_color(shifted[p] if p >= 0 else -1, c) if s == target else s
                  for s, c, p in zip(shifted, colors, parent)]
    # one vertex with a parent per edge, each hearing it every round but the first
    report = RunReport(rounds=t + 7 if g.n else 0, comm_rounds=t + 6 if g.m else 0,
                       messages_total=(t + 6) * g.m)
    rounds_bound = log_star(max(g.n, 2))
    params = {
        "reduction_rounds": t,
        "log_star_n": rounds_bound,
        "round_constant": report.rounds - rounds_bound,
    }
    return ColoringResult(colors=tuple(colors), report=report, params=params)


def expand_to_generic(coloring, delta: int) -> LabelDomain:
    """Blow a proper 3-coloring up into per-vertex domains of size delta.

    Vertex v gets {(i, color(v)) : 0 <= i < delta}; neighbor domains are
    disjoint because the second component already differs.  Palette 3*delta.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delta > MAX_DELTA:
        raise ValueError(f"delta must be at most {MAX_DELTA}, got {delta}")
    colors = list(coloring)
    if any(c not in (0, 1, 2) for c in colors):
        raise ValueError("expected a 3-coloring with colors in {0,1,2}")
    by_color = [tuple(range(c, 3 * delta, 3)) for c in (0, 1, 2)]
    domains = {v: by_color[c] for v, c in enumerate(colors)}
    return LabelDomain(kind="vertex", domains=domains, palette=3 * delta, stride=3)


# ---------------------------------------------------------------------------
# one-round random coloring


class _DrawPruneProgram(NodeProgram):
    """Draw k values from [0, value_range) on the node's own stream, tag draw
    i as ``i*value_range + value``, send the tagged draws to ``receivers[v]``
    and drop anything received.  A node in ``quiet`` is sent nothing, so it
    halts right after its draw; every other node waits one round for its
    inbox.  Its output is the sorted tuple of the labels kept.  The reference
    the tests check ``_draw_prune_sweep`` against."""

    def __init__(self, k: int, value_range: int, receivers, quiet: frozenset):
        self.value_range = value_range
        self.tags = range(0, k * value_range, value_range)
        self.receivers = receivers
        self.quiet = quiet

    def init(self, ctx: NodeContext):
        return None

    def step(self, ctx: NodeContext, state, inbox):
        node = ctx.node
        if state is None:
            draws = ctx.rng.draw_many(len(self.tags), self.value_range)
            picks = frozenset(map(add, self.tags, draws))
            return picks, [(u, picks) for u in self.receivers[node]], node in self.quiet
        return state.difference(*[theirs for _, theirs in inbox]), [], True

    def output(self, ctx: NodeContext, state):
        return tuple(sorted(state))


def draw_and_prune(g: Graph, seed: int, k: int, value_range: int, receivers,
                   quiet: frozenset) -> tuple[LabelDomain, RunReport, tuple[int, ...]]:
    """Run the draw-and-prune round; returns the surviving vertex domains
    (palette value_range*k), the run report, and the vertices left empty.

    Vertex v draws k values from [0, value_range) on its private stream and
    tags draw i as ``i*value_range + value``.  The round is computed by the
    centralized sweep, which yields the domains and the report of the
    message-passing ``_DrawPruneProgram``."""
    report = _draw_prune_sweep(g.n, seed, k, value_range, receivers, quiet)
    domains = dict(enumerate(report.outputs))
    failed = tuple(v for v in range(g.n) if not domains[v])
    dom = LabelDomain(kind="vertex", domains=domains, palette=value_range * k,
                      stride=value_range)
    return dom, report, failed


def _draw_prune_sweep(n: int, seed: int, k: int, value_range: int, receivers,
                      quiet: frozenset) -> RunReport:
    """The draw-and-prune round computed centrally, with the program's report.

    Tags make two draws collide only at the same index, so draw i of a vertex
    survives unless a vertex that sends to it drew the same value at i.  A
    quiet vertex halts before the exchange and keeps every draw.  Labels with
    the same tag differ only in their value, so the draws are compared one
    index at a time over the (sender, receiver) arrays, and no array larger
    than one index's messages is gathered.  Draw i's label is below draw
    i+1's, so each vertex's kept labels come out as an increasing tuple."""
    import numpy as np

    palette = value_range * k
    if palette <= 1 << 64:
        draws = draw_array(seed, n, k, value_range)
    else:  # labels wider than 64 bits stay Python ints
        rows = [Stream(seed, v).draw_many(k, value_range) for v in range(n)]
        draws = np.array(rows, dtype=object).reshape(n, k)
    labels = draws + np.array(range(0, palette, value_range), dtype=draws.dtype)
    senders = np.repeat(np.arange(n), list(map(len, receivers)))
    messages = senders.size
    targets = np.fromiter(chain.from_iterable(receivers), dtype=np.intp, count=messages)
    listening = np.ones(n, dtype=bool)
    listening[list(quiet)] = False
    heard = listening[targets]
    senders, targets = senders[heard], targets[heard]
    keep = np.ones((k, n), dtype=bool)
    for i, row in enumerate(np.ascontiguousarray(draws.T)):
        keep[i, targets[row[senders] == row[targets]]] = False
    kept = iter(labels[keep.T].tolist())
    outputs = tuple(tuple(islice(kept, size)) for size in keep.sum(axis=0).tolist())
    rounds = 0 if n == 0 else 1 if quiet.issuperset(range(n)) else 2
    return RunReport(rounds=rounds, comm_rounds=int(targets.size > 0),
                     messages_total=messages, outputs=outputs)


def generic_random_coloring(g: Graph, c: float = 4.0, seed: int = 0,
                            delta: int | None = None) -> DomainsResult:
    """One-round generic coloring: k = ceil(c*log2 n) tagged draws per vertex
    from a value range of twice the degree bound, followed by symmetric
    removal of any exact collision with a neighbor.

    Surviving sets of adjacent vertices are disjoint by construction; around
    half of each set survives.  A vertex whose set empties marks the run
    failed (retry with a new seed).  Palette 2*delta*k; the stride is the
    value range 2*delta.
    """
    delta = _degree_bound(g, delta)
    k = draw_count(c, g.n)
    dom, report, failed = draw_and_prune(g, seed, k, 2 * delta, g.adjacency, frozenset())
    params = {"c": c, "k": k, "delta": delta}
    return DomainsResult(domains=dom, report=report, params=params, failed=failed)


# ---------------------------------------------------------------------------
# cover-free reduction pipeline (proper and defective variants)


class InvariantError(RuntimeError):
    """An invariant of a run broke, such as a proper input coloring: the run
    failed, not its invocation."""


def _reduce_color(fam: PolyFamily, node: int, color: int, neighbor_colors) -> int:
    """The smallest element of ``color``'s set that no neighbor's set covers."""
    mine = fam.elements(color).difference(*[fam.elements(c) for c in neighbor_colors])
    if not mine:
        raise InvariantError(
            f"vertex {node}: no uncovered element left; input coloring improper?")
    return min(mine)


def _iroot_ceil(n: int, k: int) -> int:
    """Smallest r with r**k >= n."""
    if n <= 1:
        return 1
    r = max(1, round(n ** (1.0 / k)))
    while r**k < n:
        r += 1
    while (r - 1) ** k >= n:
        r -= 1
    return r


def _pick_reduction(n_colors: int, delta: int) -> tuple[int, int] | None:
    """Choose (d, q) minimizing the next palette q^2, or None if no shrink."""
    best = None
    for d in (1, 2, 3):
        q = smallest_prime_geq(max(d * (delta + 1) + 1, _iroot_ceil(n_colors, d + 1)))
        if q * q >= n_colors:
            continue
        if best is None or q * q < best[1] * best[1]:
            best = (d, q)
    return best


def _field_tables(q: int) -> tuple[list[int], dict[int, int]]:
    """The inverse of each nonzero element of GF(q), q prime (index 0 unused),
    and one square root of each square."""
    inverse = [0, 1]
    for x in range(2, q):
        inverse.append(-(q // x) * inverse[q % x] % q)
    return inverse, {x * x % q: x for x in range(q)}


def _residual_by_roots(q: int, color: int, others, rho: int, tables) -> list[int]:
    """``residual_elements(PolyFamily(q, 2), color, others, rho)``, with no
    point set built.

    S_g and S_h meet exactly at the roots of g - h, and a nonzero polynomial
    of degree <= 2 has at most two, so each of ``others`` (counted with
    multiplicity, none equal to ``color``) adds its roots to the hit counts in
    O(1) field operations.  ``tables`` is ``_field_tables(q)``.
    """
    inverse, sqrt = tables
    rest, g0 = divmod(color, q)
    g2, g1 = divmod(rest, q)
    hits = [0] * q
    for h in others:
        rest, h0 = divmod(h, q)
        h2, h1 = divmod(rest, q)
        a0, a1, a2 = (g0 - h0) % q, (g1 - h1) % q, (g2 - h2) % q
        if not a2:
            if a1:
                hits[-a0 * inverse[a1] % q] += 1
            elif not a0:
                raise InvariantError("color must not appear among the others")
        elif q == 2:  # 2*a2 has no inverse: test both points
            for x in (0, 1):
                hits[x] += (a0 + (a1 + a2) * x) % 2 == 0
        else:
            root = sqrt.get((a1 * a1 - 4 * a2 * a0) % q)
            if root is not None:
                half = inverse[2 * a2 % q]
                hits[(root - a1) * half % q] += 1
                if root:
                    hits[(-root - a1) * half % q] += 1
    return [a * q + ((g2 * a + g1) * a + g0) % q
            for a, count in enumerate(hits) if count <= rho]


class _PipelineProgram(NodeProgram):
    """Iterated cover-free color reduction ending in a residual-set round.

    Starts from the id-coloring; each round vertices exchange current colors
    and re-color to the smallest element of their polynomial point set not
    covered by any neighbor's set.  The last round keeps, instead of one
    element, every element of the degree-2 family over GF(q_final) covered at
    most ``rho`` times, counted by ``_residual_by_roots``.  The reference the
    tests check ``_run_pipeline``'s sweep against.
    """

    def __init__(self, steps: list[tuple[int, int]], q_final: int, rho: int):
        self.steps = steps
        self.families = [PolyFamily(q=q, d=d) for d, q in steps]
        self.q_final = q_final
        self.tables = _field_tables(q_final)
        self.rho = rho

    def init(self, ctx: NodeContext):
        return [0, ctx.node, ()]

    def step(self, ctx: NodeContext, state, inbox):
        r, color, domain = state
        t = len(self.steps)
        if 1 <= r <= t:
            color = _reduce_color(self.families[r - 1], ctx.node, color,
                                  [c for _, c in inbox])
        if r == t + 1:
            others = [c for _, c in inbox if c != color]
            domain = _residual_by_roots(self.q_final, color, others, self.rho,
                                        self.tables)
            return [r + 1, color, domain], [], True
        return [r + 1, color, domain], [(u, color) for u in ctx.neighbors], False

    def output(self, ctx: NodeContext, state):
        return state[2]


def _plan_pipeline(n: int, delta: int, base_prime: int) -> tuple[list[tuple[int, int]], int]:
    """The (d, q) reduction steps taken before the final residual round, while
    the palette exceeds base_prime**3, plus the final prime.

    The final prime is bumped (rarely: only when no reduction could shrink the
    palette below base_prime**3) so its family always indexes every hand-off
    color.
    """
    steps = []
    colors = max(n, 1)
    while colors > base_prime**3:
        step = _pick_reduction(colors, delta)
        if step is None:
            break
        steps.append(step)
        colors = step[1] ** 2
    q_final = smallest_prime_geq(max(base_prime, _iroot_ceil(colors, 3)))
    return steps, q_final


def _run_pipeline(g: Graph, delta: int, rho: int) -> DomainsResult:
    """Plan the pipeline from the base prime q >= 3*delta/(rho+1) and run it
    as a centralized sweep; the domains' stride is the final prime and their
    palette its square.  Its primes and point sets grow with delta, so a
    realized max degree above MAX_DELTA is refused before any prime is picked.

    Each round of ``_PipelineProgram`` is one pass over the vertices in id
    order, each reading its neighbours' colours from the previous pass, so
    the first vertex to break an invariant is the program's.  The report is
    the program's, stated from the plan: t + 2 rounds for t reduction steps,
    the last t + 1 of them deliveries, and 2m messages in each of the first
    t + 1; the budget of t + 2 rounds never runs out.  It lists no outputs.
    """
    if delta > MAX_DELTA:
        raise ValueError(f"max degree must be at most {MAX_DELTA} for the "
                         f"cover-free pipeline, got {delta}")
    base_prime = smallest_prime_geq(max(-(-3 * delta // (rho + 1)), 2))
    steps, final_prime = _plan_pipeline(g.n, delta, base_prime)
    adjacency = g.adjacency
    colors = list(range(g.n))
    for d, q in steps:
        fam = PolyFamily(q=q, d=d)
        colors = [_reduce_color(fam, v, color, [colors[u] for u in adjacency[v]])
                  for v, color in enumerate(colors)]
    tables = _field_tables(final_prime)
    # each residual set lists its abscissas in increasing order, so it is sorted
    domains = {v: tuple(_residual_by_roots(
        final_prime, color, [colors[u] for u in adjacency[v] if colors[u] != color],
        rho, tables)) for v, color in enumerate(colors)}
    t = len(steps)
    report = RunReport(rounds=t + 2 if g.n else 0, comm_rounds=t + 1 if g.m else 0,
                       messages_total=2 * g.m * (t + 1))
    dom = LabelDomain(kind="vertex", domains=domains, palette=final_prime**2,
                      stride=final_prime)
    failed = tuple(v for v in range(g.n) if not domains[v])
    params = {
        "delta": delta,
        "rho": rho,
        "reduction_steps": [list(s) for s in steps],
        "log_star_n": log_star(max(g.n, 2)),
    }
    return DomainsResult(domains=dom, report=report, params=params, failed=failed)


def generic_delta2_coloring(g: Graph, delta: int | None = None) -> DomainsResult:
    """Deterministic generic coloring with palette q^2, q the smallest prime
    >= 3*delta: iterated cover-free reductions from the id-coloring, then one
    residual round that keeps every uncovered element (at least delta of them).
    """
    return _run_pipeline(g, _degree_bound(g, delta), rho=0)


def generic_defective_coloring(g: Graph, p: int, delta: int | None = None) -> DomainsResult:
    """Generic p-defective coloring: proper reductions while the palette is
    large, then a single residual round keeping elements covered at most p
    times.  Any joint selection has defect at most p because at most p
    neighbor sets can contain any kept element.
    """
    delta = _degree_bound(g, delta)
    if not 1 <= p <= delta:
        raise ValueError(f"p must be in [1, {delta}], got {p}")
    result = _run_pipeline(g, delta, rho=p)
    result.params["p"] = p
    result.params["domain_floor"] = max(1, delta // (4 * (p + 1)))
    return result
