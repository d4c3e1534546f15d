"""Deterministic synchronous round engine for message-passing node programs.

Round model: every round, each non-halted node receives the messages sent to
it in the previous round, performs unmetered local computation (its step may
consult only its own state, inbox, and private randomness stream), and sends
arbitrarily large messages to any subset of neighbors, possibly a distinct
payload per neighbor.  A halted node never steps or sends again; messages
addressed to it are silently dropped.

Accounting: ``rounds`` counts rounds in which at least one message was
delivered or a node executed a non-halted step; ``comm_rounds`` counts only
rounds with at least one delivery (the communication rounds of the classic
synchronous model, in which "compute and send" and "receive" of the same
message batch fall in consecutive engine rounds).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass

from .graphs import Graph
from .rng import Stream


class NodeContext:
    """Static per-node view: own id, neighbor ids, private RNG."""

    __slots__ = ("node", "neighbors", "rng")

    def __init__(self, node: int, neighbors: tuple[int, ...], rng: Stream):
        self.node = node
        self.neighbors = neighbors
        self.rng = rng


class NodeProgram:
    """Base class for per-node programs run by ``run_sync``.

    Subclasses implement ``init``, ``step`` and ``output``.  ``step`` returns
    ``(state, outbox, halted)`` where outbox is a list of (neighbor, payload)
    pairs; it must be a pure function of (state, inbox, ctx.rng).
    """

    def init(self, ctx: NodeContext):
        raise NotImplementedError

    def step(self, ctx: NodeContext, state, inbox: list[tuple[int, object]]):
        raise NotImplementedError

    def output(self, ctx: NodeContext, state):
        return state


@dataclass(frozen=True)
class RunReport:
    """A run's accounting, plus the nodes' outputs from ``run_sync``.  Sweeps
    and composed runs state theirs through ``sweep``, ``parallel``, ``sequential``."""

    rounds: int
    comm_rounds: int
    messages_total: int
    outputs: tuple = ()
    incomplete: bool = False

    @staticmethod
    def sweep(rounds: int, messages: int, incomplete: bool = False) -> "RunReport":
        """A centralized sweep standing for ``rounds`` synchronous rounds, every
        one of them counted as a communication round."""
        return RunReport(rounds=rounds, comm_rounds=rounds, messages_total=messages,
                         incomplete=incomplete)

    @staticmethod
    def parallel(reports) -> "RunReport":
        """Runs executed side by side: as many rounds as the longest."""
        return RunReport._joined(list(reports), max)

    @staticmethod
    def sequential(reports) -> "RunReport":
        """Runs executed one after another: their rounds add up."""
        return RunReport._joined(list(reports), sum)

    @staticmethod
    def _joined(reports: list, join) -> "RunReport":
        """Rounds joined by ``join``; messages add up; incomplete if any run is."""
        return RunReport(rounds=join([0] + [r.rounds for r in reports]),
                         comm_rounds=join([0] + [r.comm_rounds for r in reports]),
                         messages_total=sum(r.messages_total for r in reports),
                         incomplete=any(r.incomplete for r in reports))

    def to_document(self) -> dict:
        """Stable, timing-free form used by the byte-determinism contract."""
        return {
            "rounds": self.rounds,
            "comm_rounds": self.comm_rounds,
            "messages_total": self.messages_total,
            "incomplete": self.incomplete,
        }


def run_sync(program: NodeProgram, g: Graph, master_seed: int,
             max_rounds: int = 10_000) -> RunReport:
    """Run a node program in lock-step rounds until all nodes halt.

    Deterministic: identical (program, graph, master_seed) produce identical
    reports.  If the round budget runs out first, the report is flagged
    incomplete and carries whatever outputs the nodes have so far.

    The rounds allocate many short-lived containers and build no reference
    cycles, so the cyclic garbage collector is paused while they run: its
    passes over the live states cost about a third of a 10^5-node run.
    """
    with collector_paused():
        return _run_rounds(program, g, master_seed, max_rounds)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, restoring its previous state on exit."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _run_rounds(program: NodeProgram, g: Graph, master_seed: int,
                max_rounds: int) -> RunReport:
    n = g.n
    adjacency = g.adjacency
    ctxs = [NodeContext(v, adjacency[v], Stream(master_seed, v)) for v in range(n)]
    states = [program.init(ctxs[v]) for v in range(n)]
    halted = [False] * n
    live = n
    inboxes: list[list] = [[] for _ in range(n)]
    rounds = comm_rounds = messages = 0
    step = program.step
    while live > 0 and rounds < max_rounds:
        delivered = any(inboxes[v] for v in range(n) if not halted[v])
        next_inboxes: list[list] = [[] for _ in range(n)]
        for v in range(n):
            if halted[v]:
                continue
            state, outbox, halt = step(ctxs[v], states[v], inboxes[v])
            states[v] = state
            if outbox:
                for u, payload in outbox:
                    next_inboxes[u].append((v, payload))
                messages += len(outbox)
            if halt:
                halted[v] = True
                live -= 1
        inboxes = next_inboxes
        rounds += 1
        comm_rounds += int(delivered)
    outputs = tuple(program.output(ctxs[v], states[v]) for v in range(n))
    return RunReport(rounds=rounds, comm_rounds=comm_rounds, messages_total=messages,
                     outputs=outputs, incomplete=live > 0)
