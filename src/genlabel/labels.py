"""Label domains: per-entity sets of valid labels plus palette bookkeeping.

A label is a (tag, value) pair encoded as the scalar ``tag*stride + value``
with ``stride`` fixed per run and strictly greater than every value
component, so the encoding is injective and every stored scalar is below the
declared palette size.  Algorithms that label with raw scalars use stride 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


MAX_DRAW_COUNT = 1024
MAX_FACTOR = 1024  # largest network-decomposition c, dominating-edge c and t, peeling a
MAX_DELTA = 65536  # largest delta parameter; palettes and point sets grow with it


def draw_count(c: float, n: int) -> int:
    """The per-node draw budget ceil(c * log2 n), and 1 for n <= 1; ``c``
    must be finite and positive, and the budget at most MAX_DRAW_COUNT
    (1,024), so a huge ``c`` is refused before any draw is allocated."""
    if not 0 < c < math.inf:
        raise ValueError(f"parameter c must be finite and > 0, got {c}")
    if n <= 1:
        return 1
    k = c * math.log2(n)
    if k > MAX_DRAW_COUNT:
        raise ValueError(f"parameter c={c} gives more than {MAX_DRAW_COUNT} draws per node")
    return math.ceil(k)


@dataclass(frozen=True)
class LabelDomain:
    """Map from entities (vertices or edges, by dense index) to label sets.

    Each domain is held as a strictly increasing tuple of ints, for every
    tag, and is listed in the report as it is held.  Entities may share one
    tuple object."""

    kind: str  # "vertex" | "edge"
    domains: dict[int, tuple[int, ...]] = field(compare=False)
    palette: int
    stride: int = 1

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise ValueError(f"kind must be 'vertex' or 'edge', got {self.kind!r}")

    def sizes(self) -> list[int]:
        return [len(d) for d in self.domains.values()]

    @property
    def min_size(self) -> int:
        return min(self.sizes(), default=0)

    def to_document(self) -> dict:
        """Stable JSON-ready form: sorted entities, each with its label list."""
        return {
            "kind": self.kind,
            "palette": self.palette,
            "stride": self.stride,
            "domains": IntLists({str(k): list(self.domains[k]) for k in sorted(self.domains)}),
        }


class IntLists(dict):
    """A dict from the decimal text of ints to lists of exact ints, such as
    ``LabelDomain.to_document``'s domains; ``cli.to_json`` writes one in a
    single join, without checking each key and value."""
