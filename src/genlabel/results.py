"""Result bundles shared by the algorithm modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from .labels import LabelDomain
from .runtime import RunReport


@dataclass(frozen=True)
class DomainsResult:
    """A generic algorithm's output: label domains plus run accounting.

    ``failed`` lists entities whose domain emptied (randomized algorithms flag
    the run instead of repairing it; the caller retries with a fresh seed).
    """

    domains: LabelDomain
    report: RunReport
    params: dict = field(default_factory=dict)
    failed: tuple[int, ...] = ()


@dataclass(frozen=True)
class ColoringResult:
    """A single concrete labeling (one label per entity) plus run accounting."""

    colors: tuple[int, ...]
    report: RunReport
    params: dict = field(default_factory=dict)
