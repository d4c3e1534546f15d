"""Polynomial cover-free set families and brute-force oracles.

The family over GF(q) with degree bound d assigns to each coefficient vector
g (indexed by its base-q digits, low coefficient least significant) the point
set S_g = {(a, g(a)) : a in GF(q)}, encoded on the ground set [q^2] as
a*q + g(a).  Distinct polynomials agree on at most d abscissas, so any set is
covered by Delta = ceil(q/d) - 1 others in fewer than q points, and more
generally some element survives being hit rho+1 times whenever
Delta <= ceil(q*(rho+1)/d) - 1.

These are the cover-free families of Erdős, Frankl and Füredi (1985) as used
by Linial's colour reduction ("Locality in distributed graph algorithms",
1992).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .rng import Stream, subseed


class ExhaustiveBudgetError(RuntimeError):
    """Exhaustive verification would exceed the configured tuple budget."""


def is_prime(x: int) -> bool:
    """Deterministic trial division; inputs here are desk-scale small."""
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def smallest_prime_geq(x: int) -> int:
    """Least prime >= x (so < 2x for x > 1, by Bertrand's postulate)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    candidate = max(x, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class PolyFamily:
    """The q^(d+1) point sets of all polynomials of degree <= d over GF(q).

    ``elements`` computes each point set once and keeps it for the lifetime
    of the instance; the memo is not part of equality, hashing or repr.  Its
    callers are the cover-free oracles and the pipeline's reduction steps; a
    pipeline run builds its own families, so their memo ends with the run.
    The pipeline's residual round builds no point set: it counts the roots
    of polynomial differences instead.
    """

    q: int
    d: int
    _memo: dict[int, frozenset[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")
        if self.d < 1:
            raise ValueError(f"degree bound must be >= 1, got {self.d}")

    @property
    def family_size(self) -> int:
        return self.q ** (self.d + 1)

    def coefficients(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.family_size:
            raise ValueError(f"set index {index} out of range [0,{self.family_size})")
        coeffs = []
        for _ in range(self.d + 1):
            index, rem = divmod(index, self.q)
            coeffs.append(rem)
        return tuple(coeffs)

    def set_elements(self, index: int) -> frozenset[int]:
        """S_g as encoded ground elements a*q + g(a); always exactly q of them."""
        q = self.q
        coeffs = self.coefficients(index)
        out = set()
        for a in range(q):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * a + c) % q
            out.add(a * q + acc)
        # Copied from a set, the frozenset's table is sized to fit: about half
        # the memory of one grown from a list, which counts once sets are kept.
        return frozenset(out)

    def elements(self, index: int) -> frozenset[int]:
        """``set_elements(index)``, computed on the first call only."""
        found = self._memo.get(index)
        if found is None:
            found = self._memo[index] = self.set_elements(index)
        return found


def residual_elements(fam: PolyFamily, s0: int, others, rho: int = 0) -> list[int]:
    """Elements of S_{s0} contained in at most rho of the other sets.

    With rho=0 these are the uncovered elements; whenever the number of
    distinct others is at most ceil(q*(rho+1)/d) - 1 the result is non-empty.
    """
    others = list(others)
    if s0 in others:
        raise ValueError("s0 must not appear among the covering sets")
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    mine = fam.elements(s0)
    hits = Counter()
    for j in others:
        hits.update(mine.intersection(fam.elements(j)))
    return sorted(x for x in mine if hits[x] <= rho)


@dataclass(frozen=True)
class CoverFreeVerdict:
    ok: bool
    tuples_checked: int
    counterexample: tuple | None = None


def verify_cover_free(fam: PolyFamily, delta: int, rho: int = 0,
                      mode: str = "exhaustive", trials: int = 100_000,
                      seed: int = 0, budget: int = 20_000_000) -> CoverFreeVerdict:
    """Check that no tested (S0; S1..S_delta) tuple has S0 (rho+1)-covered.

    Exhaustive mode enumerates every tuple and refuses outright (no silent
    sampling) when C(n-1, delta) * n exceeds the budget; sampled mode draws
    ``trials`` tuples from a seeded stream.  The first counterexample found is
    reported as (s0, others...).
    """
    n = fam.family_size
    if delta < 1 or delta >= n:
        raise ValueError(f"delta must be in [1, {n - 1}], got {delta}")
    checked = 0
    if mode == "exhaustive":
        from itertools import combinations

        total = comb(n - 1, delta) * n
        if total > budget:
            raise ExhaustiveBudgetError(
                f"{total} tuples exceed the exhaustive budget of {budget}")
        for s0 in range(n):
            pool = [j for j in range(n) if j != s0]
            for others in combinations(pool, delta):
                checked += 1
                if not residual_elements(fam, s0, others, rho):
                    return CoverFreeVerdict(False, checked, (s0, *others))
        return CoverFreeVerdict(True, checked)
    if mode == "sampled":
        rng = Stream(subseed(seed, 0x6366), 0)
        for _ in range(trials):
            s0 = rng.draw_uniform(n)
            others: set[int] = set()
            while len(others) < delta:
                j = rng.draw_uniform(n)
                if j != s0:
                    others.add(j)
            checked += 1
            ordered = tuple(sorted(others))
            if not residual_elements(fam, s0, ordered, rho):
                return CoverFreeVerdict(False, checked, (s0, *ordered))
        return CoverFreeVerdict(True, checked)
    raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
