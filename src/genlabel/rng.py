"""Deterministic counter-based randomness streams.

Every node in a simulated network owns a private stream derived from the
run's master seed and its own id.  The derivation is a fixed, documented
64-bit mixing function so that a run is a pure function of
``(program, graph, master_seed)``:

* ``mix64`` is the SplitMix64 finalizer.
* The base state of stream ``(s, v)`` is ``mix64(s ^ mix64(v*GAMMA + SALT))``.
* Raw draw ``j`` of a stream is ``mix64(base + (j+1)*GAMMA)`` (mod 2^64),
  i.e. the stream is a counter-based SplitMix64 sequence (Steele, Lea and
  Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014).

Because draw ``j`` of node ``v`` is a pure function of ``(seed, v, j)``,
streams can be drawn in batches, each bit-exact with its ``Stream`` reference:

* ``draw_array`` computes the first draws of many fresh streams at once as a
  ``uint64`` array; ``Stream.draw_many`` is its reference.
* ``node_keys(n)`` is the seed-free half ``mix64(v*GAMMA + SALT)`` of every
  base, which runs under many seeds can share; ``stream_bases(seed, keys)``
  finishes the bases under one seed.
* ``geometric_draws`` draws ``Stream.geometric`` for many streams, each from
  its own counter.  Bound 2 never rejects (its limit is 2^64), so each coin is
  the low bit of one raw draw.
* ``u64_draws`` and ``uniform_draws`` draw ``Stream.draw_u64`` and
  ``Stream.draw_uniform`` from a base and a counter, rejections included.

Bit-exact agreement with other runtimes is not a goal; determinism and
distinctness of per-node streams are.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_SALT = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """SplitMix64 finalizer: scramble a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_base(master_seed: int, node_id: int) -> int:
    return mix64((master_seed & MASK64) ^ mix64((node_id * GAMMA + _SALT) & MASK64))


def subseed(master_seed: int, *salts: int) -> int:
    """Derive a child master seed (e.g. one per parallel execution)."""
    z = master_seed & MASK64
    for s in salts:
        z = mix64((z + mix64(s * GAMMA + _SALT)) & MASK64)
    return z


class Stream:
    """Private randomness stream of node ``node_id`` under ``master_seed``;
    ``counter`` is the number of raw draws taken so far."""

    __slots__ = ("counter", "_base")

    def __init__(self, master_seed: int, node_id: int):
        self.counter = 0
        self._base = stream_base(master_seed, node_id)

    def draw_u64(self) -> int:
        self.counter += 1
        return mix64((self._base + self.counter * GAMMA) & MASK64)

    def draw_uniform(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound > 1 << 64:
            return self._draw_wide(bound)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.draw_u64()
            if r < limit:
                return r % bound

    def _draw_wide(self, bound: int) -> int:
        """Uniform integer in [0, bound) for bound > 2**64: rejection over
        several 64-bit words, the first word most significant."""
        words = -(-(bound - 1).bit_length() // 64)
        span = 1 << (64 * words)
        limit = span - span % bound
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.draw_u64()
            if r < limit:
                return r % bound

    def draw_many(self, count: int, bound: int) -> list[int]:
        """``count`` independent uniform draws from [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return [self.draw_uniform(bound) for _ in range(count)]

    def draw_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.draw_u64() >> 11) * (2.0**-53)

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.draw_uniform(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def geometric(self, cap: int) -> int:
        """Number of heads before the first tail of a fair coin, truncated at cap."""
        value = 0
        while value < cap and self.draw_uniform(2) == 1:
            value += 1
        return value


def node_keys(n: int) -> list[int]:
    """``mix64(v*GAMMA + SALT)`` for ``v`` in ``range(n)``: the half of every
    stream base that does not depend on the seed."""
    return [mix64((v * GAMMA + _SALT) & MASK64) for v in range(n)]


def stream_bases(master_seed: int, keys: list[int]) -> list[int]:
    """``stream_base(master_seed, v)`` for each ``v``, given ``keys = node_keys(n)``."""
    seed = master_seed & MASK64
    bases = []
    for key in keys:
        z = seed ^ key
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        bases.append(z ^ (z >> 31))
    return bases


def geometric_draws(bases: list[int], counters: list[int], nodes, cap: int,
                    out: list[int]) -> None:
    """Set ``out[v]`` to what ``Stream.geometric(cap)`` returns for ``v`` in
    ``nodes``, on the stream with base ``bases[v]`` that has taken
    ``counters[v]`` raw draws, and advance ``counters[v]`` as the stream
    would: ``value + 1`` draws, or ``cap`` for a truncated value."""
    for v in nodes:
        x = bases[v] + counters[v] * GAMMA
        value = 0
        while value < cap:
            x += GAMMA
            z = x & MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            if not (z ^ (z >> 31)) & 1:
                break
            value += 1
        counters[v] += value + 1 if value < cap else cap  # the tail, if drawn
        out[v] = value


def u64_draws(bases, counters, v, count: int) -> list[int]:
    """What ``count`` calls of ``Stream.draw_u64`` return on the stream with
    base ``bases[v]`` that has taken ``counters[v]`` raw draws; advances
    ``counters[v]`` by ``count``."""
    x = bases[v] + counters[v] * GAMMA
    counters[v] += count
    draws = []
    for _ in range(count):
        x += GAMMA
        z = x & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        draws.append(z ^ (z >> 31))
    return draws


def uniform_draws(bases, counters, nodes, bounds) -> list[int]:
    """``Stream.draw_uniform(bound)`` on stream ``v``, named as in
    ``u64_draws``, for each ``v, bound`` in ``zip(nodes, bounds)``, for a
    bound in [1, 2**64]; advances ``counters[v]`` by the raw draws taken,
    the rejected ones included."""
    draws = []
    for v, bound in zip(nodes, bounds):
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        base, count = bases[v], counters[v]
        while True:
            count += 1
            z = (base + count * GAMMA) & MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            z ^= z >> 31
            if z < limit:
                break
        counters[v] = count
        draws.append(z % bound)
    return draws


def draw_array(master_seed: int, n: int, count: int, bound: int):
    """Row ``v`` is ``Stream(master_seed, v).draw_many(count, bound)`` on a
    fresh stream, for ``v`` in ``range(n)``, computed for all rows at once as
    an ``(n, count)`` numpy ``uint64`` array, for a bound in [1, 2**64].

    Each row is a function of its own ``(master_seed, v)`` stream only.  A row
    in which some raw draw falls in the rejection zone is drawn again by
    ``Stream.draw_many``.
    """
    if not 0 < bound <= 1 << 64:
        raise ValueError(f"bound must be in [1, 2**64], got {bound}")
    # numpy is imported here, not at module level: loading it costs 0.06 to
    # 0.12 s and 11.5 to 14 MiB of peak RSS per process (Python 3.11, numpy
    # 2.4), which the tags that never draw a row would pay for nothing.
    import numpy as np

    def mix(z):
        z ^= z >> 30
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        return z

    with np.errstate(over="ignore"):
        nodes = np.arange(n, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(_SALT)
        base = mix(mix(nodes) ^ np.uint64(master_seed & MASK64))
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
        raw = mix(base[:, None] + steps[None, :])
    limit = (1 << 64) - ((1 << 64) % bound)
    if limit == 1 << 64:
        return raw if bound == 1 << 64 else raw % np.uint64(bound)
    rejected = np.flatnonzero((raw >= np.uint64(limit)).any(axis=1)).tolist()
    raw %= np.uint64(bound)
    for v in rejected:
        raw[v] = Stream(master_seed, v).draw_many(count, bound)
    return raw
