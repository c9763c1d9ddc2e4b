"""The chaotic-iteration generator.

One round draws a bit b from the first source, then performs m = b + k
single-coordinate updates, each picking a coordinate S in [1, N] from the
second source and replacing coordinate S of the state with coordinate S
of f(state).  The state after the m updates is the round output.

`CiGenerator.round` is the definition.  `CiGenerator.states` gives the
same outputs in bulk when both sources are Xorshift64 and one round fits
a block: it draws a block's bits and coordinates as arrays, then runs
every block's updates through one engine, fixed when the generator is
built: a walk through a table of composed update groups (narrow N) or a
scalar loop (wide N).  The table starts from f's mapping matrix as
`func.mapping_matrix` builds it.  A bulk block holds at most _BLOCK_ROUNDS
rounds and _BLOCK_UPDATES updates, so its arrays stay bounded at any k.
Other generators run round() for every round; a failing source raises there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
import operator

import numpy as np

from . import bitops
from .func import VectorOfImages, mapping_matrix
from .sources import EntropySource, Xorshift64

# Rounds per bulk block, and updates per bulk block: together they bound
# the working arrays of one states() call, whatever k is.  The round cap
# also pays: with blocks bounded by updates alone, states(250_000) at N=4,
# k=13 took 156-238 ms against 122-162 ms (2-core Xeon, min of 7 calls).
_BLOCK_ROUNDS = 4096
_BLOCK_UPDATES = 1 << 18
# Entries allowed in one generator's table of composed update groups.
# It sets the group length g, and the widest N that walks the table at
# all: (N + 1) << N entries must fit, so N <= 10.  On a 2-core Xeon
# (k = 3N + 1, min of 15 calls) 1 << 13 took N=4 states(65536) from 26-40
# to 32-44 ms and N=10 to the slower scalar loop; 1 << 15 doubled N=2's
# table build (states(64) 0.8 to 1.7 ms).  N=12 and 16 stay scalar.
_GROUP_ENTRIES = 1 << 14


@dataclass(frozen=True)
class GeneratorConfig:
    """Round parameters: iteration function, round-length base k, seed state.

    Strict mode requires k > 3N, the regime in which round outputs
    decorrelate from the seed; compat mode admits any k >= 1 so that
    short known traces can be reproduced.  A non-integer k or seed_state
    is a TypeError.
    """

    f: VectorOfImages
    k: int
    seed_state: int
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "seed_state", operator.index(self.seed_state))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.strict and self.k <= 3 * self.f.n_bits:
            raise ValueError(
                f"strict mode requires k > 3N = {3 * self.f.n_bits}, got k={self.k}; "
                "pass strict=False to allow small k"
            )
        if not 0 <= self.seed_state < self.f.size:
            raise ValueError(
                f"seed_state {self.seed_state} outside [0, {self.f.size - 1}]"
            )


class CiGenerator:
    """Mutable generator state: current state x plus the two sources.

    Single-owner: not safe for concurrent mutation.  Independent
    instances are cheap and run in parallel freely.  The two sources
    must be distinct objects: a round draws its bit from prng1 and then
    its coordinates from prng2, and one object in both roles would
    interleave the two streams.

    `path` names the one path states() runs, fixed here: "composed"
    (a walk through the group table, when its one-update rows fit in
    _GROUP_ENTRIES) or "scalar" (the scalar loop) over bulk draws when
    both sources are exactly Xorshift64 and one round fits a block, else
    "round" (round() one round at a time).  It changes no output.
    """

    def __init__(self, config: GeneratorConfig, prng1: EntropySource, prng2: EntropySource):
        if prng1 is prng2:
            raise ValueError("prng1 and prng2 must be distinct source objects")
        self.config = config
        self.x = config.seed_state
        self.prng1 = prng1
        self.prng2 = prng2
        self.rounds_emitted = 0
        # bulk blocks draw arrays, which only Xorshift64 gives; a subclass
        # could draw singles that its inherited arrays do not match
        bulk = type(prng1) is Xorshift64 and type(prng2) is Xorshift64
        if not bulk or config.k + 1 > _BLOCK_UPDATES:
            self.path = "round"
        elif (config.f.n_bits + 1) << config.f.n_bits <= _GROUP_ENTRIES:
            self.path = "composed"
            self._groups = _group_table(config.f, config.k)
        else:
            self.path = "scalar"

    def round(self) -> int:
        """Run one round (m = bit + k updates) and return the new state."""
        f = self.config.f
        n = f.n_bits
        images = f.images
        x = self.x
        m = self.prng1.next_bit() + self.config.k
        for _ in range(m):
            s = self.prng2.next_coordinate(n)
            w = 1 << (n - s)
            x ^= (x ^ images[x]) & w
        self.x = x
        self.rounds_emitted += 1
        return x

    def states(self, n_rounds: int) -> np.ndarray:
        """Outputs of the next n_rounds rounds, in order.

        Equal to n_rounds calls of round(), and leaves x, rounds_emitted
        and both sources as those calls would.  That holds also when a
        source fails partway (a script runs out or holds a value out of
        range): only Xorshift64 sources, whose draws cannot fail, run in
        bulk, every block through the one engine fixed when the generator
        was built, so any failure is raised by round() itself.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        if self.path == "round":
            return np.array([self.round() for _ in range(n_rounds)], dtype=np.int64)
        out = np.empty(n_rounds, dtype=np.int64)
        run = self._compose_rounds if self.path == "composed" else self._scalar_rounds
        # at large k fewer rounds fit a block
        size = min(_BLOCK_ROUNDS, _BLOCK_UPDATES // (self.config.k + 1))
        for start in range(0, n_rounds, size):
            block = out[start : start + size]
            # widen before adding k: a uint8 bit plus k = 255 would wrap
            updates = self.prng1.bits(block.size).astype(np.int64) + self.config.k
            coords = self.prng2.coordinates(int(updates.sum()), self.config.f.n_bits)
            run(updates, coords, block)
            self.x = int(block[-1])
            self.rounds_emitted += block.size
        return out

    def _scalar_rounds(self, updates: np.ndarray, coords: np.ndarray, out: np.ndarray) -> None:
        """Run the updates one by one over pre-drawn coordinates.

        updates[r] is round r's update count; coords holds all the
        block's coordinates in draw order.
        """
        n = self.config.f.n_bits
        images = self.config.f.images
        weights = [0] + [1 << (n - s) for s in range(1, n + 1)]  # digit of coordinate s
        masks = map(weights.__getitem__, coords.tolist())
        x = self.x
        xs = []
        for m in updates.tolist():
            for w in islice(masks, m):
                x ^= (x ^ images[x]) & w
            xs.append(x)
        out[:] = xs

    def _compose_rounds(self, updates: np.ndarray, coords: np.ndarray, out: np.ndarray) -> None:
        """Walk the state through the group table, one group of updates a step.

        A round's k or k + 1 coordinates are padded with the identity to
        per = ceil((k + 1) / g) groups of g.  One gather turns every
        group into its row of the table, so a step is one lookup, and
        every per-th state is a round output.
        """
        n = self.config.f.n_bits
        table, g = self._groups
        per = -(-(self.config.k + 1) // g)
        # coordinate s in [1, N] is table row s - 1; row N is the identity
        rows = np.full((updates.size, per * g), n)
        rows[np.arange(per * g) < updates[:, None]] = coords - 1
        groups = rows.reshape(-1, g) @ ((n + 1) ** np.arange(g))
        x = self.x
        xs = []
        for row in table[groups].tolist():
            x = row[x]
            xs.append(x)
        out[:] = xs[per - 1 :: per]

    def bit_stream(self, n_rounds: int, include_seed: bool = False) -> str:
        """Big-endian bit patterns of n_rounds round outputs, concatenated.

        With include_seed the state as of this call (the seed, for a
        fresh generator) is prepended.
        """
        n = self.config.f.n_bits
        head = [self.x] if include_seed else []
        states = np.concatenate([np.array(head, dtype=np.int64), self.states(n_rounds)])
        return bitops.bits_to_str(bitops.state_bits(states, n))

    def byte_stream(self, n_bytes: int) -> bytes:
        """Round-output bits (no seed) packed MSB-first into exactly n_bytes."""
        if n_bytes < 1:
            raise ValueError(f"n_bytes must be >= 1, got {n_bytes}")
        n = self.config.f.n_bits
        n_rounds = -(-8 * n_bytes // n)  # ceil: enough rounds, tail bits dropped
        bits = bitops.state_bits(self.states(n_rounds), n)
        return bitops.pack_bits(bits[: 8 * n_bytes])


def _group_table(f: VectorOfImages, k: int) -> tuple[np.ndarray, int]:
    """Maps of every sequence of g single-coordinate updates, g as large as fits.

    Row c_1 + (N+1) c_2 + ... + (N+1)^(g-1) c_g maps each state through
    the updates of row c_1 first, then c_2, ..., c_g.  The one-update
    table is f's mapping matrix (`func.mapping_matrix`), whose row c
    updates coordinate c + 1, with the identity below it as row N.

    The rows sit in a 1-d object array, so numpy gathers a block's rows
    in one call.  A row number, or an index (row << N) + x into one flat
    list, passes 256, Python's last cached int, at most steps: N=4
    states(65536) took 57-60 ms that way, against 42-48 ms.
    """
    n = f.n_bits
    single = np.vstack([mapping_matrix(f), np.arange(f.size)])
    g, table = 1, single
    while g <= k and (n + 1) ** (g + 1) * f.size <= _GROUP_ENTRIES:
        table = single[:, table].reshape(-1, f.size)
        g += 1
    return np.fromiter(table.tolist(), dtype=object, count=len(table)), g
