"""The chaotic-iteration generator.

One round draws a bit b from the first source, then performs m = b + k
single-coordinate updates, each picking a coordinate S in [1, N] from the
second source and replacing coordinate S of the state with coordinate S
of f(state).  The state after the m updates is the round output.

`CiGenerator.round` is the definition.  `CiGenerator.states` gives the
same outputs in bulk when both sources are Xorshift64: it draws a
block's bits and coordinates as arrays, then runs the block's updates
either through composed update tables (narrow N) or a scalar loop (wide
N).  The composed tables start from f's mapping matrix as
`func.mapping_matrix` builds it.  A bulk block holds at most
_BLOCK_ROUNDS rounds and _BLOCK_UPDATES updates, so its arrays stay
bounded at any k.  Short blocks, and every block drawn from other
sources, run round() instead; a failing source raises there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import bitops
from .func import VectorOfImages, mapping_matrix
from .sources import EntropySource, Xorshift64

# Rounds per bulk block, and updates per bulk block: together they bound
# the working arrays of one states() call, whatever k is.
_BLOCK_ROUNDS = 4096
_BLOCK_UPDATES = 1 << 18
# Widest N whose rounds are composed over all 2^N start states; wider
# states run the scalar loop.  Measured on a 2-core Xeon, k = 3N + 1,
# microseconds a round, composed vs scalar, draws included: N=2 0.8 vs
# 1.7, N=4 1.1 vs 1.7, N=5 1.7-2.6 vs 1.9-2.2 (a tie), N=6 3.8 vs 2.2,
# N=12 1400 vs 10, N=16 27000 vs 10.
_TABLE_BITS = 4
# Fewest rounds in a block worth the bulk set-up; shorter blocks run round().
_BULK_MIN_ROUNDS = 64
# Entries allowed in one generator's table of composed update groups.
_GROUP_ENTRIES = 1 << 14


@dataclass(frozen=True)
class GeneratorConfig:
    """Round parameters: iteration function, round-length base k, seed state.

    Strict mode requires k > 3N, the regime in which round outputs
    decorrelate from the seed; compat mode admits any k >= 1 so that
    short known traces can be reproduced.
    """

    f: VectorOfImages
    k: int
    seed_state: int
    strict: bool = True

    def __post_init__(self):
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

    `path_blocks` counts the blocks that states() has run by each path:
    "composed" (composed update tables), "scalar" (the scalar loop over
    bulk draws) and "round" (round() one round at a time: short blocks,
    and every block when a source is not exactly Xorshift64).  It is for
    observing which path ran; it changes no output.
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
        self._bulk = type(prng1) is Xorshift64 and type(prng2) is Xorshift64
        self._groups = None  # (table, group size), built on first use
        self.path_blocks = {"composed": 0, "scalar": 0, "round": 0}

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
            x = (x & ~w) | (images[x] & w)
        self.x = x
        self.rounds_emitted += 1
        return x

    def states(self, n_rounds: int) -> np.ndarray:
        """Outputs of the next n_rounds rounds, in order.

        Equal to n_rounds calls of round(), and leaves x, rounds_emitted
        and both sources as those calls would.  That holds also when a
        source fails partway (a script runs out or holds a value out of
        range): only Xorshift64 sources, whose draws cannot fail, run in
        bulk, so any failure is raised by round() itself.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        out = np.empty(n_rounds, dtype=np.int64)
        # at large k fewer rounds fit a block, down to blocks too short for
        # the bulk paths
        size = max(1, min(_BLOCK_ROUNDS, _BLOCK_UPDATES // (self.config.k + 1)))
        for start in range(0, n_rounds, size):
            block = out[start : start + size]
            if not self._bulk or block.size < _BULK_MIN_ROUNDS:
                self.path_blocks["round"] += 1
                for i in range(block.size):
                    block[i] = self.round()
                continue
            # widen before adding k: a uint8 bit plus k = 255 would wrap
            updates = self.prng1.bits(block.size).astype(np.int64) + self.config.k
            coords = self.prng2.coordinates(int(updates.sum()), self.config.f.n_bits)
            if self.config.f.n_bits <= _TABLE_BITS:
                self.path_blocks["composed"] += 1
                self._compose_rounds(updates, coords, block)
            else:
                self.path_blocks["scalar"] += 1
                self._scalar_rounds(updates, coords, block)
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
        """Compose each round's updates over all 2^N start states, then chain.

        A round's k or k + 1 coordinates are padded with the identity to
        a whole number of groups of g; one gather per group turns each
        round into a map of all 2^N states, and the rounds are chained
        from x through their maps.  A map holds 2^N entries against the
        scalar loop's one state, so this pays only for narrow N (see
        _TABLE_BITS).
        """
        n = self.config.f.n_bits
        size = 1 << n
        k = self.config.k
        table, g = self._group_table()
        rounds = updates.size
        width = -(-(k + 1) // g) * g
        # coordinate s in [1, N] is table row s - 1; row N is the identity
        rows = np.full((rounds, width), n)
        rows[np.arange(width) < updates[:, None]] = coords - 1
        group = rows.reshape(rounds, -1, g) @ ((n + 1) ** np.arange(g))
        offset = group * size
        flat = table.ravel()
        maps = table[group[:, 0]]
        for j in range(1, group.shape[1]):
            maps += offset[:, j : j + 1]
            flat.take(maps, out=maps)
        cells = maps.ravel().tolist()
        x = self.x
        xs = []
        for base in range(0, rounds * size, size):
            x = cells[base + x]
            xs.append(x)
        out[:] = xs

    def _group_table(self) -> tuple[np.ndarray, int]:
        """Maps of every sequence of g single-coordinate updates, g as large as fits.

        Row c_1 + (N+1) c_2 + ... + (N+1)^(g-1) c_g maps each state
        through the updates of row c_1 first, then c_2, ..., c_g.  The
        one-update table is f's mapping matrix (`func.mapping_matrix`),
        whose row c updates coordinate c + 1, with the identity below it
        as row N.
        """
        if self._groups is None:
            f = self.config.f
            n = f.n_bits
            single = np.vstack([mapping_matrix(f), np.arange(f.size)])
            g, table = 1, single
            while g <= self.config.k and (n + 1) ** (g + 1) * f.size <= _GROUP_ENTRIES:
                table = single[:, table].reshape(-1, f.size)
                g += 1
            self._groups = table, g
        return self._groups

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
