"""The chaotic-iteration generator.

One round draws a bit b from the first source, then performs m = b + k
single-coordinate updates, each picking a coordinate S in [1, N] from the
second source and replacing coordinate S of the state with coordinate S
of f(state).  The state after the m updates is the round output.

`CiGenerator.round` is the definition.  `CiGenerator.states` gives the
same outputs in bulk when both sources are Xorshift64 and one round fits
a block: it draws a block's bits and coordinates as arrays, then runs
every block's updates through one of three engines, fixed when the
generator is built.  Coordinate s updates the digit 1 << (N - s), its
mask; "flips" and "scalar" read a block's masks from one array, made by
one rule (`_masks`) in the narrowest unsigned dtype that holds them:

* "flips", when f is close to the negation, whose update at a digit
  flips it: a block's states are the seed XOR an exclusive prefix XOR
  of its masks, made once in the masks' dtype, stepped past the few
  updates that f's defects hold, found by windows of the expected gap
  between them; under the negation itself, which has none, a round's
  masks XOR to its flips, one reduction a round, and the round outputs
  are the seed XOR their running XOR;
* "composed", for other f at narrow N: a walk through a table of the
  maps of every sequence of up to g updates, built from f's mapping
  matrix as `func.mapping_matrix` gives it, a round's updates taking
  per = ceil((k + 1) / g) steps, one lookup each, or all three of a
  round in one walk iteration when per is 3, as at the default k for
  N=4;
* "scalar", for other f at wide N: one update at a time, over the
  masks read one by one.

Closeness is the defect rate, the share of updates that depart from the
negation over uniform states: the popcount of `func.defects` summed over
N 2^N, 0 for the negation.  At most _FLIP_RATE takes "flips".  Defects
are computed for each bulk generator from f.array (at N=16 about 0.1
ms, less than hashing f's 65536 images to look them up), and sequence
tables once per (f, k) value, a bounded cache keeping the last
_GROUP_TABLES; these are read-only, so generators over equal functions
share them.  A bulk block holds at most _BLOCK_UPDATES updates, so its
arrays stay bounded at any N and k: `block_rounds` rounds of k + 1
updates.  Other generators run round() for every round; a failing source
raises there.

Both streams read each round output's digits from one cached table per
width, `bitops.state_codes`: bit_stream gathers its '0'/'1' rows as
text, and byte_stream packs the 0/1 bits that `bitops.state_bits`
gathers from it.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
from itertools import islice
import operator

import numpy as np

from . import bitops
from .func import VectorOfImages, defects, mapping_matrix
from .sources import EntropySource, Xorshift64

# Updates per bulk block: the one budget that bounds a block's working
# arrays at any N and k (`block_rounds` rounds), and so the pieces `gen`
# writes.  A round cap besides no longer pays.  Against blocks of at most
# 4096 rounds (k = 3N + 1, 2-core Xeon, min of 9 alternating calls), N=4
# states(2^20) took 140.4-143.4 against 155.7-164.7 ms under the third
# published variant ("composed", three steps a round) and 122.4 against
# 152.6 ms under the negation ("flips"); N=8 states(2^18) 259.8 against
# 267.1 ms under seeded random images and 158.7 against 162.8 ms under a
# random permutation, N=16 negation states(2^18) 98.2 against 95.9 ms.
# 2^18 is no faster in one process (134.3-146.9 ms under that variant,
# 114.6 ms under the negation), and one-shot `gen --bytes 1048576` under
# that variant took 0.62 s at 2^18 against 0.53 s (median of 9
# alternating runs).  Every call of the benchmark is one block.
_BLOCK_UPDATES = 1 << 17
# Entries allowed in one generator's table of update sequences.  It bounds
# the group length g, and sets the widest N that walks the table at all: the
# identity and the one-update rows, (N + 1) << N entries, must fit, so
# N <= 11.  On a 2-core Xeon (k = 3N + 1, states(4096) on warm tables,
# min of 21 alternating calls) it gives N=4 g = 5, 3 steps a round: 1.16
# ms against 1.47 ms for the 4 steps of g = 4 under 1 << 14.  N=8 gets
# g = 2, 3.9 against 7.2 ms, and N=11 the walk, 10.6 ms against 19.1 ms
# for the scalar loop.  1 << 17 would give N=4 g = 6, the same 3 steps
# over a table 4 times as large (1.61 ms), built cold in 3.9 ms against
# 0.76 ms.  Wider f, unless near the negation, run the scalar loop.
_GROUP_ENTRIES = 1 << 15
# Sequence tables kept by _group_table's cache.  The benchmark's stream
# workload cycles 9 functions at one k, and acceptance test 07 uses 8.
_GROUP_TABLES = 16
# Largest defect rate (see the module docstring) whose generators take
# "flips".  Each held update costs "flips" about 10 us; on a 4096-round
# block at k = 3N + 1 (2-core Xeon, min of 5 calls) it beat the N=8
# group-table walk up to a rate of about 6e-3 (3.9e-3: 6.3 against 7.8
# ms; 7.8e-3: 8.6 against 7.7 ms) and the N=12 scalar loop up to about
# 1e-2 (5.2e-3: 12.6 against 20.7 ms; 1.04e-2: 18.8 against 18.1 ms).
# 1/1024 leaves a margin of four over the nearer.
_FLIP_RATE = 1 / 1024
# Updates in the widest window _flip_rounds checks.  Every window spans the
# expected gap between held updates, 1 / rate, or this bound if that is
# wider, whether or not the window before it held one: doubling a window
# after an empty one took 0.97-1.14x, and windows of twice the gap
# 0.95-1.13x, the time of one size (states() for 4096 bytes at k = 3N + 1
# under 20 paired-edit variants at N = 8-16, 2-core Xeon, min of 41 and 61
# interleaved calls in two runs).  It bounds memory: a window's states,
# defects and held test are temporaries of one entry per update, each at
# most 64 KiB, while the block's arrays of one entry per update are its
# masks and their prefix XOR.  It bounds time too, since a window's work
# past its first held update is thrown away: uncapped, the N=16 variant of
# 16 paired edits has windows of 32,768 updates, and its
# `states(N=16, variant)` of `scripts/bench.py --layer kernel` took 1.665
# against 1.171 ms (2-core Xeon, medians of 5 alternating rounds).
_FLIP_WINDOW_MAX = 1 << 14
# Held updates a "flips" block may meet, one per _HELD_SHARE updates and at
# least 16, before it hands the rest of the block to the scalar loop.  The
# rate averages over all states, but a trajectory can stay on defects: a
# balanced N=16 f with a 2-state trap has rate 5.7e-5, yet seeded in the
# trap it holds 15 updates of 16.  There, 2048 rounds took 12.5 ms against
# 8.8 ms for the scalar loop alone.
_HELD_SHARE = 256


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

    `path` names the one path states() runs, fixed here.  Over bulk
    draws, when both sources are exactly Xorshift64 and one round fits a
    block, it is "flips" (prefix XORs of the masks, when f's defect rate
    is at most _FLIP_RATE), else "composed" (a walk through the sequence
    table, when its identity and one-update rows fit in _GROUP_ENTRIES), else
    "scalar" (the scalar loop).  Other generators take "round" (round()
    one round at a time), and compute no defects.  It changes no output.
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
        if not bulk or self.block_rounds < 1:
            self.path = "round"
            return
        f = config.f
        self._defects = defects(f)
        rate = int(np.bitwise_count(self._defects).sum()) / (f.n_bits << f.n_bits)
        self._held = rate > 0  # whether any update can be held: not under the negation
        # "flips" windows span the expected gap between held updates
        self._window = min(_FLIP_WINDOW_MAX, int(1 / rate)) if rate else _FLIP_WINDOW_MAX
        if rate <= _FLIP_RATE:
            self.path = "flips"
        elif (f.n_bits + 1) << f.n_bits <= _GROUP_ENTRIES:
            self.path = "composed"
            self._groups = _group_table(f, config.k)
        else:
            self.path = "scalar"

    @property
    def block_rounds(self) -> int:
        """Rounds in one bulk block: as many as _BLOCK_UPDATES updates hold
        at k + 1 updates a round, 0 when one round exceeds it."""
        return _BLOCK_UPDATES // (self.config.k + 1)

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
        engines = {"flips": self._flip_rounds, "composed": self._compose_rounds}
        run = engines.get(self.path, self._scalar_rounds)
        size = self.block_rounds
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
        block's coordinates in draw order.  Their masks are read through a
        memoryview, one int at a time: a list of them would hold an int
        object for every mask above 256, and at N=16 it took a full
        block's peak from 0.76 to 3.3 MB.
        """
        images = self.config.f.images
        masks = iter(memoryview(_masks(coords, self.config.f.n_bits)))
        x = self.x
        xs = []
        for m in updates.tolist():
            for w in islice(masks, m):
                x ^= (x ^ images[x]) & w
            xs.append(x)
        out[:] = xs

    def _compose_rounds(self, updates: np.ndarray, coords: np.ndarray, out: np.ndarray) -> None:
        """Walk the state through the sequence table, one group of updates a step.

        A round's k + b updates fall into per = ceil((k + 1) / g) groups:
        per - 1 full ones of g, since (per - 1) g <= k, and a last one of
        the k + b - (per - 1) g left, 0 to g.  With V[i] the block's
        digits i, i + 1, ..., i + g - 1 read as a base-N number, least
        significant first (past the block's end, 0), a group starting at
        digit i is row offsets[g] + V[i] when full and offsets[L] +
        V[i] mod N^L when it holds L.  One gather turns every group into
        its row.  At per = 3 one walk iteration takes a round's three
        rows, so the walk keeps just the round outputs; at any other per a
        step is one lookup, and every per-th state is a round output.
        Padding rounds to a multiple of three steps with the identity row
        measured slower at every other per (states(4096), min of 60
        alternating calls: +42% at N=2, k=7, per 1; +2-4% at N=4, k=9,
        per 2; +15% at N=4, k=16, per 4).
        """
        n = self.config.f.n_bits
        table, g, offsets = self._groups
        per = -(-(self.config.k + 1) // g)
        # digit i is coordinate i's mapping-matrix row, s - 1; offsets'
        # dtype holds every row number, and so every V and N^L
        digits = np.zeros(coords.size + g, dtype=offsets.dtype)
        np.subtract(coords, 1, out=digits[: coords.size])
        rolling = digits[g - 1 :].copy()
        for t in range(g - 2, -1, -1):
            rolling *= n
            rolling += digits[t : t + rolling.size]
        del digits
        ends = np.cumsum(updates)
        # groups[j, r] is round r's group j, which starts at digit starts[j, r]
        starts = (ends - updates) + g * np.arange(per)[:, None]
        groups = rolling[starts]
        del rolling, starts  # only the group numbers stay for the walk
        groups[:-1] += offsets[g]
        last = updates - (per - 1) * g  # updates in each round's last group
        groups[-1] %= (n ** np.arange(g + 1, dtype=groups.dtype))[last]
        groups[-1] += offsets[last]
        x = self.x
        if per == 3:
            xs = [x := r3[r2[r1[x]]] for r1, r2, r3 in zip(*table[groups].tolist())]
        else:
            xs = [x := row[x] for row in table[groups.T].ravel()][per - 1 :: per]
        # states of at most 8 bits land through bytes: 4096 of them took 33
        # us that way against 85 us as a list (2-core Xeon, min of 40 calls)
        out[:] = np.frombuffer(bytes(xs), dtype=np.uint8) if n <= 8 else xs

    def _flip_rounds(self, updates: np.ndarray, coords: np.ndarray, out: np.ndarray) -> None:
        """Flip the masks' digits as the negation does, stepping only at held updates.

        With no update held, the state before update j is x XOR before[j],
        the XOR of the block's masks ahead of j, an exclusive prefix XOR
        in the masks' dtype, which holds every state.  An update is held
        when d(state) & mask != 0, d being `func.defects`: the state
        stays, so from there on every state is the prefix's with that mask
        XORed in, which c tracks.  A window of updates finds its first
        held one in one gather of d.
        Every window spans self._window updates, the expected gap between
        held updates, and the next starts after its first held update, or
        after its end if it holds none.  Past the block's budget of held
        updates, the rest of the block, from the first update of the round
        in progress on, goes to the scalar loop.

        A generator with no defects (the negation) holds none, and reads
        no prefix: the masks XOR to each round's flips in one reduction a
        round (no round is empty, k >= 1), and the running XOR of those,
        XOR x, gives the round outputs.
        """
        ends = np.cumsum(updates)  # round r's updates are ends[r] - updates[r] to ends[r] - 1
        masks = _masks(coords, self.config.f.n_bits)
        if not self._held:
            flips = np.bitwise_xor.reduceat(masks, ends - updates)
            np.bitwise_xor.accumulate(flips, out=flips)
            np.bitwise_xor(flips, self.x, out=out)
            return
        defects = self._defects
        before = np.zeros(coords.size + 1, dtype=masks.dtype)
        np.bitwise_xor.accumulate(masks, out=before[1:])
        x0 = c = self.x  # the state before update j is before[j] ^ c
        held, cs = [], [c]  # the updates held, and c after each
        pos = 0
        budget = max(16, coords.size // _HELD_SHARE)
        while pos < coords.size and len(held) <= budget:
            stop = min(pos + self._window, coords.size)
            hits = (defects[before[pos:stop] ^ c] & masks[pos:stop]).astype(bool)
            i = int(hits.argmax())
            if hits[i]:
                held.append(pos + i)
                c ^= int(masks[pos + i])
                cs.append(c)
                stop = pos + i + 1
            pos = stop
        # before[ends[r]] is the state after round r, held updates aside;
        # a held update XORs its mask into c for every later state
        out[:] = before[ends]
        out ^= np.array(cs)[np.searchsorted(held, ends, side="left")]
        if pos < coords.size:
            r = int(np.searchsorted(ends, pos, side="right"))  # rounds before r ended at or before pos
            self.x = int(out[r - 1]) if r else x0
            self._scalar_rounds(updates[r:], coords[ends[r] - updates[r] :], out[r:])

    def bit_stream(self, n_rounds: int, include_seed: bool = False) -> str:
        """Big-endian bit patterns of n_rounds round outputs, concatenated.

        With include_seed the state as of this call (the seed, for a
        fresh generator) is prepended.
        """
        head = [self.x] if include_seed else []
        states = np.concatenate([np.array(head, dtype=np.int64), self.states(n_rounds)])
        return bitops.state_codes(self.config.f.n_bits).take(states, axis=0).tobytes().decode("ascii")

    def byte_stream(self, n_bytes: int) -> bytes:
        """Round-output bits (no seed) packed MSB-first into exactly n_bytes."""
        if n_bytes < 1:
            raise ValueError(f"n_bytes must be >= 1, got {n_bytes}")
        n = self.config.f.n_bits
        states = self.states(-(-8 * n_bytes // n))  # ceil: enough rounds, tail bits dropped
        return np.packbits(bitops.state_bits(states, n)[: 8 * n_bytes]).tobytes()


def _masks(coords: np.ndarray, n_bits: int) -> np.ndarray:
    """The digit 1 << (N - s) of each coordinate s in coords, the one
    coordinate-to-digit rule of the bulk engines, in the narrowest unsigned
    dtype that holds it: uint8 up to N=8, uint16 above."""
    masks = np.empty(coords.size, dtype=np.uint8 if n_bits <= 8 else np.uint16)
    # unsafe admits coordinates of any integer dtype; each fits
    np.subtract(n_bits, coords, out=masks, dtype=masks.dtype, casting="unsafe")
    np.left_shift(1, masks, out=masks)
    return masks


@functools.lru_cache(maxsize=_GROUP_TABLES)
def _group_table(f: VectorOfImages, k: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Maps of every sequence of 0 to g single-coordinate updates.

    Level L holds the N^L sequences of L updates.  Sequence (c_1, ...,
    c_L), coordinate c numbered from 0 and c_1 applied first, is row
    offsets[L] + c_1 + N c_2 + ... + N^(L-1) c_L, offsets[L] being the
    rows of the levels below.  Level 0 is the identity and level 1 f's
    mapping matrix (`func.mapping_matrix`), whose row c updates
    coordinate c + 1; level L + 1 applies a level-1 row before each row
    of level L.

    A round's k + b updates take per = ceil((k + 1) / g) steps.  The
    largest g whose table fits _GROUP_ENTRIES, at most k + 1, sets per;
    g is then the smallest that takes as few steps, ceil((k + 1) / per):
    at N=3, k=10 both 6 and 7 take 2 steps, and the table of 6 has 1093
    rows against 3280.

    The rows sit as tuples in a 1-d read-only object array, so numpy
    gathers a block's rows in one call, and a cached table, shared by
    every generator over an equal (f, k), cannot be changed through any
    of them.  A row number, or an index (row << N) + x into one flat
    list, passes 256, Python's last cached int, at most steps: N=4
    states(65536) took 57-60 ms that way, against 42-48 ms.  Equal rows
    share one tuple: at N=4, k=13 the published variants' 1365 rows hold
    141 to 443 distinct ones, 23 to 73 KiB of tuples against 224 KiB.
    """
    n = f.n_bits
    g, rows = 1, 1 + n
    while g <= k and (rows + n ** (g + 1)) * f.size <= _GROUP_ENTRIES:
        g += 1
        rows += n**g
    per = -(-(k + 1) // g)
    g = -(-(k + 1) // per)
    single = mapping_matrix(f)
    levels = [np.arange(f.size, dtype=single.dtype)[None, :], single]
    while len(levels) <= g:
        levels.append(levels[-1][:, single].reshape(-1, f.size))
    rows = sum(map(len, levels))
    seen = {}
    interned = (seen.setdefault(row, row) for row in map(tuple, np.concatenate(levels).tolist()))
    table = np.fromiter(interned, dtype=object, count=rows)
    table.flags.writeable = False
    # in the smallest dtype that holds every row number
    offsets = ((n ** np.arange(g + 1) - 1) // (n - 1)).astype(np.min_scalar_type(rows))
    offsets.flags.writeable = False
    return table, g, offsets
