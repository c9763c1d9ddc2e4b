"""Times rescaled by the speed of the machine at the moment they were taken.

The 2-core machine this benchmark was built on shares its cores with
other tenants.  Over a few seconds its speed drifts by a third or more,
which would swamp the differences the benchmark exists to show.  So a
fixed probe, the benchmark's own code, runs between operations, every
PROBE_EVERY_S inside long ones, and between the steps of a set-up.  A
measured interval is rescaled by the probe's nominal time over its
measured time around the interval: it is reported as the time it would
have taken while the probe takes its nominal time, about its time on
that machine when it is quiet.  Probe time, and the time to build the
probe, is left out of every interval.

Different work slows differently under contention, so there are two
probes, and a clock can change probes between set-up and timed passes:

* `objects` builds tuples and looks them up in a set of 40k tuples
  (about 8 MiB), the kind of work the generator, search, graph and
  balance code does in the interpreter.  Over eight runs each, it cut
  the spread (IQR over median) of `wall_s` from 0.22 to 0.02 on
  `search`, 0.17 to 0.03 on `stream` and 0.08 to 0.02 on `wide`.  A
  probe with a 32 KiB working set reached only 0.03 to 0.06.  Every
  set-up uses it.
* `arrays` takes cumulative sums and counts 3-bit patterns over a
  2^17-bit numpy array, the kind of work the battery's tests do.  In
  one comparison over six seeds, with all probes taken at the same
  moments, the battery's `wall_s` rescaled by it ranged over 0.04 of
  its median, against 0.10 rescaled by one pass over an 8 MiB array,
  0.12 unscaled and 0.38 rescaled by `objects`: the battery's numpy
  work slows less than the interpreter's.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.025


class _Objects:
    def __init__(self):
        rows = np.random.default_rng(5).integers(0, 16, size=(40_000, 16)).tolist()
        self.seen = set(map(tuple, rows))
        self.keys = list(self.seen)[:4096]  # in hash order: spread over the tuples' memory

    def __call__(self) -> None:
        for i in range(250):
            t = list(self.keys[(i * 2654435761) & 4095])
            t[i & 15], t[(i * 7) & 15] = t[(i * 7) & 15], t[i & 15]
            _ = tuple(t) in self.seen


class _Arrays:
    def __init__(self):
        self.bits = np.random.default_rng(3).integers(0, 2, 1 << 17).astype(np.int8)

    def __call__(self) -> None:
        a = self.bits
        np.abs(np.cumsum(a, dtype=np.int64)).max()
        np.bincount((a[:-2].astype(np.int64) << 2) | (a[1:-1] << 1) | a[2:], minlength=8)


# probe name: (its class, its time in seconds on a quiet machine)
PROBES = {"objects": (_Objects, 0.00012), "arrays": (_Arrays, 0.001)}


class Clock:
    """Monotonic clock that leaves out the probe's time."""

    def __init__(self):
        self.spent = 0.0
        self.use("objects")  # set-up is interpreter work whatever the workload
        self.last = float("-inf")
        self.times: list[float] = []  # clock time of each probe
        self.speeds: list[float] = []  # the probe's nominal time over its time then

    def use(self, probe: str) -> None:
        """Probe with `probe` from now on; building it is left out of the clock."""
        start = perf_counter()
        make, self.nominal = PROBES[probe]
        self._probe = make()
        self.spent += perf_counter() - start

    def now(self) -> float:
        return perf_counter() - self.spent

    def tick(self) -> None:
        """Probe if the last probe is PROBE_EVERY_S old."""
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def probe(self) -> None:
        """Run the probe three times and note the median time as a speed."""
        start = perf_counter()
        runs = []
        for _ in range(3):
            t = perf_counter()
            self._probe()
            runs.append(perf_counter() - t)
        self.last = perf_counter()
        self.spent += self.last - start
        self.times.append(self.now())
        self.speeds.append(self.nominal / statistics.median(runs))

    def scaled(self):
        """A function of clock times whose differences are rescaled durations."""
        if len(self.times) < 2:
            return lambda t: np.asarray(t, dtype=np.float64)
        ts = np.asarray(self.times)
        v = np.asarray(self.speeds)
        rate = 2 / (1 / v[:-1] + 1 / v[1:])  # between consecutive probes: nominal over mean time
        at = np.concatenate([[0.0], np.cumsum(rate * np.diff(ts))])
        # beyond the first and last probe, at their own rates
        far = 1e6
        ts = np.concatenate([[ts[0] - far], ts, [ts[-1] + far]])
        at = np.concatenate([[-far * v[0]], at, [at[-1] + far * v[-1]]])
        return lambda t: np.interp(t, ts, at)
