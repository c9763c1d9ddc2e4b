"""Spans around the benchmark's own calls into the package, and what they add up to.

A span is (name, start, end, parent, operation id); its name starts with
the layer it times (`generator.states` belongs to `generator`).  Times
come from the clock the tracer is given, which may leave out time the
benchmark spends on itself.  Spans live in flat arrays while the run
lasts and are written out at the end.
Nothing inside the package is instrumented: where one public call hides
several layers, a traced operation makes the finer public calls itself.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("sources", "generator", "bitops", "stats", "func", "graph", "cli")


class Tracer:
    def __init__(self, now):
        self.now = now
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.extra = bytearray()  # 1: work the untraced operation does not do
        self.counts: Counter = Counter()
        self.op_id = -1
        self._open: list[int] = []

    def _new(self, name: str, extra: bool) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.extra.append(extra)
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    @contextmanager
    def span(self, name: str, extra: bool = False):
        idx = self._new(name, extra)
        self._open.append(idx)
        self.start[idx] = self.now()
        try:
            yield idx
        finally:
            self.end[idx] = self.now()
            self._open.pop()

    def child_total(self, parent: int, name: str, seconds: float) -> None:
        """Record `seconds` spent inside span `parent` in many short calls, as one child."""
        idx = self._new(name, False)
        self.parent[idx] = parent
        self.op[idx] = self.op[parent]
        self.start[idx] = self.start[parent]
        self.end[idx] = self.start[idx] + seconds

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.start[i], self.end[i], self.parent[i], self.op[i]]) + "\n")


def span_times(tr: Tracer, f):
    """Per span: duration, and self time (duration minus its children's); `f` maps span times."""
    n = len(tr.names)
    dur = (f(np.asarray(tr.end)) - f(np.asarray(tr.start))).tolist()
    covered = [0.0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            covered[tr.parent[i]] += dur[i]
    return dur, [dur[i] - covered[i] for i in range(n)]


def layer_summary(tr: Tracer, twins: dict[int, int], f, n_passes: int, traced_wall: float) -> dict:
    """Per-layer times per pass, with each `cli.main` split by its direct twin.

    `twins` maps the operation id of a cli operation to the id of the
    direct operation in the same pass that has the same inputs.  `f` maps
    span times to rescaled ones (clock.Clock.scaled).  The cli
    layer is charged `cli.main` minus the twin's own work (that is
    `cli.overhead_s`); the rest is charged to the layers as the twin's
    work was.  Extra spans (work only the traced run does) are left out
    of every layer and reported on their own.
    """
    dur, self_t = span_times(tr, f)
    by_name: defaultdict = defaultdict(float)
    self_by_name: defaultdict = defaultdict(float)
    self_by_op: dict[int, Counter] = defaultdict(Counter)
    top_by_op: Counter = Counter()
    extra_by_op: Counter = Counter()
    for i, name in enumerate(tr.names):
        by_name[name] += dur[i]
        self_by_name[name] += self_t[i]
        op = tr.op[i]
        if tr.extra[i] or _under_extra(tr, i):
            extra_by_op[op] += self_t[i]
        else:
            self_by_op[op][name.split(".", 1)[0]] += self_t[i]
        if tr.parent[i] < 0:
            top_by_op[op] += dur[i]
    layer_self: Counter = Counter()
    overhead = 0.0
    for op, layers in self_by_op.items():
        twin = twins.get(op)
        if twin is None:
            layer_self.update(layers)
            continue
        twin_work = top_by_op[twin] - extra_by_op[twin]
        cli_main = layers["cli"]
        overhead += cli_main - twin_work
        layer_self["cli"] += cli_main - twin_work
        layer_self.update(self_by_op[twin])
    extra_total = sum(extra_by_op.values())
    covered = sum(top_by_op.values())
    per = 1.0 / n_passes
    return {
        "by_name": {k: v * per for k, v in by_name.items()},
        "self_by_name": {k: v * per for k, v in self_by_name.items()},
        "layer_self": {layer: layer_self[layer] * per for layer in LAYERS},
        "cli_overhead": overhead * per,
        "extra": extra_total * per,
        "coverage": covered * per / traced_wall if traced_wall else 0.0,
    }


def _under_extra(tr: Tracer, i: int) -> bool:
    p = tr.parent[i]
    while p >= 0:
        if tr.extra[p]:
            return True
        p = tr.parent[p]
    return False
