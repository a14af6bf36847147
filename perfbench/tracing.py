"""The benchmark's clock, and spans recorded around calls into the package.

A traced op is the real op with probes installed: each probe replaces a
function where the op's code looks it up (a module attribute or a class
method) by a wrapper that records a span around the call. A span has a
name, a start, an end, the span that caused it and the op it belongs to.
Spans stay in memory and are written out only when the run ends. A
layer's self time is its span's duration minus the time its child spans
cover. A function the op stops calling records nothing, so its layer
reads 0.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple


def cpu_clock() -> float:
    """CPU seconds used by this process and its reaped children.

    On a shared virtual machine the wall clock also runs while the host
    serves other guests, which moved single runs here by up to a third;
    CPU time does not, so every time the benchmark reports is on this
    clock. Work moved to other threads or child processes still counts.
    """
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


class Probe(NamedTuple):
    """Time ``owner.attr`` as layer ``name``.

    ``count``, when given, is a counter name and a function of the call's
    result and arguments; its value is added to the span's counter.
    """

    owner: Any
    attr: str
    name: str
    count: tuple[str, Callable[..., int]] | None = None


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans for the ops of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op: int) -> None:
        self._op = op

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self._op, parent, cpu_clock())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = cpu_clock()
            self._stack.pop()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(probe.name) as sp:
                out = fn(*args, **kwargs)
                if probe.count is not None:
                    key, counter = probe.count
                    sp.counts[key] = sp.counts.get(key, 0) + counter(out, *args, **kwargs)
            return out

        return traced

    @contextmanager
    def installed(self, probes: tuple[Probe, ...]) -> Iterator[None]:
        """Install the probes for the duration of the block.

        A probe whose attribute the owner no longer defines is skipped.
        """
        saved = []
        try:
            for probe in probes:
                fn = vars(probe.owner).get(probe.attr)
                if callable(fn):
                    saved.append((probe.owner, probe.attr, fn))
                    setattr(probe.owner, probe.attr, self._wrap(fn, probe))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the self time of each layer, summed over its spans."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[int, dict[str, float]] = {}
        for i, sp in enumerate(self.spans):
            per_op = out.setdefault(sp.op, {})
            per_op[sp.name] = per_op.get(sp.name, 0.0) + (sp.end - sp.start - child_time[i])
        return out

    def counts(self) -> dict[int, dict[str, int]]:
        """Per op, each counter summed over its spans."""
        out: dict[int, dict[str, int]] = {}
        for sp in self.spans:
            per_op = out.setdefault(sp.op, {})
            for key, val in sp.counts.items():
                per_op[key] = per_op.get(key, 0) + val
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with path.open("w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": sp.op, "name": sp.name, "parent": sp.parent,
                    "start": sp.start, "end": sp.end, "counts": sp.counts,
                }, sort_keys=True) + "\n")
