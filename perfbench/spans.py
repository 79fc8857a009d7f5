"""Spans around the public entry points of the recloss modules.

The benchmark never edits ``src/``: :class:`Tracer` replaces module and
class attributes with thin wrappers for the length of a traced run and puts
the originals back afterwards.  Every call made while the tracer is on
records one span (name, start, end, parent span, phase) plus optional
counts; spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the part of that interval its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """In-memory span recorder that can patch callables in place.

    ``on`` switches recording without unpatching, so one process can
    alternate traced and untraced rounds of the same code.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.on = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``counts(result) -> dict`` adds counts to the span from the call's
        return value.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.phase, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def per_phase(self, phase_prefix: str) -> dict[str, dict[str, float]]:
        """{phase: {"<name>.self", "<name>.total", "<name>.calls", count keys}}."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, selfs):
            if not s.phase.startswith(phase_prefix):
                continue
            acc = out.setdefault(s.phase, {})
            for key, value in (
                (f"{s.name}.self", own),
                (f"{s.name}.total", s.duration),
                (f"{s.name}.calls", 1),
                *((f"{s.name}.{k}", v) for k, v in s.counts.items()),
            ):
                acc[key] = acc.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": s.name, "phase": s.phase, "parent": s.parent,
                     "start": s.start, "end": s.end, "counts": s.counts}
                    for s in self.spans
                ],
                fh,
            )


def phase_median(per_phase: dict[str, dict[str, float]], key: str) -> float:
    """Median over phases of one accumulated key; phases without it count 0."""
    if not per_phase:
        return 0.0
    return statistics.median(acc.get(key, 0.0) for acc in per_phase.values())
