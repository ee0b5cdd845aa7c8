"""The benchmark's own span recorder, used only by traced runs.

A span has a name, a start, an end, a parent and the id of the op it
belongs to.  Spans stay in memory and are written out as JSON lines when
the run ends.  The recorder wraps calls made *from the benchmark* into
each layer's public functions; it never reaches inside the program.

Per-layer figures are self times: a span's duration minus what its
children cover.  Every op has one root span (name ``op``) whose self
time is the part of the op no layer span covers, reported as ``other``;
so for each op the layer self times plus ``other`` equal its wall time.
Spans recorded outside an op (``reference`` roots: the in-process
replays that split a pooled step into layers) are kept in the file but
never summed into an op.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    op: int
    name: str
    start: float  # seconds, time.perf_counter()
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Spans:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Span]:
        """Time a block; nested blocks become children."""
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, op, name, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, op: int, parent: Optional[Span], start: float,
            duration_ms: float) -> Span:
        """Record a span whose duration was measured elsewhere."""
        record = Span(len(self.spans), parent.span_id if parent else None, op,
                      name, start, start + duration_ms / 1000.0)
        self.spans.append(record)
        return record

    def self_ms(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        own = {s.span_id: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def _roots(self) -> Dict[int, str]:
        """The name of each span's root, by span id (parents come first)."""
        roots: Dict[int, str] = {}
        for s in self.spans:
            roots[s.span_id] = s.name if s.parent is None else roots[s.parent]
        return roots

    def op_breakdown(self) -> Dict[str, float]:
        """Self time per span name summed over every ``op`` tree.

        The ``op`` roots' self time comes back under ``other``; spans
        under ``reference`` roots are left out.
        """
        roots = self._roots()
        own = self.self_ms()
        totals: Dict[str, float] = {}
        for s in self.spans:
            if roots[s.span_id] == "op":
                name = "other" if s.name == "op" else s.name
                totals[name] = totals.get(name, 0.0) + own[s.span_id]
        return totals

    def total_ms(self, name: str) -> float:
        return sum(s.ms for s in self.spans if s.name == name)

    def reference_ms(self, name: str) -> float:
        """Summed duration of ``name`` spans under ``reference`` roots."""
        roots = self._roots()
        return sum(s.ms for s in self.spans
                   if s.name == name and roots[s.span_id] == "reference")

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "start_ms": round((s.start - base) * 1000.0, 6),
                    "end_ms": round((s.end - base) * 1000.0, 6),
                }) + "\n")
