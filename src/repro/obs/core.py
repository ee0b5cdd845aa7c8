"""The shared observability core: metrics and trace documents.

Everything in this module is dependency-free (it imports nothing from
``repro``) so any layer — the BDD engine, the synthesis pipeline, the
RTOS runtime — can be instrumented without import cycles.  Spans are
recorded by :class:`repro.pipeline.trace.BuildTrace`.

Two primitives:

* :class:`MetricsRegistry` — named counters, gauges, and histograms with
  optional labels; :meth:`MetricsRegistry.to_dict` gives a stable JSON
  shape and :meth:`MetricsRegistry.render` a human-readable dump.
* :class:`TraceDocument` — the common base of the build trace
  (``repro-build-trace/v1``) and the run trace (``repro-run-trace/v1``):
  one event model (timestamped dicts), one serialization surface
  (``to_dict``/``to_json``/``write`` and ``from_dict``/``load``), so one
  reporter (:mod:`repro.obs.report`) can summarize either.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceDocument",
    "read_trace_file",
]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins); tracks the peak seen."""

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Raw-sample histogram with exact percentiles.

    Samples are kept verbatim (simulation runs are bounded), so
    :meth:`percentile` is exact, matching the nearest-rank convention of
    :meth:`repro.rtos.runtime.LatencyProbe.percentile`.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def minimum(self) -> Optional[float]:
        return min(self.samples) if self.samples else None

    @property
    def maximum(self) -> Optional[float]:
        return max(self.samples) if self.samples else None

    @property
    def average(self) -> Optional[float]:
        return self.total / len(self.samples) if self.samples else None

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile; ``p`` in [0, 100]."""
        if not self.samples:
            return None
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.samples)
        if p == 0:
            return ordered[0]
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without float error
        return ordered[int(rank) - 1]

    def to_dict(self) -> Dict[str, Any]:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "avg": self.average,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


def _metric_key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create store of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {
                k: {"value": g.value, "peak": g.peak}
                for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable dump, one metric per line."""
        lines: List[str] = []
        for key, c in sorted(self._counters.items()):
            lines.append(f"{key} {c.value}")
        for key, g in sorted(self._gauges.items()):
            lines.append(f"{key} {g.value:g} (peak {g.peak:g})")
        for key, h in sorted(self._histograms.items()):
            if not h.count:
                lines.append(f"{key} count=0")
                continue
            lines.append(
                f"{key} count={h.count} min={h.minimum:g} avg={h.average:g} "
                f"p50={h.percentile(50):g} p90={h.percentile(90):g} "
                f"max={h.maximum:g}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


# ----------------------------------------------------------------------
# Trace documents
# ----------------------------------------------------------------------


class TraceDocument:
    """Common serialization surface of build and run traces.

    Subclasses set ``FORMAT`` (the ``format`` field of the JSON document)
    and implement ``to_dict`` / ``populate_from`` over their own event
    model; this base contributes the JSON round-trip plumbing shared by
    both so ``repro report`` and the schema validators can treat any
    trace file uniformly.
    """

    FORMAT = "repro-trace/v0"  # overridden by subclasses

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def populate_from(self, doc: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceDocument":
        fmt = doc.get("format")
        if fmt != cls.FORMAT:
            raise ValueError(
                f"expected a {cls.FORMAT!r} document, got format={fmt!r}"
            )
        trace = cls()
        trace.populate_from(doc)
        return trace

    @classmethod
    def load(cls, path: str) -> "TraceDocument":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


def read_trace_file(path: str) -> Tuple[str, Dict[str, Any]]:
    """Read any trace JSON file; returns ``(format, document)``."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "format" not in doc:
        raise ValueError(f"{path}: not a repro trace document")
    return doc["format"], doc
