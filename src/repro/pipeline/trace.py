"""Structured build traces: per-pass instrumentation of the synthesis flow.

Every pass executed by a :class:`repro.pipeline.passes.PassManager`, every
cache lookup of a :class:`repro.pipeline.cache.ArtifactCache`, and every
coarse stage of :func:`repro.flow.build_system` (calibration, RTOS
generation, footprint accounting, per-module compilation) appends one
:class:`TraceEvent`.  The trace answers the questions a scaling effort
needs answered — where did the wall time go, how big were the BDDs and
s-graphs, which modules were rebuilt and which came from the cache — and
serializes to a stable JSON document (``repro-build-trace/v1``) for
external tooling.

Since the causal-telemetry work the trace is also a *distributed* trace:
:meth:`BuildTrace.begin` opens a W3C-style root span (32-hex ``trace_id``,
16-hex ``span_id``), every event recorded afterwards carries
``span_id``/``parent_id`` links, and a worker process adopts a
:class:`repro.obs.context.TraceContext` so its spans land on their own
*lane* of the id space and link back to the coordinator's root span.
Worker events travel home inside the (pickled) task outcome, and
:meth:`BuildTrace.merge` folds each outcome's events and summed counters
into the one merged document, in task order.

:class:`BuildTrace` extends :class:`repro.obs.TraceDocument`, the same
base the runtime's :class:`repro.obs.RunTrace` uses, so build and run
traces share one serialization surface (``to_json``/``write`` and
``from_dict``/``load``) and one reporter (``repro report``).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from ..obs import BUILD_TRACE_FORMAT as TRACE_FORMAT
from ..obs import TraceDocument
from ..obs.context import TraceContext, make_span_id, new_trace_id

__all__ = ["TraceEvent", "BuildTrace", "TRACE_FORMAT", "staged"]

#: ``kind`` values.  A ``pass`` event is one synthesis pass run by a
#: PassManager; a ``cache`` event is one artifact-cache lookup (status
#: ``hit``/``miss``); a ``stage`` event is a coarse flow stage (compile,
#: estimate, rtos, ...) — including the root span and per-task spans of a
#: causal trace.
PASS = "pass"
CACHE = "cache"
STAGE = "stage"


@dataclass
class TraceEvent:
    """One instrumented step of a build.

    The causal fields are optional: a flat (legacy) trace omits them, a
    trace opened with :meth:`BuildTrace.begin` stamps every event with
    ``span_id``/``parent_id`` (W3C-style 16-hex ids), the worker ``lane``
    the id was allocated on, the recording ``pid``, and ``t_ms`` — the
    start offset within the recording lane's timeline.
    """

    module: str
    name: str
    kind: str = PASS
    wall_ms: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)
    status: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    lane: Optional[int] = None
    pid: Optional[int] = None
    t_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "module": self.module,
            "name": self.name,
            "kind": self.kind,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.metrics:
            out["metrics"] = self.metrics
        if self.status is not None:
            out["status"] = self.status
        if self.span_id is not None:
            out["span_id"] = self.span_id
            if self.parent_id is not None:
                out["parent_id"] = self.parent_id
            if self.lane is not None:
                out["lane"] = self.lane
            if self.pid is not None:
                out["pid"] = self.pid
            if self.t_ms is not None:
                out["t_ms"] = round(self.t_ms, 3)
        return out

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceEvent":
        return cls(
            module=doc.get("module", "?"),
            name=doc.get("name", "?"),
            kind=doc.get("kind", PASS),
            wall_ms=float(doc.get("wall_ms", 0.0)),
            metrics=dict(doc.get("metrics", {})),
            status=doc.get("status"),
            span_id=doc.get("span_id"),
            parent_id=doc.get("parent_id"),
            lane=doc.get("lane"),
            pid=doc.get("pid"),
            t_ms=doc.get("t_ms"),
        )


class BuildTrace(TraceDocument):
    """An append-only event log for one build (or one module's build).

    Used three ways:

    * **flat** (the default) — ``BuildTrace()`` and record; no causal ids
      are stamped, exactly the historical behavior;
    * **coordinator** — :meth:`begin` opens the root span; every event
      recorded afterwards links to the current parent (nest with
      :meth:`span`), and :meth:`context_for` hands each scheduled task
      its own lane;
    * **worker** — ``BuildTrace(context=...)`` (or :meth:`adopt`) joins
      an existing trace: events are stamped on the context's lane and
      parented on the context's span.
    """

    FORMAT = TRACE_FORMAT

    def __init__(self, context: Optional[TraceContext] = None) -> None:
        self.events: List[TraceEvent] = []
        #: Counters from subsystems (cache stats) and merged task outcomes.
        self.metrics: Dict[str, float] = {}
        self.trace_id: Optional[str] = None
        self.root_span_id: Optional[str] = None
        self.lane: int = 0
        self._seq: int = 0
        self._parents: List[str] = []
        self._epoch = time.perf_counter()
        self._root_event: Optional[TraceEvent] = None
        if context is not None:
            self.adopt(context)

    # -- causal identity ---------------------------------------------------

    @property
    def causal(self) -> bool:
        """Whether this trace stamps span ids onto recorded events."""
        return self.trace_id is not None

    def _next_span_id(self) -> str:
        self._seq += 1
        return make_span_id(self.lane, self._seq)

    def begin(self, module: str = "build", trace_id: Optional[str] = None) -> str:
        """Open the root span (coordinator side); returns its span id.

        The root is recorded immediately as a ``stage`` event named
        ``build`` so the document is self-contained even if the build
        dies; :meth:`finish` back-fills its wall time.
        """
        if self.trace_id is not None:
            raise RuntimeError("trace already begun or adopted")
        self.trace_id = trace_id or new_trace_id()
        self._epoch = time.perf_counter()
        root = TraceEvent(module=module, name="build", kind=STAGE)
        self.record(root, now=self._epoch)
        self.root_span_id = root.span_id
        self._parents = [root.span_id]  # type: ignore[list-item]
        self._root_event = root
        return root.span_id  # type: ignore[return-value]

    def finish(self) -> None:
        """Close the root span: stamp its wall time with the elapsed total."""
        if self._root_event is not None:
            self._root_event.wall_ms = (
                time.perf_counter() - self._epoch
            ) * 1000.0

    def adopt(self, context: TraceContext) -> None:
        """Join an existing trace from a worker (or sub-task) side."""
        if self.trace_id is not None:
            raise RuntimeError("trace already begun or adopted")
        self.trace_id = context.trace_id
        self.lane = context.lane
        self._parents = [context.span_id]
        self._epoch = time.perf_counter()

    def context_for(self, lane: int) -> TraceContext:
        """The :class:`TraceContext` to inject into the task on ``lane``."""
        if self.trace_id is None:
            raise RuntimeError("begin() the trace before handing out contexts")
        parent = self._parents[-1] if self._parents else self.root_span_id
        return TraceContext(
            trace_id=self.trace_id,
            span_id=parent,  # type: ignore[arg-type]
            lane=lane,
        )

    @contextmanager
    def span(self, module: str, name: str, kind: str = STAGE, **metrics: Any):
        """Record an event now and parent everything recorded inside it."""
        event = TraceEvent(
            module=module, name=name, kind=kind, metrics=dict(metrics)
        )
        start = time.perf_counter()
        self.record(event, now=start)
        pushed = event.span_id is not None
        if pushed:
            self._parents.append(event.span_id)  # type: ignore[arg-type]
        try:
            yield event
        finally:
            event.wall_ms = (time.perf_counter() - start) * 1000.0
            if pushed:
                self._parents.pop()

    # -- recording ---------------------------------------------------------

    def record(
        self, event: TraceEvent, now: Optional[float] = None
    ) -> TraceEvent:
        """Append ``event``, stamping causal ids when the trace has them.

        An event is recorded when its step ends, so its start offset
        ``t_ms`` is the clock reading ``now`` (default: the current
        ``perf_counter``) less its ``wall_ms``.  An event that already
        carries a ``span_id`` (merged from a worker) is appended verbatim.
        """
        if self.trace_id is not None and event.span_id is None:
            event.span_id = self._next_span_id()
            if self._parents:
                event.parent_id = self._parents[-1]
            event.lane = self.lane
            event.pid = os.getpid()
            if now is None:
                now = time.perf_counter()
            event.t_ms = (now - self._epoch) * 1000.0 - event.wall_ms
        self.events.append(event)
        return event

    def record_pass(
        self,
        module: str,
        name: str,
        wall_ms: float,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> TraceEvent:
        return self.record(
            TraceEvent(module=module, name=name, kind=PASS,
                       wall_ms=wall_ms, metrics=dict(metrics or {}))
        )

    def record_cache(
        self, module: str, status: str, key: Optional[str] = None
    ) -> TraceEvent:
        metrics = {"key": key} if key is not None else {}
        return self.record(
            TraceEvent(module=module, name="cache.lookup", kind=CACHE,
                       status=status, metrics=metrics)
        )

    def record_stage(
        self,
        module: str,
        name: str,
        wall_ms: float,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> TraceEvent:
        return self.record(
            TraceEvent(module=module, name=name, kind=STAGE,
                       wall_ms=wall_ms, metrics=dict(metrics or {}))
        )

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge events produced elsewhere (e.g. in a worker process)."""
        for event in events:
            self.record(event)

    def add_metric(self, name: str, value: float) -> None:
        """Accumulate one named counter into the trace-level metrics."""
        self.metrics[name] = self.metrics.get(name, 0) + value

    def merge(
        self, events: Iterable[TraceEvent], metrics: Dict[str, float]
    ) -> None:
        """Fold one task outcome's events and counters into this trace."""
        self.extend(events)
        for name, value in metrics.items():
            self.add_metric(name, value)

    # -- queries -----------------------------------------------------------

    def passes(self, module: Optional[str] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.kind == PASS and (module is None or e.module == module)
        ]

    @property
    def synthesis_pass_count(self) -> int:
        """Number of synthesis passes actually executed (0 on a fully warm build)."""
        return len(self.passes())

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.events if e.kind == CACHE and e.status == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for e in self.events if e.kind == CACHE and e.status == "miss")

    def lanes(self) -> List[int]:
        """Distinct worker lanes present, ascending (causal traces only)."""
        return sorted({e.lane for e in self.events if e.lane is not None})

    def total_wall_ms(self) -> float:
        # The root span covers the whole build; counting it would double
        # every other event, so it is excluded from the instrumented total.
        # Summing the serialized (rounded) per-event values keeps the total
        # identical across a save/load round trip.
        return sum(
            round(e.wall_ms, 3)
            for e in self.events
            if self.root_span_id is None or e.span_id != self.root_span_id
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"format": TRACE_FORMAT}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["root_span_id"] = self.root_span_id
        out["events"] = [e.to_dict() for e in self.events]
        if self.metrics:
            out["metrics"] = {
                k: self.metrics[k] for k in sorted(self.metrics)
            }
        out["summary"] = {
            "events": len(self.events),
            "synthesis_passes": self.synthesis_pass_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_ms": round(self.total_wall_ms(), 3),
        }
        return out

    def populate_from(self, doc: Dict[str, Any]) -> None:
        self.events = [TraceEvent.from_dict(e) for e in doc.get("events", [])]
        self.metrics = dict(doc.get("metrics", {}))
        self.trace_id = doc.get("trace_id")
        self.root_span_id = doc.get("root_span_id")
        if self.trace_id is not None:
            # Keep recording usable on a loaded trace: continue the
            # coordinator lane past the highest sequence seen.
            self._seq = max(
                (
                    int(e.span_id[4:], 16)
                    for e in self.events
                    if e.span_id is not None
                    and int(e.span_id[:4], 16) == self.lane
                ),
                default=0,
            )
            self._parents = (
                [self.root_span_id] if self.root_span_id else []
            )

    def summary(self) -> str:
        """One human-readable line, suitable for stderr."""
        return (
            f"trace: {self.synthesis_pass_count} synthesis passes, "
            f"{self.cache_hits} cache hits, {self.cache_misses} misses, "
            f"{self.total_wall_ms():.1f}ms instrumented"
        )

    def __len__(self) -> int:
        return len(self.events)


T = TypeVar("T")


def staged(
    trace: Optional[BuildTrace],
    module: str,
    stage: str,
    fn: Callable[[], T],
    metrics: Optional[Callable[[T], Dict[str, Any]]] = None,
) -> T:
    """Run ``fn``; with a trace, record it as one ``stage`` event.

    ``metrics`` maps the stage's value to the event's metrics.
    """
    start = time.perf_counter()
    value = fn()
    if trace is not None:
        trace.record_stage(
            module, stage, (time.perf_counter() - start) * 1000.0,
            metrics(value) if metrics is not None else None,
        )
    return value
