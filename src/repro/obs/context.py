"""W3C-style trace context: causal identity that crosses process pools.

A traced build is one *trace*; every instrumented step inside it is a
*span*.  Identity follows the W3C Trace Context shapes — a 32-hex-char
``trace_id`` shared by every span of one build, a 16-hex-char ``span_id``
per step, and a ``parent_id`` linking each span to the step that caused
it — so any exported document can be stitched, grouped, and visualized by
standard tooling.

Because pipeline tasks run in worker *processes*, span ids cannot come
from one shared counter.  Instead the id space is partitioned into
**lanes**: the coordinator is lane 0 and each scheduled task gets its own
lane (its task index + 1), so ``span_id = lane:04x ++ sequence:12x`` is
unique across the whole build without any cross-process coordination —
and, because lanes are assigned by task order, *deterministic*: a serial
and a parallel build of the same network produce structurally identical
id graphs.

:class:`TraceContext` is the picklable capsule a coordinator injects into
each task: the trace id, the parent span to link back to, and the
assigned lane.  The task's events come back inside its (pickled) outcome
and :func:`repro.pipeline.parallel.run_traced` merges them in task order.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from typing import Any, Dict

__all__ = [
    "TraceContext",
    "new_trace_id",
    "make_span_id",
    "span_id_lane",
]


def new_trace_id() -> str:
    """A fresh 32-hex-char (128-bit) trace id."""
    return uuid.uuid4().hex


def make_span_id(lane: int, seq: int) -> str:
    """The 16-hex-char span id of step ``seq`` on ``lane``.

    Sequence numbers start at 1: the all-zero id is invalid in the W3C
    convention and doubles as "no parent" here.
    """
    if not 0 <= lane <= 0xFFFF:
        raise ValueError(f"lane {lane} out of range [0, 65535]")
    if not 1 <= seq <= 0xFFFFFFFFFFFF:
        raise ValueError(f"span sequence {seq} out of range")
    return f"{lane:04x}{seq:012x}"


def span_id_lane(span_id: str) -> int:
    """The lane a span id was allocated on."""
    return int(span_id[:4], 16)


@dataclass
class TraceContext:
    """The serializable causal link a coordinator hands to one task.

    ``span_id`` is the *parent* span the task's own spans link back to
    (usually the build's root span).  ``lane`` is the task's private
    span-id partition.
    """

    trace_id: str
    span_id: str
    lane: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "lane": self.lane,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            lane=int(doc["lane"]),
        )

    @property
    def pid(self) -> int:
        return os.getpid()
