"""Export run and build traces to the Chrome trace-event JSON format.

The output is the ``{"traceEvents": [...]}`` object-format document that
Perfetto and ``chrome://tracing`` open directly: task activations become
complete-duration (``ph: "X"``) slices on one track per task, emissions,
losses, stimuli, ISRs, and polls become instant (``ph: "i"``) marks, and
the cumulative lost-event count is a counter (``ph: "C"``) track.

Chrome timestamps are microseconds; a simulated cycle maps to one
microsecond, so a 2 MHz target's 2 000 000-cycle run renders as two
seconds — unit labels aside, the relative picture is exact.

Build traces export too (:func:`to_build_chrome_trace`): every span-id
*lane* of a causal trace — the coordinator plus one lane per scheduled
task — becomes its own named thread track, so a ``--jobs N`` build
renders with the worker processes side by side; cache lookups become
instant marks on the coordinator track.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .runtrace import RUN_TRACE_FORMAT, RunTrace
from .schema import BUILD_TRACE_FORMAT

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "build_chrome_trace_events",
    "to_build_chrome_trace",
    "write_build_chrome_trace",
]

_PID = 1
#: Track reserved for environment stimuli and RTOS-level marks.
_ENV_TID = 0


def _thread_ids(run: RunTrace) -> Dict[str, int]:
    """A stable tid per task, in order of first appearance."""
    tids: Dict[str, int] = {}
    for e in run.events:
        task = e.get("task")
        if task is not None and task not in tids:
            tids[task] = len(tids) + 1
    return tids


def chrome_trace_events(run: RunTrace) -> List[Dict[str, Any]]:
    tids = _thread_ids(run)
    events: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _ENV_TID,
            "args": {"name": "environment/RTOS"},
        }
    ]
    for task, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": f"task {task}"},
            }
        )

    for task, start, end in run.task_slices():
        events.append(
            {
                "name": task,
                "cat": "task",
                "ph": "X",
                "ts": start,
                "dur": max(end - start, 1),
                "pid": _PID,
                "tid": tids.get(task, _ENV_TID),
            }
        )

    lost_total = 0
    for e in run.events:
        tid = tids.get(e.get("task"), _ENV_TID)
        if e.kind == "stimulus":
            events.append(_instant(f"<-{e['event']}", "stimulus", e.t, _ENV_TID))
        elif e.kind == "emit":
            events.append(_instant(f"emit {e['event']}", "emit", e.t, _ENV_TID))
        elif e.kind == "lost":
            lost_total += 1
            events.append(_instant(f"LOST {e['event']}", "lost", e.t, tid))
            events.append(
                {
                    "name": "lost events",
                    "cat": "lost",
                    "ph": "C",
                    "ts": e.t,
                    "pid": _PID,
                    "tid": _ENV_TID,
                    "args": {"lost": lost_total},
                }
            )
        elif e.kind == "isr":
            events.append(_instant(f"ISR {e['event']}", "isr", e.t, _ENV_TID))
        elif e.kind == "poll":
            events.append(_instant("poll", "poll", e.t, _ENV_TID))
        elif e.kind == "preempt":
            events.append(_instant(f"preempted by {e['by']}", "preempt", e.t, tid))
    return events


def _instant(name: str, cat: str, ts: int, tid: int) -> Dict[str, Any]:
    return {
        "name": name,
        "cat": cat,
        "ph": "i",
        "ts": ts,
        "pid": _PID,
        "tid": tid,
        "s": "t",
    }


def to_chrome_trace(run: RunTrace) -> Dict[str, Any]:
    """The full object-format Chrome trace document."""
    return {
        "traceEvents": chrome_trace_events(run),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": RUN_TRACE_FORMAT,
            "system": run.system,
            "policy": run.policy,
            "unit": "1 simulated cycle = 1 us",
        },
    }


def write_chrome_trace(run: RunTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(run), handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------------
# Build traces (repro-build-trace/v1) with per-worker lanes
# ----------------------------------------------------------------------


def _lane_name(lane: int, pid: Any) -> str:
    base = "coordinator" if lane == 0 else f"worker lane {lane}"
    return f"{base} (pid {pid})" if pid is not None else base


def build_chrome_trace_events(trace) -> List[Dict[str, Any]]:
    """Chrome events for a :class:`repro.pipeline.trace.BuildTrace`.

    Causal traces place each event on its lane's track at its recorded
    ``t_ms`` offset; flat traces fall back to one track with slices laid
    end to end.
    """
    lane_pids: Dict[int, Any] = {}
    for e in trace.events:
        lane = e.lane if e.lane is not None else 0
        if lane not in lane_pids:
            lane_pids[lane] = e.pid
    events: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": lane,
            "args": {"name": _lane_name(lane, pid)},
        }
        for lane, pid in sorted(lane_pids.items())
    ]
    cursors: Dict[int, float] = {}  # flat-trace fallback timeline per lane
    for e in trace.events:
        lane = e.lane if e.lane is not None else 0
        dur_us = max(e.wall_ms * 1000.0, 1.0)
        if e.t_ms is not None:
            ts_us = e.t_ms * 1000.0
        else:
            ts_us = cursors.get(lane, 0.0)
            cursors[lane] = ts_us + dur_us
        args: Dict[str, Any] = {}
        if e.span_id is not None:
            args["span_id"] = e.span_id
            if e.parent_id is not None:
                args["parent_id"] = e.parent_id
        if e.kind == "cache":
            name = f"cache {e.status}: {e.module}"
            mark = _instant(name, "cache", int(ts_us), lane)
            if args:
                mark["args"] = args
            events.append(mark)
            continue
        for key, value in e.metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                args[key] = value
        events.append(
            {
                "name": f"{e.module}:{e.name}",
                "cat": e.kind,
                "ph": "X",
                "ts": ts_us,
                "dur": dur_us,
                "pid": _PID,
                "tid": lane,
                **({"args": args} if args else {}),
            }
        )
    return events


def to_build_chrome_trace(trace) -> Dict[str, Any]:
    """The full object-format Chrome trace document for a build trace."""
    other: Dict[str, Any] = {
        "source": BUILD_TRACE_FORMAT,
        "unit": "build wall clock (us)",
    }
    if trace.trace_id is not None:
        other["trace_id"] = trace.trace_id
    return {
        "traceEvents": build_chrome_trace_events(trace),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_build_chrome_trace(trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_build_chrome_trace(trace), handle, indent=1)
        handle.write("\n")
