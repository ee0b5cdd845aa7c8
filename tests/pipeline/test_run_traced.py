"""The one telemetry path: spans placed where they ran, failures traced.

* every event recorded under a parent on its own lane lies inside that
  parent's ``[t_ms, t_ms + wall_ms]`` slice, serial and ``--jobs 2``
  alike (events carry their *start* offset, not the moment they were
  recorded);
* a worker that dies mid-build surfaces as ``BrokenProcessPool`` with no
  leaked process, and the trace still closes: a root with a wall time
  and one ``error`` event naming the exception.
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.apps import abp_network
from repro.flow import build_system
from repro.obs import validate_build_trace
from repro.pipeline import BuildTrace, parallel

#: Float rounding only: both ends of a child come from the same clock
#: readings as its parent's, so no timing tolerance is needed.
EPS_MS = 1e-6


@pytest.mark.parametrize("jobs", [1, 2])
def test_events_lie_inside_their_parent_slice(jobs):
    network = abp_network()
    trace = BuildTrace()
    build_system(network, trace=trace, jobs=jobs)
    by_id = {e.span_id: e for e in trace.events}
    nested_lanes = set()
    for event in trace.events:
        parent = by_id.get(event.parent_id)
        if parent is None or parent.lane != event.lane:
            continue
        nested_lanes.add(event.lane)
        where = f"{event.module}:{event.name} in {parent.module}:{parent.name}"
        assert event.t_ms >= parent.t_ms - EPS_MS, where
        assert (
            event.t_ms + event.wall_ms
            <= parent.t_ms + parent.wall_ms + EPS_MS
        ), where
    # The coordinator's stages under the root, and every worker lane's
    # passes and stages under its module span.
    assert nested_lanes == set(range(len(network.machines) + 1))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash is patched into the parent and inherited by forking",
)
def test_worker_crash_is_a_typed_traced_error(monkeypatch):
    build = parallel.build_module_artifacts
    network = abp_network()
    doomed = network.machines[0].name

    def crash_one(machine, *args, **kwargs):
        if machine.name == doomed:
            os._exit(1)
        return build(machine, *args, **kwargs)

    monkeypatch.setattr(parallel, "build_module_artifacts", crash_one)
    trace = BuildTrace()
    with pytest.raises(BrokenProcessPool):
        build_system(network, trace=trace, jobs=2)
    assert multiprocessing.active_children() == []
    doc = trace.to_dict()
    assert validate_build_trace(doc) == []
    root = next(e for e in trace.events if e.span_id == trace.root_span_id)
    assert root.wall_ms > 0
    errors = [e for e in trace.events if e.name == "error"]
    assert [e.metrics["error"] for e in errors] == ["BrokenProcessPool"]
    assert errors[0].parent_id == trace.root_span_id
