"""The one telemetry path: spans placed where they ran, failures traced.

* every event recorded under a parent on its own lane lies inside that
  parent's ``[t_ms, t_ms + wall_ms]`` slice, serial and ``--jobs 2``
  alike (events carry their *start* offset, not the moment they were
  recorded);
* a worker that dies mid-build surfaces as ``BrokenProcessPool`` with no
  leaked process, and the trace still closes: a root with a wall time
  and one ``error`` event naming the exception.  The crash rides in the
  task itself, so it reaches the shared pool's workers whatever the
  start method, and the next pooled build runs on a fresh pool.
"""

import copy
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.apps import abp_network
from repro.cfsm import Network
from repro.flow import build_system
from repro.obs import validate_build_trace
from repro.pipeline import BuildTrace

from ..conftest import build_bytes

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


class _ExitOnUnpickle:
    """Mixed into a machine's class: any process that unpickles it exits."""

    def __reduce__(self):
        return (os._exit, (1,))


def _doomed_network():
    """ABP with its first machine replaced by one that kills its worker."""
    network = abp_network()
    first = copy.copy(network.machines[0])
    first.__class__ = type("Doomed", (_ExitOnUnpickle, type(first)), {})
    return Network(network.name, [first] + network.machines[1:])


def test_worker_crash_is_a_typed_traced_error():
    # A warm shared pool: the crash must take down workers that already
    # served a build, not ones forked for this one.
    build_system(abp_network(), jobs=2)
    trace = BuildTrace()
    with pytest.raises(BrokenProcessPool):
        build_system(_doomed_network(), trace=trace, jobs=2)
    assert multiprocessing.active_children() == []
    doc = trace.to_dict()
    assert validate_build_trace(doc) == []
    root = next(e for e in trace.events if e.span_id == trace.root_span_id)
    assert root.wall_ms > 0
    errors = [e for e in trace.events if e.name == "error"]
    assert [e.metrics["error"] for e in errors] == ["BrokenProcessPool"]
    assert errors[0].parent_id == trace.root_span_id
    # The next pooled build gets a fresh pool.
    network = abp_network()
    assert build_bytes(build_system(network, jobs=2)) == build_bytes(
        build_system(network)
    )
