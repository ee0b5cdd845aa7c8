"""Trace context: id formats, lane partitioning, serialization."""

import pytest

from repro.obs import TraceContext, make_span_id, new_trace_id, span_id_lane


def test_trace_id_is_32_hex():
    tid = new_trace_id()
    assert len(tid) == 32
    int(tid, 16)
    assert tid != new_trace_id()


def test_span_id_encodes_lane_and_sequence():
    sid = make_span_id(3, 7)
    assert len(sid) == 16
    assert sid == "0003000000000007"
    assert span_id_lane(sid) == 3


def test_span_id_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_span_id(-1, 1)
    with pytest.raises(ValueError):
        make_span_id(0x10000, 1)
    with pytest.raises(ValueError):
        make_span_id(0, 0)  # all-zero span ids are invalid


def test_span_ids_are_unique_across_lanes():
    ids = {make_span_id(lane, seq) for lane in range(4) for seq in range(1, 50)}
    assert len(ids) == 4 * 49


def test_context_round_trips_through_dict():
    ctx = TraceContext(
        trace_id=new_trace_id(),
        span_id=make_span_id(0, 1),
        lane=5,
    )
    clone = TraceContext.from_dict(ctx.to_dict())
    assert clone == ctx
