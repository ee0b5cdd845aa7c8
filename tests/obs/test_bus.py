"""Telemetry bus: JSONL lanes, drain order, torn-line tolerance."""

import json
import os

from repro.obs import TelemetryBus, split_records


def test_writer_appends_one_json_line_per_record(tmp_path):
    bus = TelemetryBus(str(tmp_path / "bus"))
    with bus.writer(2) as writer:
        writer.emit_event({"module": "m", "name": "n"})
        writer.emit_metric("hits", 3)
    with open(bus.lane_path(2), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["kind"] == "event" and first["lane"] == 2
    second = json.loads(lines[1])
    assert second == {"kind": "metric", "lane": 2, "name": "hits", "value": 3}


def test_drain_orders_by_lane_then_position(tmp_path):
    bus = TelemetryBus(str(tmp_path / "bus"))
    # Write lanes out of order: drain must still return lane order.
    for lane in (3, 1, 2):
        with bus.writer(lane) as writer:
            writer.emit_metric("lane_marker", lane)
            writer.emit_metric("lane_marker_second", lane)
    records = bus.drain()
    lanes = [r["lane"] for r in records]
    assert lanes == [1, 1, 2, 2, 3, 3]
    assert bus.lanes() == [1, 2, 3]


def test_drain_skips_torn_trailing_line(tmp_path):
    bus = TelemetryBus(str(tmp_path / "bus"))
    with bus.writer(1) as writer:
        writer.emit_metric("ok", 1)
    # Simulate a worker killed mid-write: a torn, non-JSON trailing line.
    with open(bus.lane_path(1), "a", encoding="utf-8") as handle:
        handle.write('{"kind": "metric", "na')
    records = bus.drain()
    assert len(records) == 1
    assert records[0]["name"] == "ok"


def test_split_records_sums_metrics_and_keeps_events(tmp_path):
    bus = TelemetryBus(str(tmp_path / "bus"))
    with bus.writer(1) as writer:
        writer.emit_event({"module": "a", "name": "s"})
        writer.emit_metric("divergences", 2)
    with bus.writer(2) as writer:
        writer.emit_metric("divergences", 3)
    events, metrics = split_records(bus.drain())
    assert [e["module"] for e in events] == ["a"]
    assert metrics == {"divergences": 5}


def test_clear_removes_lane_files(tmp_path):
    bus = TelemetryBus(str(tmp_path / "bus"))
    with bus.writer(1) as writer:
        writer.emit_metric("x", 1)
    assert os.path.exists(bus.lane_path(1))
    bus.clear()
    assert bus.drain() == []
