"""Wire-protocol framing and serve-bench schema validation."""

import json
import socket
import struct
import threading
from pathlib import Path

import pytest

from repro.obs import validate_serve_bench, validate_trace
from repro.serve import (
    CONTROL_KINDS,
    MAX_FRAME_BYTES,
    REQUEST_KINDS,
    WORK_KINDS,
)
from repro.serve.protocol import (
    FrameError,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = _pair()
        try:
            doc = {"kind": "ping", "id": "r1", "params": {"x": [1, 2, 3]}}
            send_frame(a, doc)
            assert recv_frame(b) == doc
        finally:
            a.close()
            b.close()

    def test_multiple_frames_pipeline_on_one_connection(self):
        a, b = _pair()
        try:
            docs = [{"id": f"r{i}", "kind": "stats"} for i in range(5)]
            for doc in docs:
                send_frame(a, doc)
            assert [recv_frame(b) for _ in docs] == docs
        finally:
            a.close()
            b.close()

    def test_encoding_is_canonical(self):
        # sort_keys + compact separators: key order never changes bytes.
        one = encode_frame({"b": 1, "a": 2})
        two = encode_frame({"a": 2, "b": 1})
        assert one == two
        assert one[:4] == struct.pack(">I", len(one) - 4)

    def test_clean_eof_between_frames_is_none(self):
        a, b = _pair()
        try:
            send_frame(a, {"id": "r1"})
            a.close()
            assert recv_frame(b) == {"id": "r1"}
            assert recv_frame(b) is None  # peer closed at a boundary
        finally:
            b.close()

    def test_eof_mid_frame_is_an_error(self):
        a, b = _pair()
        try:
            frame = encode_frame({"id": "r1", "params": {"pad": "x" * 64}})
            a.sendall(frame[: len(frame) - 10])
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_fails_fast(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_payload_refused_on_send(self):
        with pytest.raises(FrameError):
            encode_frame({"pad": "x" * (MAX_FRAME_BYTES + 16)})

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError):
            decode_payload(json.dumps([1, 2, 3]).encode("utf-8"))

    def test_undecodable_payload_rejected(self):
        with pytest.raises(FrameError):
            decode_payload(b"\xff\xfenot json")

    def test_large_frame_round_trips(self):
        # A realistic synthesize response is tens of KB of C source.
        a, b = _pair()
        try:
            doc = {"result": {"c_source": "int x;\n" * 20_000}}
            received = {}

            def reader():
                received["doc"] = recv_frame(b)

            thread = threading.Thread(target=reader)
            thread.start()
            send_frame(a, doc)
            thread.join(timeout=10)
            assert received["doc"] == doc
        finally:
            a.close()
            b.close()


class TestKinds:
    def test_work_and_control_kinds_are_disjoint(self):
        assert not set(WORK_KINDS) & set(CONTROL_KINDS)
        assert set(REQUEST_KINDS) == set(WORK_KINDS) | set(CONTROL_KINDS)


def _valid_bench_doc():
    leg = {"requests": 10, "wall_s": 1.0, "throughput_rps": 10.0}
    latency_leg = dict(leg, p50_ms=10.0, p90_ms=20.0, p99_ms=30.0)
    return {
        "format": "repro-serve-bench/v1",
        "smoke": False,
        "config": {"jobs": 4, "queue_depth": 16, "clients": 8},
        "latency": {"mixed": dict(latency_leg)},
        "cache": {
            "cold": dict(leg),
            "warm": dict(leg, throughput_rps=40.0),
            "warm_over_cold": 4.0,
        },
        "conformance": {"requests": 6, "mismatches": 0},
        "backpressure": {"attempts": 5, "rejected": 5,
                         "retry_after_ms": 200.0},
        "soak": {"requests": 200, "errors": 0, "leaked_workers": 0,
                 "pin_files": 0},
    }


class TestServeBenchSchema:
    def test_valid_document_passes(self):
        doc = _valid_bench_doc()
        assert validate_serve_bench(doc) == []
        # The generic dispatcher must route on the format tag too.
        assert validate_trace(doc) == []

    def test_missing_section_is_reported(self):
        doc = _valid_bench_doc()
        del doc["soak"]
        assert validate_serve_bench(doc)

    def test_inverted_percentiles_are_reported(self):
        doc = _valid_bench_doc()
        doc["latency"]["mixed"]["p50_ms"] = 99.0
        doc["latency"]["mixed"]["p99_ms"] = 1.0
        assert any("p50" in e or "p99" in e
                   for e in validate_serve_bench(doc))

    def test_negative_counters_are_reported(self):
        doc = _valid_bench_doc()
        doc["soak"]["leaked_workers"] = -1
        assert validate_serve_bench(doc)

    def test_non_positive_ratio_is_reported(self):
        doc = _valid_bench_doc()
        doc["cache"]["warm_over_cold"] = 0
        assert validate_serve_bench(doc)

    def test_wrong_format_tag_is_reported(self):
        doc = _valid_bench_doc()
        doc["format"] = "repro-serve-bench/v2"
        assert validate_serve_bench(doc)

    def test_provenance_is_optional_but_checked(self):
        doc = _valid_bench_doc()
        doc["provenance"] = {"nproc": 2, "python": "3.12.1",
                             "git_revision": "abc", "repetitions": 1}
        assert validate_serve_bench(doc) == []
        del doc["provenance"]["repetitions"]
        doc["provenance"]["git_revision"] = 7
        errors = validate_serve_bench(doc)
        assert any("provenance.repetitions" in e for e in errors)
        assert any("provenance.git_revision" in e for e in errors)

    def test_committed_document_is_valid(self):
        """The committed BENCH_serve.json validates and says where it ran."""
        path = Path(__file__).resolve().parents[2] / "BENCH_serve.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_serve_bench(doc) == []
        assert doc["provenance"]["repetitions"] >= 1
        assert doc["conformance"]["mismatches"] == 0
