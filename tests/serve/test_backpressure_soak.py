"""Backpressure determinism and long-haul hygiene of the daemon.

Backpressure: a ``jobs=1, queue_depth=1`` daemon holds at most one active
plus one queued work request.  With both slots provably occupied (polled
through the control-plane ``stats`` endpoint, which never queues), every
further work request must bounce with ``status: rejected`` and a
``retry_after_ms`` hint — and the daemon must recover to serving once the
slots drain.

Soak: ~200 requests from four concurrent clients through one daemon,
then a clean shutdown.  Afterwards: zero errors, zero surviving worker
processes, zero stale cache pin files, and counters that add up.
"""

import os
import threading
import time

import pytest

from repro.pipeline import ArtifactCache
from repro.serve import (
    STATUS_OK,
    STATUS_REJECTED,
    ServeClient,
    ServeConfig,
    serve_in_thread,
)


def _await(predicate, timeout=20.0, message="condition never held"):
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline:
            raise AssertionError(message)
        time.sleep(0.01)


class TestBackpressure:
    def test_saturated_daemon_rejects_deterministically(self):
        config = ServeConfig(jobs=1, queue_depth=1, trace_requests=False)
        with serve_in_thread(config) as handle:
            blocker = ServeClient(port=handle.port)
            control = ServeClient(port=handle.port)
            filler = ServeClient(port=handle.port)
            try:
                done = []
                slow = threading.Thread(
                    target=lambda: done.append(
                        blocker.request("sleep", {"seconds": 1.5})
                    )
                )
                slow.start()
                _await(
                    lambda: control.stats()["server"]["active"] == 1,
                    message="slow request never occupied the worker",
                )
                queued = []
                fill = threading.Thread(
                    target=lambda: queued.append(
                        filler.request("sleep", {"seconds": 0.0})
                    )
                )
                fill.start()
                _await(
                    lambda: control.stats()["server"]["queued"] == 1,
                    message="queue slot never filled",
                )

                # Both slots provably held: every attempt must bounce.
                for attempt in range(4):
                    response = control.request("sleep", {"seconds": 0.0})
                    assert response["status"] == STATUS_REJECTED, (
                        attempt, response,
                    )
                    assert response["retry_after_ms"] > 0

                slow.join()
                fill.join()
                assert done[0]["status"] == STATUS_OK
                assert queued[0]["status"] == STATUS_OK

                # Capacity freed: the daemon recovers to serving.
                recovered = control.request("sleep", {"seconds": 0.0})
                assert recovered["status"] == STATUS_OK
                stats = control.stats()["server"]
                assert stats["rejected"] == 4
            finally:
                for client in (blocker, control, filler):
                    client.close()

    def test_control_plane_never_queues(self):
        """ping/stats answer inline even while the one worker is busy."""
        config = ServeConfig(jobs=1, queue_depth=1, trace_requests=False)
        with serve_in_thread(config) as handle:
            blocker = ServeClient(port=handle.port)
            control = ServeClient(port=handle.port)
            try:
                thread = threading.Thread(
                    target=lambda: blocker.request("sleep", {"seconds": 1.0})
                )
                thread.start()
                _await(
                    lambda: control.stats()["server"]["active"] == 1,
                    message="worker never became busy",
                )
                start = time.perf_counter()
                pong = control.ping()
                elapsed = time.perf_counter() - start
                assert pong["status"] == STATUS_OK
                # Inline, not behind the 1s sleep.
                assert elapsed < 0.5
                thread.join()
            finally:
                blocker.close()
                control.close()

    def test_unknown_kind_is_an_error_not_a_crash(self):
        config = ServeConfig(jobs=1, queue_depth=2, trace_requests=False)
        with serve_in_thread(config) as handle:
            with ServeClient(port=handle.port) as c:
                response = c.request("transmogrify", {})
                assert response["status"] == "error"
                assert "transmogrify" in response["error"]
                # The connection and daemon survive the bad request.
                assert c.ping()["status"] == STATUS_OK

    def test_negative_fleet_steps_is_an_error(self):
        config = ServeConfig(jobs=1, queue_depth=2, trace_requests=False)
        with serve_in_thread(config) as handle:
            with ServeClient(port=handle.port) as c:
                response = c.request(
                    "fleet", {"app": "abp", "instances": 8, "steps": -5}
                )
                assert response["status"] == "error"
                assert "steps must not be negative" in response["error"]


@pytest.mark.slow
def test_soak_leaves_no_residue(tmp_path):
    cache_dir = str(tmp_path / "cache")
    config = ServeConfig(
        jobs=2, queue_depth=8, cache_dir=cache_dir, trace_requests=False
    )
    total = 200
    clients = 4
    per_client = total // clients
    counts = {"done": 0, "errors": []}
    lock = threading.Lock()

    handle = serve_in_thread(config)
    worker_pids = list(handle.server.worker_pids)
    assert len(worker_pids) == 2

    def client(index):
        with ServeClient(port=handle.port) as c:
            for i in range(per_client):
                kind, params = [
                    ("sleep", {"seconds": 0.0}),
                    ("estimate", {"app": "dashboard",
                                  "machine": "wheel_filter"}),
                    ("sleep", {"seconds": 0.0}),
                    ("estimate", {"app": "shock", "machine": "actuator"}),
                ][(index + i) % 4]
                response = c.request(kind, params)
                with lock:
                    counts["done"] += 1
                    if response.get("status") != STATUS_OK:
                        counts["errors"].append(response)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    with ServeClient(port=handle.port) as c:
        stats = c.stats()["server"]
        c.shutdown()
    handle.stop()

    assert counts["done"] == total
    assert counts["errors"] == []
    assert stats["served"] >= total

    # No leaked worker processes after shutdown.
    leaked = []
    for pid in worker_pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except OSError:
            pass
        leaked.append(pid)
    assert leaked == []

    # No stale in-flight pins: every request released its pins on exit.
    cache = ArtifactCache(cache_dir, shared=True)
    assert cache.pin_files() == []
    # The shared counters converged: two distinct estimates were computed
    # at most twice each (once per worker at worst), everything else hit.
    metrics = cache.shared_metrics()
    estimates = total // 2
    assert metrics["hits"] + metrics["misses"] == estimates
    assert metrics["misses"] <= 2 * len(worker_pids)
    assert metrics["hits"] >= estimates - 2 * len(worker_pids)
