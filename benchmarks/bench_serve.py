"""Serving throughput, latency, and hygiene of the `repro serve` daemon.

The daemon (:mod:`repro.serve`) puts a concurrent front door on the
synthesis flow: requests are admitted through a bounded queue, executed
on a persistent worker pool with warm per-worker state, and answered
with responses that must be **byte-identical** to direct library calls.
This benchmark measures each of those claims:

* **latency leg** — N concurrent clients stream a mixed request load
  (estimates, system synthesis, fleet runs) at the daemon; per-request
  latency is reported as p50/p90/p99 plus aggregate throughput;
* **cache leg** — the same synthesize requests against a cold and then a
  warm shared artifact cache; ``warm_over_cold`` is the throughput ratio
  (gated >= 3x — a served cache hit must skip synthesis, not re-run it);
* **conformance leg** — served responses compared field-for-field
  (C sources byte-for-byte) against direct
  :func:`repro.flow.build_system` / module-artifact calls;
* **backpressure leg** — a jobs=1, queue-depth-1 daemon saturated with a
  slow request must reject the overflow deterministically with a
  ``retry_after_ms`` hint;
* **soak leg** — hundreds of requests through one daemon, then shutdown:
  zero errors, zero leaked worker processes, zero stale cache pin files.

Two entry points:

* **pytest** (``pytest benchmarks/bench_serve.py``) — smoke-sized run of
  every leg with the assertions above (marked ``timing``);
* **report script** (``python benchmarks/bench_serve.py --json
  BENCH_serve.json``) — the machine-readable ``repro-serve-bench/v1``
  document the serve CI job feeds ``repro bench-history --check``
  (tracked metrics: ``serve.cache.warm_over_cold``,
  ``serve.conformance.mismatches``, ``serve.soak.leaked_workers``,
  ``serve.soak.pin_files``).

Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``): fewer clients,
fewer requests per leg.
"""

import math
import os
import shutil
import sys
import tempfile
import threading
import time

import pytest

from repro.obs import SERVE_BENCH_FORMAT
from repro.serve import ServeClient, ServeConfig, serve_in_thread

if __name__ == "__main__":  # script mode runs from anywhere
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_report
from provenance import bench_provenance

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Full-mode acceptance gate: warm-cache serving throughput over cold.
MIN_WARM_OVER_COLD = 3.0

_DASH_MACHINES = ("wheel_filter", "speedo", "odometer", "tacho")


def _sizes(smoke):
    if smoke:
        return {"jobs": 2, "queue_depth": 8, "clients": 4,
                "requests_per_client": 3, "cache_rounds": 2,
                "soak_requests": 40, "conformance_extra": 0}
    return {"jobs": 4, "queue_depth": 16, "clients": 8,
            "requests_per_client": 5, "cache_rounds": 3,
            "soak_requests": 200, "conformance_extra": 4}


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[index]


def _leg(samples, wall_s):
    return {
        "requests": len(samples),
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(len(samples) / wall_s, 3) if wall_s else 0.0,
        "p50_ms": round(_percentile(samples, 50), 3),
        "p90_ms": round(_percentile(samples, 90), 3),
        "p99_ms": round(_percentile(samples, 99), 3),
    }


def _client_mix(index, count):
    """The request stream of one latency-leg client (deterministic)."""
    mix = [
        ("estimate", {"app": "dashboard",
                      "machine": _DASH_MACHINES[index % len(_DASH_MACHINES)]}),
        ("synthesize", {"app": "abp"}),
        ("estimate", {"app": "shock", "machine": "actuator"}),
        ("fleet", {"app": "abp", "instances": 16, "steps": 50,
                   "seed": index}),
        ("estimate", {"app": "dashboard",
                      "machine": _DASH_MACHINES[(index + 1) % len(_DASH_MACHINES)]}),
    ]
    return mix[:count]


def _latency_leg(sizes, cache_dir):
    config = ServeConfig(
        jobs=sizes["jobs"], queue_depth=sizes["queue_depth"],
        cache_dir=cache_dir,
    )
    samples = []
    errors = []
    lock = threading.Lock()

    def client(index):
        with ServeClient(port=handle.port) as c:
            for kind, params in _client_mix(
                index, sizes["requests_per_client"]
            ):
                start = time.perf_counter()
                response = c.request(kind, params)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                with lock:
                    if response.get("status") != "ok":
                        errors.append(response.get("error"))
                    else:
                        samples.append(elapsed_ms)

    with serve_in_thread(config) as handle:
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(sizes["clients"])
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"latency leg saw errors: {errors[:3]}")
    return {"mixed": _leg(samples, wall)}


def _cache_leg(sizes):
    cache_dir = tempfile.mkdtemp(prefix="bench-serve-cache-")
    config = ServeConfig(jobs=1, queue_depth=4, cache_dir=cache_dir)
    try:
        with serve_in_thread(config) as handle:
            with ServeClient(port=handle.port) as c:
                def round_trip():
                    samples = []
                    start = time.perf_counter()
                    for app in ("abp", "shock", "dashboard")[
                        : sizes["cache_rounds"]
                    ]:
                        t0 = time.perf_counter()
                        c.request_or_raise("synthesize", {"app": app})
                        samples.append((time.perf_counter() - t0) * 1000.0)
                    return samples, time.perf_counter() - start

                cold_samples, cold_wall = round_trip()
                warm_samples, warm_wall = round_trip()
        cold = _leg(cold_samples, cold_wall)
        warm = _leg(warm_samples, warm_wall)
        ratio = (
            warm["throughput_rps"] / cold["throughput_rps"]
            if cold["throughput_rps"] else 0.0
        )
        # The percentile fields are for the latency leg; the history gate
        # only tracks the ratio, so keep the plain leg shape here.
        for leg in (cold, warm):
            for key in ("p50_ms", "p90_ms", "p99_ms"):
                leg.pop(key)
        return {"cold": cold, "warm": warm,
                "warm_over_cold": round(ratio, 2)}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _direct_synthesize(app):
    """What the serve worker computes, called directly in-process."""
    from repro.apps import abp_network, dashboard_network, shock_network
    from repro.flow import build_system
    from repro.target import K11

    network = {"abp": abp_network, "dashboard": dashboard_network,
               "shock": shock_network}[app]()
    build = build_system(network, profile=K11, jobs=1)
    return network, build


def _direct_estimate(app, machine_name):
    from repro.estimation import calibrate
    from repro.pipeline import build_module_artifacts, synthesis_options
    from repro.target import K11

    network, _ = _resolve_app(app)
    machine = next(m for m in network.machines if m.name == machine_name)
    cost = calibrate(K11)
    options = synthesis_options(scheme="sift", params=cost)
    artifacts, _result = build_module_artifacts(machine, options, K11, cost)
    return artifacts


def _resolve_app(app):
    from repro.apps import abp_network, dashboard_network, shock_network

    factory = {"abp": abp_network, "dashboard": dashboard_network,
               "shock": shock_network}[app]
    return factory(), factory


def _conformance_leg(sizes, cache_dir):
    """Served responses must match direct library calls byte for byte."""
    config = ServeConfig(jobs=sizes["jobs"], queue_depth=sizes["queue_depth"],
                         cache_dir=cache_dir)
    mismatches = 0
    requests = 0
    checks = [("synthesize", "abp"), ("synthesize", "shock")]
    checks += [("estimate", ("dashboard", name)) for name in _DASH_MACHINES]
    checks = checks[: len(checks) - (0 if sizes["conformance_extra"]
                                     else 2)]
    with serve_in_thread(config) as handle:
        with ServeClient(port=handle.port) as c:
            for kind, target in checks:
                requests += 1
                if kind == "synthesize":
                    response = c.request_or_raise(
                        "synthesize", {"app": target}
                    )["result"]
                    _, build = _direct_synthesize(target)
                    served = {
                        name: module["c_source"]
                        for name, module in response["modules"].items()
                    }
                    direct = {
                        name: module.c_source
                        for name, module in build.modules.items()
                    }
                    if served != direct:
                        mismatches += 1
                    if response["rtos_source"] != build.rtos_source:
                        mismatches += 1
                    if response["report"] != build.report():
                        mismatches += 1
                else:
                    app, machine = target
                    response = c.request_or_raise(
                        "estimate", {"app": app, "machine": machine}
                    )["result"]
                    artifacts = _direct_estimate(app, machine)
                    if response["c_source"] != artifacts.c_source:
                        mismatches += 1
                    direct_estimate = {
                        "code_size": artifacts.estimate.code_size,
                        "min_cycles": artifacts.estimate.min_cycles,
                        "max_cycles": artifacts.estimate.max_cycles,
                    }
                    if response["estimate"] != direct_estimate:
                        mismatches += 1
    return {"requests": requests, "mismatches": mismatches}


def _backpressure_leg():
    config = ServeConfig(jobs=1, queue_depth=1, trace_requests=False)
    attempts = 0
    rejected = 0
    retry_after = 0.0
    with serve_in_thread(config) as handle:
        blocker = ServeClient(port=handle.port)
        control = ServeClient(port=handle.port)
        results = []

        def slow():
            results.append(blocker.request("sleep", {"seconds": 2.0}))

        thread = threading.Thread(target=slow)
        thread.start()
        # Deterministic saturation: wait until the slow request occupies
        # the one worker, then fill the one queue slot.
        deadline = time.time() + 10.0
        while control.stats()["server"]["active"] != 1:
            if time.time() > deadline:
                raise RuntimeError("slow request never became active")
            time.sleep(0.01)
        filler = ServeClient(port=handle.port)
        filler_results = []
        filler_thread = threading.Thread(
            target=lambda: filler_results.append(
                filler.request("sleep", {"seconds": 0.0})
            )
        )
        filler_thread.start()
        while control.stats()["server"]["queued"] != 1:
            if time.time() > deadline:
                raise RuntimeError("queue slot never filled")
            time.sleep(0.01)
        # Every further attempt must bounce until capacity frees up.
        for _ in range(5):
            attempts += 1
            response = control.request("sleep", {"seconds": 0.0})
            if response["status"] == "rejected":
                rejected += 1
                retry_after = max(retry_after, response["retry_after_ms"])
        thread.join()
        filler_thread.join()
        control.shutdown()
        for client in (blocker, control, filler):
            client.close()
    return {"attempts": attempts, "rejected": rejected,
            "retry_after_ms": round(retry_after, 3)}


def _soak_leg(sizes):
    cache_dir = tempfile.mkdtemp(prefix="bench-serve-soak-")
    config = ServeConfig(jobs=2, queue_depth=8, cache_dir=cache_dir,
                         trace_requests=False)
    errors = 0
    try:
        handle = serve_in_thread(config)
        worker_pids = list(handle.server.worker_pids)
        total = sizes["soak_requests"]
        per_client = total // 4
        lock = threading.Lock()
        counts = {"errors": 0, "done": 0}

        def client(index):
            nonlocal errors
            with ServeClient(port=handle.port) as c:
                for i in range(per_client):
                    kind, params = [
                        ("estimate", {"app": "dashboard",
                                      "machine": _DASH_MACHINES[
                                          (index + i) % len(_DASH_MACHINES)
                                      ]}),
                        ("sleep", {"seconds": 0.0}),
                        ("fleet", {"app": "abp", "instances": 4,
                                   "steps": 10, "seed": i}),
                        ("sleep", {"seconds": 0.0}),
                    ][i % 4]
                    response = c.request(kind, params)
                    with lock:
                        counts["done"] += 1
                        if response.get("status") != "ok":
                            counts["errors"] += 1

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        errors = counts["errors"]
        with ServeClient(port=handle.port) as c:
            c.shutdown()
        handle.stop()
        leaked = 0
        for pid in worker_pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            except OSError:
                pass
            leaked += 1
        from repro.pipeline import ArtifactCache

        pins = len(ArtifactCache(cache_dir, shared=True).pin_files())
        return {"requests": counts["done"], "errors": errors,
                "leaked_workers": leaked, "pin_files": pins}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_report(smoke=False):
    sizes = _sizes(smoke)
    latency_cache = tempfile.mkdtemp(prefix="bench-serve-lat-")
    conformance_cache = tempfile.mkdtemp(prefix="bench-serve-conf-")
    try:
        doc = {
            "format": SERVE_BENCH_FORMAT,
            "smoke": smoke,
            "config": {
                "jobs": sizes["jobs"],
                "queue_depth": sizes["queue_depth"],
                "clients": sizes["clients"],
            },
            "latency": _latency_leg(sizes, latency_cache),
            "cache": _cache_leg(sizes),
            "conformance": _conformance_leg(sizes, conformance_cache),
            "backpressure": _backpressure_leg(),
            "soak": _soak_leg(sizes),
            # Every leg above runs once.
            "provenance": bench_provenance(repetitions=1),
        }
    finally:
        shutil.rmtree(latency_cache, ignore_errors=True)
        shutil.rmtree(conformance_cache, ignore_errors=True)
    return doc


def _report_lines(doc):
    from repro.obs import render_serve_bench

    return render_serve_bench(doc).splitlines()


@pytest.mark.timing
@pytest.mark.slow
def test_serve_bench_document_is_valid_and_honest():
    from repro.obs import validate_trace

    doc = run_report(smoke=True)
    errors = validate_trace(doc)
    assert errors == [], errors
    assert doc["conformance"]["mismatches"] == 0, doc["conformance"]
    assert doc["backpressure"]["rejected"] == doc["backpressure"]["attempts"]
    assert doc["soak"]["errors"] == 0, doc["soak"]
    assert doc["soak"]["leaked_workers"] == 0, doc["soak"]
    assert doc["soak"]["pin_files"] == 0, doc["soak"]
    # Wall-clock ratio, not absolute time: a warm cache must clearly beat
    # cold synthesis even on a loaded CI box.
    assert doc["cache"]["warm_over_cold"] > 1.5, doc["cache"]
    write_report("serve_bench", _report_lines(doc))


def main(argv=None):
    import argparse
    import json

    from repro.obs import assert_valid_trace, render_serve_bench

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default="BENCH_serve.json",
                        help="where to write the report document")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink workloads (or set REPRO_BENCH_SMOKE=1)")
    args = parser.parse_args(argv)
    smoke = args.smoke or SMOKE

    doc = run_report(smoke=smoke)
    assert_valid_trace(doc)
    with open(args.json, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    print(render_serve_bench(doc))
    failures = []
    if doc["conformance"]["mismatches"]:
        failures.append(
            f"{doc['conformance']['mismatches']} conformance mismatches"
        )
    if doc["backpressure"]["rejected"] != doc["backpressure"]["attempts"]:
        failures.append("saturated daemon accepted overflow requests")
    if doc["soak"]["errors"] or doc["soak"]["leaked_workers"] \
            or doc["soak"]["pin_files"]:
        failures.append(f"soak hygiene: {doc['soak']}")
    gate = MIN_WARM_OVER_COLD if not smoke else 1.5
    if doc["cache"]["warm_over_cold"] < gate:
        failures.append(
            f"warm/cold throughput {doc['cache']['warm_over_cold']}x "
            f"below {gate}x gate"
        )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
