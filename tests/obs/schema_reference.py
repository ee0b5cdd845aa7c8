"""Reference document validators and the campaign that checks the specs.

The library validates every document format with one rule engine and one
spec table per format (:mod:`repro.obs.schema`).  The code below, up to
the campaign, is the module it replaced, kept as written: nine
hand-written validators, each restating the same type, bound and
required-key checks.

The campaign builds one real document per format (the committed
``BENCH_*.json`` files, a corpus repro, freshly generated serial and
``--jobs 2`` build traces, a run trace, fuzz reports with shrunk failures
and without (``"repro": null``), a fuzz trace, a verify report and a
``bench-history --check`` document), mutates each with a seeded stream
of edits (values replaced, keys added and deleted, list items dropped
and duplicated, objects and lists emptied, numbers nudged, values
borrowed from elsewhere in the document), and requires both validators to agree on every mutant, with
two exceptions: the spec rejects a boolean standing for a number, which
the reference let through in some fields and not in others, and where
the reference raises (a ``root_span_id`` that cannot be hashed) the spec
must return errors.  Tier-1 runs a seeded slice; the whole campaign runs
as::

    PYTHONPATH=src python -m tests.obs.schema_reference
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.runtrace import RUN_EVENT_KINDS, RUN_TRACE_FORMAT

__all__ = [
    "validate_build_trace",
    "validate_run_trace",
    "validate_bdd_bench",
    "validate_sim_bench",
    "validate_serve_bench",
    "validate_bench_history",
    "validate_difftest_report",
    "validate_difftest_repro",
    "validate_verify_report",
    "validate_trace",
    "assert_valid_trace",
    "BUILD_TRACE_FORMAT",
    "BDD_BENCH_FORMAT",
    "SIM_BENCH_FORMAT",
    "SERVE_BENCH_FORMAT",
    "BENCH_HISTORY_FORMAT",
    "DIFFTEST_REPORT_FORMAT",
    "DIFFTEST_REPRO_FORMAT",
    "VERIFY_REPORT_FORMAT",
]

BUILD_TRACE_FORMAT = "repro-build-trace/v1"
_BUILD_EVENT_KINDS = ("pass", "cache", "stage")

BENCH_HISTORY_FORMAT = "repro-bench-history/v1"
_HISTORY_CHECK_STATUSES = ("ok", "fail", "missing")

DIFFTEST_REPORT_FORMAT = "repro-difftest/v1"
DIFFTEST_REPRO_FORMAT = "repro-difftest-repro/v1"
_DIFFTEST_LAYERS = (
    "reference", "bdd", "sgraph", "cgen", "isa", "analysis", "estimation",
)

VERIFY_REPORT_FORMAT = "repro-verify-report/v1"
_VERIFY_SEVERITIES = ("error", "warning", "info")
_VERIFY_LAYERS = ("network", "sgraph", "codegen", "verify", "verify-network")
_VERIFY_BOUND_FIELDS = ("code_size", "min_cycles", "max_cycles")

BDD_BENCH_FORMAT = "repro-bdd-bench/v2"
#: Deterministic per-scenario sift fields (counted, not timed — these must
#: reproduce exactly and are what the CI regression gate compares).
_BENCH_SIFT_COUNTERS = ("swaps", "swap_skips", "collects", "final_size")
#: Optional ``reactive`` section: summed over the example modules.
_BENCH_REACTIVE_COUNTERS = ("modules", "chi_size", "ite_misses", "peak_nodes")
#: v2 node-store section: memory footprint and complement-edge statistics.
#: Interpreter-dependent (sys.getsizeof) — reported, never gated.
_BENCH_STORE_FIELDS = (
    "allocated_slots",
    "allocated_nodes",
    "store_bytes",
    "bytes_per_node",
    "complemented_lo_edges",
    "complement_edge_share",
)

SIM_BENCH_FORMAT = "repro-sim-bench/v1"
#: Required throughput fields of one timed simulation leg (the scalar
#: baseline and every fleet backend report the same shape).
_SIM_LEG_FIELDS = ("reactions", "wall_s", "reactions_per_sec")

SERVE_BENCH_FORMAT = "repro-serve-bench/v1"
#: Latency percentiles every timed serving leg must report (ms).
_SERVE_PERCENTILES = ("p50_ms", "p90_ms", "p99_ms")

#: Per-kind required data fields of a run-trace event.
_RUN_REQUIRED_FIELDS = {
    "stimulus": ("event",),
    "dispatch": ("task",),
    "preempt": ("task", "by"),
    "resume": ("task",),
    "complete": ("task", "cycles"),
    "isr": ("event",),
    "isr_dispatch": ("task", "cycles"),
    "react": ("machine", "task", "fired", "consumed"),
    "emit": ("event", "by"),
    "lost": ("event", "task", "where"),
    "poll": ("events",),
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_hex(value: Any, width: int) -> bool:
    if not isinstance(value, str) or len(value) != width:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def _validate_span_links(doc: Dict[str, Any], events: List[Any]) -> List[str]:
    """Causal-link checks of a build trace carrying a ``trace_id``.

    Every event must carry a unique 16-hex ``span_id``; every
    ``parent_id`` must name another span in the document; exactly the
    root span (``root_span_id``) may be parentless; and the parent links
    must form a rooted, acyclic tree.
    """
    errors: List[str] = []
    if not _is_hex(doc.get("trace_id"), 32):
        errors.append("trace_id is not a 32-hex-char string")
    root = doc.get("root_span_id")
    if not _is_hex(root, 16):
        errors.append("root_span_id missing or not a 16-hex-char string")
    span_ids: Dict[str, int] = {}
    parents: Dict[str, Any] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            continue
        where = f"events[{i}]"
        span_id = event.get("span_id")
        if not _is_hex(span_id, 16):
            errors.append(f"{where}: span_id missing or not 16 hex chars")
            continue
        if span_id in span_ids:
            errors.append(
                f"{where}: span_id {span_id} duplicates "
                f"events[{span_ids[span_id]}]"
            )
            continue
        span_ids[span_id] = i
        parent_id = event.get("parent_id")
        if parent_id is None:
            if span_id != root:
                errors.append(f"{where}: non-root span {span_id} has no parent")
        elif not _is_hex(parent_id, 16):
            errors.append(f"{where}: parent_id is not 16 hex chars")
        else:
            parents[span_id] = parent_id
    if root is not None and root not in span_ids and isinstance(root, str):
        errors.append(f"root_span_id {root} names no event")
    for span_id, parent_id in parents.items():
        if parent_id not in span_ids:
            errors.append(
                f"span {span_id}: parent {parent_id} names no event"
            )
    # Cycle check over the parent pointers (a valid doc is a tree).
    state: Dict[str, int] = {}  # 1 = on path, 2 = done
    for start in parents:
        if state.get(start):
            continue
        path = []
        node = start
        while node in parents and state.get(node) is None:
            state[node] = 1
            path.append(node)
            node = parents[node]
            if state.get(node) == 1:
                errors.append(f"span link cycle through {node}")
                break
        for seen in path:
            state[seen] = 2
    return errors


def validate_build_trace(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-build-trace/v1`` document."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != BUILD_TRACE_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {BUILD_TRACE_FORMAT!r}")
    events = doc.get("events")
    if not isinstance(events, list):
        errors.append("'events' missing or not a list")
        events = []
    for i, event in enumerate(events):
        where = f"events[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("module", "name", "kind"):
            if not isinstance(event.get(key), str):
                errors.append(f"{where}: missing string field {key!r}")
        kind = event.get("kind")
        if kind not in _BUILD_EVENT_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
        if not isinstance(event.get("wall_ms", 0.0), (int, float)):
            errors.append(f"{where}: wall_ms is not a number")
        if kind == "cache" and event.get("status") not in ("hit", "miss"):
            errors.append(f"{where}: cache event status "
                          f"{event.get('status')!r} not hit/miss")
    if "trace_id" in doc or "root_span_id" in doc:
        errors.extend(_validate_span_links(doc, events))
    metrics = doc.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            errors.append("'metrics' is not an object")
        else:
            for key, value in metrics.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    errors.append(f"metrics[{key!r}]: not a number")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("'summary' missing or not an object")
    elif isinstance(events, list) and summary.get("events") != len(events):
        errors.append(
            f"summary.events={summary.get('events')} but "
            f"{len(events)} events present"
        )
    return errors


def validate_run_trace(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-run-trace/v1`` document."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != RUN_TRACE_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {RUN_TRACE_FORMAT!r}")
    for key in ("system", "policy"):
        if not isinstance(doc.get(key), str):
            errors.append(f"'{key}' missing or not a string")
    events = doc.get("events")
    if not isinstance(events, list):
        errors.append("'events' missing or not a list")
        events = []
    last_t = 0
    for i, event in enumerate(events):
        where = f"events[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        t = event.get("t")
        if not _is_int(t) or t < 0:
            errors.append(f"{where}: 't' must be a non-negative integer")
        else:
            if t < last_t:
                errors.append(
                    f"{where}: timestamp {t} goes backwards (previous {last_t})"
                )
            last_t = t
        kind = event.get("kind")
        if kind not in RUN_EVENT_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        for field in _RUN_REQUIRED_FIELDS[kind]:
            if field not in event:
                errors.append(f"{where}: {kind} event missing {field!r}")
        if kind == "lost" and event.get("where") not in ("flags", "pending"):
            errors.append(f"{where}: lost event 'where' must be "
                          f"flags/pending, got {event.get('where')!r}")
    if not isinstance(doc.get("stats"), dict):
        errors.append("'stats' missing or not an object")
    probes = doc.get("probes")
    if not isinstance(probes, list):
        errors.append("'probes' missing or not a list")
    else:
        for i, probe in enumerate(probes):
            if not isinstance(probe, dict):
                errors.append(f"probes[{i}]: not an object")
                continue
            for key in ("source", "sink", "samples"):
                if key not in probe:
                    errors.append(f"probes[{i}]: missing {key!r}")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("'summary' missing or not an object")
    elif isinstance(events, list) and summary.get("events") != len(events):
        errors.append(
            f"summary.events={summary.get('events')} but "
            f"{len(events)} events present"
        )
    return errors


def _bench_scenario_errors(
    where: str, sc: Any, counters: Tuple[str, ...]
) -> List[str]:
    """Errors of one timed bench scenario: wall, counters, baseline."""
    if not isinstance(sc, dict):
        return [f"{where}: not an object"]
    errors: List[str] = []
    if not isinstance(sc.get("wall_s"), (int, float)) or sc["wall_s"] < 0:
        errors.append(f"{where}: wall_s must be a non-negative number")
    for field in counters:
        if not _is_int(sc.get(field)) or sc[field] < 0:
            errors.append(f"{where}: {field} must be a non-negative integer")
    baseline = sc.get("baseline")
    if baseline is not None:
        if not isinstance(baseline, dict):
            errors.append(f"{where}: baseline is not an object")
        else:
            if not isinstance(baseline.get("wall_s"), (int, float)):
                errors.append(f"{where}: baseline.wall_s must be a number")
            if not isinstance(sc.get("speedup"), (int, float)):
                errors.append(f"{where}: baseline present but no speedup")
    # Optional: the same scenario timed on the Python manager, the engine
    # without a compiler, interleaved with the native runs of wall_s.
    if "python_wall_s" in sc or "engine_speedup" in sc:
        python_wall = sc.get("python_wall_s")
        if not isinstance(python_wall, (int, float)) or python_wall < 0:
            errors.append(f"{where}: python_wall_s must be a non-negative number")
        if not isinstance(sc.get("engine_speedup"), (int, float)):
            errors.append(f"{where}: python_wall_s present but no engine_speedup")
    return errors


def _provenance_errors(
    doc: Dict[str, Any], counts: Tuple[str, ...], optional: Tuple[str, ...] = ()
) -> List[str]:
    """Errors of a bench document's optional ``provenance`` block: host
    CPUs, Python version, git revision and its repetition ``counts``."""
    provenance = doc.get("provenance")
    if provenance is None:
        return []
    if not isinstance(provenance, dict):
        return ["'provenance' is not an object"]
    errors = []
    present = tuple(field for field in optional if field in provenance)
    for field in ("nproc",) + counts + present:
        if not _is_int(provenance.get(field)) or provenance[field] < 1:
            errors.append(f"provenance.{field} must be a positive integer")
    if not isinstance(provenance.get("python"), str):
        errors.append("provenance.python must be a string")
    revision = provenance.get("git_revision")
    if revision is not None and not isinstance(revision, str):
        errors.append("provenance.git_revision must be a string or null")
    return errors


def validate_bdd_bench(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-bdd-bench/v2`` report (BENCH_bdd.json).

    The ``reactive`` and ``provenance`` sections, and provenance's
    ``runs``, are optional, so reports written before they existed still
    validate; when present they are checked.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != BDD_BENCH_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {BDD_BENCH_FORMAT!r}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append("'smoke' missing or not a boolean")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict):
        errors.append("'workloads' missing or not an object")
        workloads = {}
    for name, wl in workloads.items():
        where = f"workloads[{name!r}]"
        if not isinstance(wl, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(wl.get("wall_s"), (int, float)) or wl["wall_s"] < 0:
            errors.append(f"{where}: wall_s must be a non-negative number")
        if not _is_int(wl.get("ops")) or wl["ops"] <= 0:
            errors.append(f"{where}: ops must be a positive integer")
        if not isinstance(wl.get("ops_per_sec"), (int, float)):
            errors.append(f"{where}: ops_per_sec must be a number")
    sift = doc.get("sift")
    if not isinstance(sift, dict) or not sift:
        errors.append("'sift' missing, not an object, or empty")
        sift = {}
    for name, sc in sift.items():
        errors.extend(
            _bench_scenario_errors(f"sift[{name!r}]", sc, _BENCH_SIFT_COUNTERS)
        )
    if "reactive" in doc:
        errors.extend(_bench_scenario_errors(
            "reactive", doc["reactive"], _BENCH_REACTIVE_COUNTERS
        ))
    kernel = doc.get("kernel", {})
    if not isinstance(kernel, dict):
        errors.append("'kernel' is not an object")
        kernel = {}
    # Optional: steps timed on the native kernel and the Python manager.
    for name, leg in kernel.items():
        where = f"kernel[{name!r}]"
        if not isinstance(leg, dict):
            errors.append(f"{where}: not an object")
            continue
        for field in ("wall_s", "python_wall_s", "kernel_speedup"):
            value = leg.get(field)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                errors.append(f"{where}: {field} must be a non-negative number")
    errors.extend(_provenance_errors(doc, ("best_of",), ("runs",)))
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append("'counters' missing or not an object")
    else:
        for key, value in counters.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"counters[{key!r}]: not a number")
    store = doc.get("store")
    if not isinstance(store, dict):
        errors.append("'store' missing or not an object")
    else:
        for field in _BENCH_STORE_FIELDS:
            value = store.get(field)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                errors.append(f"store.{field} must be a non-negative number")
        share = store.get("complement_edge_share")
        if isinstance(share, (int, float)) and not 0 <= share <= 1:
            errors.append("store.complement_edge_share must be in [0, 1]")
    return errors


def _validate_sim_leg(where: str, leg: Any, errors: List[str]) -> None:
    if not isinstance(leg, dict):
        errors.append(f"{where}: not an object")
        return
    if not _is_int(leg.get("reactions")) or leg["reactions"] < 0:
        errors.append(f"{where}: reactions must be a non-negative integer")
    if not isinstance(leg.get("wall_s"), (int, float)) or leg["wall_s"] < 0:
        errors.append(f"{where}: wall_s must be a non-negative number")
    if not isinstance(leg.get("reactions_per_sec"), (int, float)):
        errors.append(f"{where}: reactions_per_sec must be a number")


def validate_sim_bench(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-sim-bench/v1`` report (BENCH_sim.json).

    ``provenance`` and ``kernel_compile`` (the compile wall of the
    network's kernels) are optional and checked when present.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != SIM_BENCH_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {SIM_BENCH_FORMAT!r}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append("'smoke' missing or not a boolean")
    if not isinstance(doc.get("network"), str):
        errors.append("'network' missing or not a string")
    for key in ("instances", "steps", "kernel_ops"):
        if not _is_int(doc.get(key)) or doc.get(key, 0) <= 0:
            errors.append(f"'{key}' must be a positive integer")
    _validate_sim_leg("scalar", doc.get("scalar"), errors)
    backends = doc.get("backends")
    if not isinstance(backends, dict) or not backends:
        errors.append("'backends' missing, not an object, or empty")
        backends = {}
    for name, leg in backends.items():
        where = f"backends[{name!r}]"
        _validate_sim_leg(where, leg, errors)
        if not isinstance(leg, dict):
            continue
        if not isinstance(leg.get("speedup"), (int, float)):
            errors.append(f"{where}: speedup must be a number")
        engine_speedup = leg.get("engine_speedup", 1.0)
        if not isinstance(engine_speedup, (int, float)) or engine_speedup <= 0:
            errors.append(f"{where}: engine_speedup must be a positive number")
    crosscheck = doc.get("crosscheck")
    if not isinstance(crosscheck, dict):
        errors.append("'crosscheck' missing or not an object")
    else:
        for key in ("lanes", "mismatches"):
            if not _is_int(crosscheck.get(key)) or crosscheck.get(key, 0) < 0:
                errors.append(
                    f"crosscheck.{key} must be a non-negative integer"
                )
    determinism = doc.get("determinism")
    if not isinstance(determinism, dict):
        errors.append("'determinism' missing or not an object")
    else:
        for key in ("jobs1_digest", "jobs4_digest"):
            if not isinstance(determinism.get(key), str):
                errors.append(f"determinism.{key} missing or not a string")
        if not isinstance(determinism.get("match"), bool):
            errors.append("determinism.match missing or not a boolean")
    compile_ = doc.get("kernel_compile")
    if compile_ is not None:
        if not isinstance(compile_, dict):
            errors.append("'kernel_compile' is not an object")
        else:
            wall = compile_.get("wall_s")
            if not isinstance(wall, (int, float)) or wall < 0:
                errors.append("kernel_compile.wall_s must be a non-negative number")
    errors.extend(
        _provenance_errors(doc, ("repetitions",), ("best_of", "rounds"))
    )
    return errors


def _validate_serve_leg(where: str, leg: Any, errors: List[str],
                        percentiles: bool = False) -> None:
    if not isinstance(leg, dict):
        errors.append(f"{where}: not an object")
        return
    if not _is_int(leg.get("requests")) or leg["requests"] <= 0:
        errors.append(f"{where}: requests must be a positive integer")
    if not isinstance(leg.get("wall_s"), (int, float)) or leg["wall_s"] < 0:
        errors.append(f"{where}: wall_s must be a non-negative number")
    if not isinstance(leg.get("throughput_rps"), (int, float)):
        errors.append(f"{where}: throughput_rps must be a number")
    if percentiles:
        for field in _SERVE_PERCENTILES:
            value = leg.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(
                    f"{where}: {field} must be a non-negative number"
                )
        p50, p99 = leg.get("p50_ms"), leg.get("p99_ms")
        if (
            isinstance(p50, (int, float))
            and isinstance(p99, (int, float))
            and p50 > p99
        ):
            errors.append(f"{where}: p50_ms > p99_ms")


def validate_serve_bench(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-serve-bench/v1`` report (BENCH_serve.json).

    ``provenance`` is optional and checked when present.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != SERVE_BENCH_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {SERVE_BENCH_FORMAT!r}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append("'smoke' missing or not a boolean")
    config = doc.get("config")
    if not isinstance(config, dict):
        errors.append("'config' missing or not an object")
        config = {}
    for key in ("jobs", "queue_depth", "clients"):
        if not _is_int(config.get(key)) or config.get(key, 0) <= 0:
            errors.append(f"config.{key} must be a positive integer")
    latency = doc.get("latency")
    if not isinstance(latency, dict) or not latency:
        errors.append("'latency' missing, not an object, or empty")
        latency = {}
    for name, leg in latency.items():
        _validate_serve_leg(f"latency[{name!r}]", leg, errors,
                            percentiles=True)
    cache = doc.get("cache")
    if not isinstance(cache, dict):
        errors.append("'cache' missing or not an object")
    else:
        _validate_serve_leg("cache.cold", cache.get("cold"), errors)
        _validate_serve_leg("cache.warm", cache.get("warm"), errors)
        ratio = cache.get("warm_over_cold")
        if not isinstance(ratio, (int, float)) or ratio <= 0:
            errors.append("cache.warm_over_cold must be a positive number")
    conformance = doc.get("conformance")
    if not isinstance(conformance, dict):
        errors.append("'conformance' missing or not an object")
    else:
        if not _is_int(conformance.get("requests")) or \
                conformance.get("requests", 0) <= 0:
            errors.append("conformance.requests must be a positive integer")
        if not _is_int(conformance.get("mismatches")) or \
                conformance.get("mismatches", 0) < 0:
            errors.append(
                "conformance.mismatches must be a non-negative integer"
            )
    backpressure = doc.get("backpressure")
    if not isinstance(backpressure, dict):
        errors.append("'backpressure' missing or not an object")
    else:
        if not _is_int(backpressure.get("attempts")) or \
                backpressure.get("attempts", 0) <= 0:
            errors.append("backpressure.attempts must be a positive integer")
        if not _is_int(backpressure.get("rejected")) or \
                backpressure.get("rejected", 0) < 0:
            errors.append(
                "backpressure.rejected must be a non-negative integer"
            )
        retry = backpressure.get("retry_after_ms")
        if not isinstance(retry, (int, float)) or retry < 0:
            errors.append(
                "backpressure.retry_after_ms must be a non-negative number"
            )
    soak = doc.get("soak")
    if not isinstance(soak, dict):
        errors.append("'soak' missing or not an object")
    else:
        if not _is_int(soak.get("requests")) or soak.get("requests", 0) <= 0:
            errors.append("soak.requests must be a positive integer")
        for key in ("errors", "leaked_workers", "pin_files"):
            if not _is_int(soak.get(key)) or soak.get(key, 0) < 0:
                errors.append(f"soak.{key} must be a non-negative integer")
    errors.extend(_provenance_errors(doc, ("repetitions",)))
    return errors


def validate_bench_history(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-bench-history/v1`` trend document."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != BENCH_HISTORY_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {BENCH_HISTORY_FORMAT!r}")
    sources = doc.get("sources")
    if not isinstance(sources, list) or not all(
        isinstance(s, str) for s in sources or []
    ):
        errors.append("'sources' missing or not a list of strings")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("'metrics' missing or not an object")
        metrics = {}
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"metrics[{key!r}]: not a number")
    checks = doc.get("checks")
    failures = 0
    if checks is not None:
        if not isinstance(checks, list):
            errors.append("'checks' is not a list")
            checks = []
        for i, check in enumerate(checks):
            where = f"checks[{i}]"
            if not isinstance(check, dict):
                errors.append(f"{where}: not an object")
                continue
            if not isinstance(check.get("metric"), str):
                errors.append(f"{where}: 'metric' missing or not a string")
            status = check.get("status")
            if status not in _HISTORY_CHECK_STATUSES:
                errors.append(f"{where}: unknown status {status!r}")
            elif status != "ok":
                # "missing" counts as failing: a benchmark silently
                # dropping out of CI must trip the gate.
                failures += 1
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("'summary' missing or not an object")
    else:
        if summary.get("metrics") != len(metrics):
            errors.append(
                f"summary.metrics={summary.get('metrics')} but "
                f"{len(metrics)} metrics present"
            )
        if checks is not None and summary.get("failures") != failures:
            errors.append(
                f"summary.failures={summary.get('failures')} but "
                f"{failures} failing checks present"
            )
    return errors


def validate_difftest_report(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-difftest/v1`` fuzz-campaign report."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != DIFFTEST_REPORT_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {DIFFTEST_REPORT_FORMAT!r}")
    if not _is_int(doc.get("seed")):
        errors.append("'seed' missing or not an integer")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("'summary' missing or not an object")
        summary = {}
    for key in ("cases", "reactions", "failures", "skipped"):
        if not _is_int(summary.get(key)) or summary.get(key, 0) < 0:
            errors.append(f"summary.{key} must be a non-negative integer")
    by_layer = summary.get("mismatches_by_layer", {})
    if not isinstance(by_layer, dict):
        errors.append("summary.mismatches_by_layer is not an object")
    else:
        for layer in by_layer:
            if layer not in _DIFFTEST_LAYERS:
                errors.append(f"summary.mismatches_by_layer: unknown layer "
                              f"{layer!r}")
    failures = doc.get("failures")
    if not isinstance(failures, list):
        errors.append("'failures' missing or not a list")
        failures = []
    if _is_int(summary.get("failures")) and summary["failures"] != len(failures):
        errors.append(
            f"summary.failures={summary['failures']} but "
            f"{len(failures)} failure entries present"
        )
    for i, failure in enumerate(failures):
        where = f"failures[{i}]"
        if not isinstance(failure, dict):
            errors.append(f"{where}: not an object")
            continue
        if not _is_int(failure.get("index")):
            errors.append(f"{where}: 'index' missing or not an integer")
        mismatches = failure.get("mismatches")
        if not isinstance(mismatches, list) or not mismatches:
            errors.append(f"{where}: 'mismatches' missing, not a list, or empty")
            mismatches = []
        for j, mismatch in enumerate(mismatches):
            if not isinstance(mismatch, dict):
                errors.append(f"{where}.mismatches[{j}]: not an object")
                continue
            if mismatch.get("layer") not in _DIFFTEST_LAYERS:
                errors.append(f"{where}.mismatches[{j}]: unknown layer "
                              f"{mismatch.get('layer')!r}")
            if not isinstance(mismatch.get("kind"), str):
                errors.append(f"{where}.mismatches[{j}]: missing string 'kind'")
        repro = failure.get("repro")
        if repro is not None:
            errors.extend(
                f"{where}.repro: {e}" for e in validate_difftest_repro(repro)
            )
    return errors


def validate_difftest_repro(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-difftest-repro/v1`` replay document."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != DIFFTEST_REPRO_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {DIFFTEST_REPRO_FORMAT!r}")
    cfsm = doc.get("cfsm")
    if not isinstance(cfsm, dict):
        errors.append("'cfsm' missing or not an object")
        cfsm = {}
    if not isinstance(cfsm.get("name"), str):
        errors.append("cfsm.name missing or not a string")
    for key in ("inputs", "outputs", "state_vars", "transitions"):
        if not isinstance(cfsm.get(key), list):
            errors.append(f"cfsm.{key} missing or not a list")
    snapshots = doc.get("snapshots")
    if not isinstance(snapshots, list) or not snapshots:
        errors.append("'snapshots' missing, not a list, or empty")
        snapshots = []
    for i, snap in enumerate(snapshots):
        if not isinstance(snap, dict):
            errors.append(f"snapshots[{i}]: not an object")
            continue
        if not isinstance(snap.get("state"), dict):
            errors.append(f"snapshots[{i}]: 'state' missing or not an object")
        if not isinstance(snap.get("present"), list):
            errors.append(f"snapshots[{i}]: 'present' missing or not a list")
        if not isinstance(snap.get("values"), dict):
            errors.append(f"snapshots[{i}]: 'values' missing or not an object")
    failure = doc.get("failure")
    if not isinstance(failure, dict):
        errors.append("'failure' missing or not an object")
    elif failure.get("layer") not in _DIFFTEST_LAYERS:
        errors.append(f"failure.layer {failure.get('layer')!r} unknown")
    if not isinstance(doc.get("origin"), dict):
        errors.append("'origin' missing or not an object")
    return errors


def validate_verify_report(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro-verify-report/v1`` document."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != VERIFY_REPORT_FORMAT:
        errors.append(f"format is {doc.get('format')!r}, "
                      f"expected {VERIFY_REPORT_FORMAT!r}")
    for key in ("design", "scheme", "profile"):
        if not isinstance(doc.get(key), str):
            errors.append(f"'{key}' missing or not a string")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("'summary' missing or not an object")
        summary = {}
    for key in ("errors", "warnings", "infos", "exit_code", "modules"):
        if not _is_int(summary.get(key)) or summary.get(key, 0) < 0:
            errors.append(f"summary.{key} must be a non-negative integer")
    modules = doc.get("modules")
    if not isinstance(modules, list):
        errors.append("'modules' missing or not a list")
        modules = []
    if _is_int(summary.get("modules")) and summary["modules"] != len(modules):
        errors.append(
            f"summary.modules={summary['modules']} but "
            f"{len(modules)} module entries present"
        )
    for i, module in enumerate(modules):
        where = f"modules[{i}]"
        if not isinstance(module, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(module.get("module"), str):
            errors.append(f"{where}: 'module' missing or not a string")
        for table in ("estimate", "measured"):
            figures = module.get(table)
            if not isinstance(figures, dict):
                errors.append(f"{where}: '{table}' missing or not an object")
                continue
            for field in _VERIFY_BOUND_FIELDS:
                if not _is_int(figures.get(field)):
                    errors.append(f"{where}.{table}.{field} must be an integer")
            if (
                _is_int(figures.get("min_cycles"))
                and _is_int(figures.get("max_cycles"))
                and figures["min_cycles"] > figures["max_cycles"]
            ):
                errors.append(f"{where}.{table}: min_cycles > max_cycles")
    diagnostics = doc.get("diagnostics")
    if not isinstance(diagnostics, list):
        errors.append("'diagnostics' missing or not a list")
        diagnostics = []
    counted = {"error": 0, "warning": 0, "info": 0}
    for i, diag in enumerate(diagnostics):
        where = f"diagnostics[{i}]"
        if not isinstance(diag, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("check", "severity", "layer", "artifact", "message"):
            if not isinstance(diag.get(key), str):
                errors.append(f"{where}: missing string field {key!r}")
        severity = diag.get("severity")
        if severity not in _VERIFY_SEVERITIES:
            errors.append(f"{where}: unknown severity {severity!r}")
        else:
            counted[severity] += 1
        if diag.get("layer") not in _VERIFY_LAYERS:
            errors.append(f"{where}: unknown layer {diag.get('layer')!r}")
    for severity, key in (("error", "errors"), ("warning", "warnings"),
                          ("info", "infos")):
        if _is_int(summary.get(key)) and summary[key] != counted[severity]:
            errors.append(
                f"summary.{key}={summary[key]} but {counted[severity]} "
                f"{severity} diagnostics present"
            )
    return errors


def validate_trace(doc: Dict[str, Any]) -> List[str]:
    """Dispatch on the document's ``format`` field."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    fmt = doc.get("format")
    if fmt == BUILD_TRACE_FORMAT:
        return validate_build_trace(doc)
    if fmt == RUN_TRACE_FORMAT:
        return validate_run_trace(doc)
    if fmt == BDD_BENCH_FORMAT:
        return validate_bdd_bench(doc)
    if fmt == SIM_BENCH_FORMAT:
        return validate_sim_bench(doc)
    if fmt == SERVE_BENCH_FORMAT:
        return validate_serve_bench(doc)
    if fmt == BENCH_HISTORY_FORMAT:
        return validate_bench_history(doc)
    if fmt == DIFFTEST_REPORT_FORMAT:
        return validate_difftest_report(doc)
    if fmt == DIFFTEST_REPRO_FORMAT:
        return validate_difftest_repro(doc)
    if fmt == VERIFY_REPORT_FORMAT:
        return validate_verify_report(doc)
    return [f"unknown trace format {fmt!r}"]


def assert_valid_trace(doc: Dict[str, Any]) -> None:
    errors = validate_trace(doc)
    if errors:
        raise ValueError(
            "invalid trace document:\n" + "\n".join(f"  - {e}" for e in errors)
        )


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The modules the generated build traces, run trace and verify report
#: are made from.
_MODULES = ("belt_alarm", "speedo")


def _machines() -> List[Any]:
    from repro.frontend import compile_source

    return [
        compile_source((REPO_ROOT / "examples" / "rsl" / f"{name}.rsl").read_text())
        for name in _MODULES
    ]


def _build_trace(jobs: int) -> Dict[str, Any]:
    from repro.cfsm import Network
    from repro.flow import build_system
    from repro.pipeline import BuildTrace

    trace = BuildTrace()
    build_system(Network("pair", _machines()), jobs=jobs, trace=trace)
    return trace.to_dict()


def _run_trace() -> Dict[str, Any]:
    from repro.cfsm import Network
    from repro.flow import build_system
    from repro.obs import RunTrace
    from repro.rtos.runtime import Stimulus

    drive = json.loads((REPO_ROOT / "examples" / "dashboard_drive.json").read_text())
    stimuli = [Stimulus(time=s["time"], event=s["event"], value=s.get("value"))
               for s in drive["stimuli"]]
    build = build_system(Network("pair", _machines()))
    run = RunTrace()
    build.simulate(stimuli, until=100_000, probes=[("key_on", "alarm")],
                   run_trace=run)
    return run.to_dict()


def _fuzz(shrink: bool, trace: Any = None) -> Dict[str, Any]:
    from repro.difftest import FuzzConfig, run_fuzz

    config = FuzzConfig(seed=0, cases=3, reactions=8, smoke=True,
                        inject="cgen-negate-presence", shrink=shrink)
    return run_fuzz(config, trace=trace)


def _fuzz_trace() -> Dict[str, Any]:
    from repro.pipeline import BuildTrace

    trace = BuildTrace()
    _fuzz(shrink=True, trace=trace)
    return trace.to_dict()


def _verify_report() -> Dict[str, Any]:
    from repro.analysis import render_verify_json, verify_design

    return json.loads(render_verify_json(verify_design(_machines(), design="pair")))


def _history() -> Dict[str, Any]:
    from repro.obs import build_history, check_history, load_reference

    doc = build_history(sorted(str(p) for p in REPO_ROOT.glob("BENCH_*.json")))
    reference = load_reference(
        str(REPO_ROOT / "benchmarks" / "results" / "bench_history_reference.json")
    )
    checks, failures = check_history(doc, reference)
    doc["checks"] = checks
    doc["summary"].update(checked=len(checks), failures=failures)
    return doc


def _committed(path: Path) -> Callable[[], Dict[str, Any]]:
    return lambda: json.loads(path.read_text())


#: One real document per format, and the variants the issue pins
#: (serial and pooled build traces, fuzz reports with and without repros).
SOURCES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "BENCH_bdd": _committed(REPO_ROOT / "BENCH_bdd.json"),
    "BENCH_sim": _committed(REPO_ROOT / "BENCH_sim.json"),
    "BENCH_serve": _committed(REPO_ROOT / "BENCH_serve.json"),
    "corpus_repro": _committed(
        REPO_ROOT / "tests" / "difftest" / "corpus" / "cgen-drop-wrap-case2.json"
    ),
    "build_serial": lambda: _build_trace(1),
    "build_jobs2": lambda: _build_trace(2),
    "run_trace": _run_trace,
    "fuzz_shrunk": lambda: _fuzz(shrink=True),
    "fuzz_no_shrink": lambda: _fuzz(shrink=False),
    "fuzz_trace": _fuzz_trace,
    "verify_report": _verify_report,
    "bench_history": _history,
}


def base_documents() -> Dict[str, Dict[str, Any]]:
    return {name: make() for name, make in SOURCES.items()}


#: Values a mutation writes: every JSON type, bounds' edges, the hex
#: widths of span links, and every enum and format string.
_VALUES: List[Any] = [
    None, True, False, 0, 1, -1, 2, 7, 0.0, 0.5, -0.5, 1.5, 10**9, "", "x",
    "0123456789abcdef", "0" * 32, [], {}, [1], ["x"], {"x": 1},
    "pass", "cache", "stage", "hit", "miss", "ok", "fail", "missing",
    "flags", "pending", "error", "warning", "info",
    *RUN_EVENT_KINDS, *_DIFFTEST_LAYERS, *_VERIFY_LAYERS,
    BUILD_TRACE_FORMAT, RUN_TRACE_FORMAT, BDD_BENCH_FORMAT, SIM_BENCH_FORMAT,
    SERVE_BENCH_FORMAT, BENCH_HISTORY_FORMAT, DIFFTEST_REPORT_FORMAT,
    DIFFTEST_REPRO_FORMAT, VERIFY_REPORT_FORMAT,
]

#: Keys a mutation adds: the optional and paired fields of every format.
_KEYS = [
    "trace_id", "root_span_id", "span_id", "parent_id", "metrics", "status",
    "wall_ms", "baseline", "speedup", "python_wall_s", "engine_speedup",
    "kernel", "reactive", "provenance", "kernel_compile", "runs", "best_of",
    "rounds", "git_revision", "checks", "repro", "mismatches_by_layer",
    "summary", "events", "where", "task", "extra",
]

KeyPath = Tuple[Any, ...]


def _paths(node: Any, prefix: KeyPath = ()) -> List[KeyPath]:
    """Every path below ``node`` (a key or index per step)."""
    out: List[KeyPath] = []
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _resolve(doc: Any, path: KeyPath) -> Tuple[bool, Any]:
    node = doc
    for key in path:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return False, None
    return True, node


def _unshare(doc: Any, path: KeyPath) -> Any:
    """Copy the containers along ``path`` so an edit leaves ``doc`` alone;
    returns the new root (everything off the path stays shared)."""
    root = dict(doc) if isinstance(doc, dict) else list(doc)
    node = root
    for key in path:
        child = node[key]
        child = dict(child) if isinstance(child, dict) else list(child)
        node[key] = child
        node = child
    return root


def _shape(value: Any) -> Tuple[str, int]:
    """A value's JSON type, and its length for strings (span ids of one
    width share a shape)."""
    return type(value).__name__, len(value) if isinstance(value, str) else 0


def _mutate(rng: random.Random, doc: Dict[str, Any], paths: List[KeyPath],
            written: List[Tuple[KeyPath, Any]],
            alike: Dict[Tuple[str, int], List[Any]]) -> Dict[str, Any]:
    """One seeded edit of ``doc``; the values it writes go to ``written``.

    ``alike`` holds the base document's values by shape: a borrowed value
    is often one of the same shape, such as another span's id.
    """
    path = rng.choice(paths) if paths and rng.random() < 0.95 else ("format",)
    found, value = _resolve(doc, path)
    if not found:
        return doc
    parent_path, key = path[:-1], path[-1]
    op = rng.random()
    if op < 0.35:
        new: Any = rng.choice(_VALUES)
    elif op < 0.42:
        new = None
    elif op < 0.55 and isinstance(value, (int, float)) and not isinstance(value, bool):
        new = rng.choice([-value, value - 1, value + 1, 0, -1, float(value),
                          bool(value)])
    elif op < 0.62:
        new = rng.choice(alike.get(_shape(value)) or [value])
    elif op < 0.70:
        found, new = _resolve(doc, rng.choice(paths))
    elif op < 0.82:
        root = _unshare(doc, parent_path)
        _, parent = _resolve(root, parent_path)
        if isinstance(parent, dict):
            del parent[key]
        else:
            parent.pop(key)
        return root
    elif op < 0.90 and isinstance(value, (dict, list)):
        root = _unshare(doc, path)
        _, node = _resolve(root, path)
        if isinstance(node, dict):
            name = rng.choice(_KEYS)
            node[name] = rng.choice(_VALUES)
            written.append((path + (name,), node[name]))
        elif node:
            node.insert(rng.randrange(len(node)), rng.choice(node))
        else:
            node.append(rng.choice(_VALUES))
        return root
    elif op < 0.95 and isinstance(value, (dict, list)):
        new = type(value)()
    else:
        new = rng.choice(_VALUES)
    root = _unshare(doc, parent_path)
    _, parent = _resolve(root, parent_path)
    parent[key] = new
    written.append((path, new))
    return root


def _without_booleans(doc: Dict[str, Any],
                      written: List[Tuple[KeyPath, Any]]) -> Dict[str, Any]:
    """``doc`` with each boolean a mutation wrote, and that is still in
    place, replaced by its int wherever that removes a spec error."""
    from repro.obs import validate_trace as spec_validate

    errors = len(spec_validate(doc))
    for path, value in written:
        found, current = _resolve(doc, path)
        if not (isinstance(value, bool) and found and current is value):
            continue
        edited = _unshare(doc, path[:-1])
        _resolve(edited, path[:-1])[1][path[-1]] = int(value)
        count = len(spec_validate(edited))
        if count < errors:
            doc, errors = edited, count
    return doc


def classify(doc: Dict[str, Any],
             written: List[Tuple[KeyPath, Any]] = ()) -> str:
    """How the spec's verdict on ``doc`` relates to the reference's.

    ``agree-valid``, ``agree-invalid``, ``boolean-number`` (the spec
    rejects a boolean the reference took for a number) and
    ``reference-raises`` (the spec returns errors instead) are fine;
    anything else names a divergence.
    """
    from repro.obs import validate_trace as spec_validate

    spec = spec_validate(doc)
    try:
        reference = validate_trace(doc)
    except Exception:  # the reference's crashes are what this class records
        return "reference-raises" if spec else "DIVERGED: accepts where the reference raises"
    if bool(spec) == bool(reference):
        return "agree-invalid" if spec else "agree-valid"
    if not spec:
        return "DIVERGED: accepts what the reference rejects"
    if written and not spec_validate(_without_booleans(doc, list(written))):
        return "boolean-number"
    return "DIVERGED: rejects what the reference accepts"


def campaign(docs: Dict[str, Dict[str, Any]], mutants: int, seed: int,
             examples: Optional[Dict[str, Any]] = None) -> Counter:
    """Classify ``mutants`` seeded mutants, spread over ``docs``; the
    first mutant of each divergent class goes to ``examples``."""
    rng = random.Random(seed)
    names = sorted(docs)
    paths = {name: _paths(docs[name]) for name in names}
    alike: Dict[str, Dict[Tuple[str, int], List[Any]]] = {}
    for name in names:
        alike[name] = {}
        for path in paths[name]:
            value = _resolve(docs[name], path)[1]
            alike[name].setdefault(_shape(value), []).append(value)
    counts: Counter = Counter()
    for i in range(mutants):
        name = names[i % len(names)]
        doc, written = docs[name], []
        for _ in range(rng.choice((1, 1, 2, 3))):
            doc = _mutate(rng, doc, paths[name], written, alike[name])
        verdict = classify(doc, written)
        counts[verdict] += 1
        if examples is not None and verdict.startswith("DIVERGED"):
            examples.setdefault(verdict, (name, doc))
    return counts


def main(mutants: int = 40_000, seed: int = 2026) -> int:
    started = time.perf_counter()
    from repro.obs import validate_trace as spec_validate

    docs = base_documents()
    for name, doc in docs.items():
        errors = validate_trace(doc) + spec_validate(doc)
        if errors:
            print(f"{name}: the real document does not validate: {errors}")
            return 1
    examples: Dict[str, Any] = {}
    counts = campaign(docs, mutants, seed, examples)
    for verdict, count in sorted(counts.items()):
        print(f"{count:7d}  {verdict}")
    for verdict, (name, doc) in examples.items():
        print(f"first {verdict!r} (from {name}):")
        print(json.dumps(doc, sort_keys=True)[:2000])
    print(f"{mutants} mutants of {len(docs)} documents in "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if examples else 0


if __name__ == "__main__":
    sys.exit(main())
