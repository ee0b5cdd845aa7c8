"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` is a separate run that records spans around
the calls into each layer and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time

_STARTED = time.perf_counter()

from common import (  # noqa: E402
    OUT_DIR,
    Intervals,
    SETUP_REPEATS,
    BenchError,
    fresh_import,
    median,
    peak_rss_mb,
    provenance,
    remove_work_dir,
    use_checkout_sources,
)
from hostspeed import HOST  # noqa: E402
from metrics import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER  # noqa: E402

#: Workload name -> the module that runs it.
WORKLOADS = {
    "build-cold": "wl_build",
    "rebuild-parallel": "wl_build",
    "fleet-default": "wl_fleet",
    "serve-mixed": "wl_serve",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (seed {HELD_OUT_SEED} is held out for "
                             "checking a claim after a change is written)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the closed loop of an untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="a small corpus and few ops (the smoke test)")
    return parser.parse_args(argv)


def _stop(signum, frame) -> None:
    # Unwind normally so ``finally`` blocks stop the daemon and pools.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.trace = bool(args.trace)
    signal.signal(signal.SIGTERM, _stop)
    try:
        use_checkout_sources()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        first_import_s = time.perf_counter() - _STARTED
        HOST.sample(10)
        result = module.WORKLOADS[args.workload](args)
        if not args.trace:
            # Before any child of the benchmark's own is reaped.
            result.add("peak_rss_mb", peak_rss_mb(), "MiB")
            # Set-up begins with importing the flow (and, for fleet,
            # numpy); that is timed in fresh interpreters, as each
            # ``repro`` invocation pays it.
            imports = Intervals()
            for _ in range(SETUP_REPEATS):
                imports.add(*HOST.timed(lambda: fresh_import(WORKLOADS[args.workload]))[1])
            parts = (imports, result.setup)
            result.add("setup_s", sum(median(p.reference_ms()) for p in parts) / 1000.0, "s")
            result.info.setdefault("raw", {})["setup_s"] = (
                sum(median(p.raw_ms()) for p in parts) / 1000.0)
            result.info["setup_parts_ms"] = {
                "imports": imports.reference_ms(), "rest": result.setup.reference_ms(),
                "first_import_raw": first_import_s * 1000.0}
    finally:
        remove_work_dir()
    if args.trace:
        result.to_reference_speed(HOST.scale())
    result.info["host_speed"] = HOST.summary()

    wanted = PER_LAYER if args.trace else END_TO_END
    extra = {name: m["value"] for name, m in result.metrics.items() if name not in wanted}
    result.metrics = {name: m for name, m in result.metrics.items() if name in wanted}
    missing = sorted(set(wanted) - set(result.metrics))
    if missing:
        result.problems.append(f"metrics not measured: {missing}")

    spans = result.info.pop("spans", None)
    if spans is not None:
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        spans.write(path)
        result.info["spans_file"] = os.path.relpath(path)
    info = dict(result.info)
    info.update(extra)
    info["checks"] = result.checks
    info["problems"] = result.problems[:20]
    doc = provenance(args.workload, args.seed, args.trace, args.seconds,
                     result.attempted, result.failed, info)
    print(json.dumps({"provenance": doc}, sort_keys=True, default=str))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
