"""P1 — pipeline scaling: serial vs process-pool vs warm-cache builds.

Not a paper table: this regenerates the scaling evidence for the pass
pipeline (ISSUE 2).  For each multi-machine example network the whole
co-synthesis flow runs three ways —

* ``serial``   — one process, no cache (the historical flow);
* ``jobs=N``   — per-CFSM pipelines on the process's shared N-worker
  pool, already warm: best of the repeats after one untimed pooled build;
* ``warm``     — every module served from a content-addressed cache.

Each network's first pooled build is timed too; the first network's
starts the pool, which is what a one-shot ``repro build --jobs N`` pays.

Shape claims asserted: all three produce byte-identical C / RTOS /
estimates; the warm build executes **zero** synthesis passes and hits the
cache once per module; the trace accounts one pass sequence per module on
the cold build.  Wall-clock ratios are reported, not asserted — CI boxes
(often 1 vCPU) make speedup assertions flaky.

Smoke mode (``REPRO_BENCH_SMOKE=1``): dashboard network only, one
repetition, pool of 2 — a few seconds end to end.  The full run adds the
protocol and shock-absorber networks.

Like ``bench_bdd_engine.py`` this file doubles as a report script:
``python benchmarks/bench_pipeline_parallel.py --json BENCH_pipeline.json``
emits the same rows as machine-readable JSON for the perf trajectory,
with the host's CPU count, the Python version and the git revision.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from repro.apps import abp_network, dashboard_network, shock_network
from repro.estimation import calibrate
from repro.flow import build_system
from repro.pipeline import ArtifactCache, BuildTrace, make_executor
from repro.target import K11

from conftest import write_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
JOBS = 2 if SMOKE else 4
REPEATS = 1 if SMOKE else 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _timed(fn):
    best = None
    value = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return value, best


def _assert_identical(base, other):
    assert other.rtos_source == base.rtos_source
    for name, module in base.modules.items():
        assert other.modules[name].c_source == module.c_source
        assert other.modules[name].estimate == module.estimate
        assert other.modules[name].measured == module.measured


def _bench_network(make_network, params):
    network = make_network()
    serial, t_serial = _timed(lambda: build_system(network, params=params))
    start = time.perf_counter()
    build_system(network, params=params, jobs=JOBS)  # warms the workers
    t_first = time.perf_counter() - start
    parallel, t_parallel = _timed(
        lambda: build_system(network, params=params, jobs=JOBS)
    )
    _assert_identical(serial, parallel)

    with tempfile.TemporaryDirectory() as cache_root:
        cache = ArtifactCache(cache_root)
        cold_trace = BuildTrace()
        cold = build_system(
            network, params=params, cache=cache, trace=cold_trace
        )
        _assert_identical(serial, cold)
        # One declared pass sequence per module on the cold build.
        for machine in cold.modules:
            assert cold_trace.passes(machine)

        def warm_build():
            trace = BuildTrace()
            build = build_system(
                network, params=params, cache=cache, trace=trace
            )
            return build, trace

        (warm, warm_trace), t_warm = _timed(warm_build)
    _assert_identical(serial, warm)
    assert warm_trace.synthesis_pass_count == 0
    assert warm_trace.cache_hits == len(warm.modules)

    return {
        "network": network.name,
        "modules": len(serial.modules),
        "serial_ms": t_serial * 1e3,
        "first_pooled_ms": t_first * 1e3,
        "parallel_ms": t_parallel * 1e3,
        "warm_ms": t_warm * 1e3,
    }


def _measure():
    """Every network's row; the first row's first pooled build starts the pool."""
    params = calibrate(K11)
    makers = [dashboard_network] if SMOKE else [
        dashboard_network, abp_network, shock_network,
    ]
    # A shut-down shared pool is replaced at the next pooled build, so the
    # first network pays pool start-up even after other benches ran here.
    make_executor(JOBS).shutdown(wait=True)
    rows = [_bench_network(maker, params) for maker in makers]
    for row in rows:
        row["pooled_speedup"] = row["serial_ms"] / max(row["parallel_ms"], 1e-6)
        row["warm_speedup"] = row["serial_ms"] / max(row["warm_ms"], 1e-6)
    return rows


def _provenance():
    """Where the figures were taken: host, interpreter, revision."""
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False,
            )
            revision = done.stdout.strip() or None
        except OSError:  # no git on the host
            pass
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
    }


def test_pipeline_parallel_and_cache_scaling():
    rows = _measure()
    jobs = "jobs=%d" % JOBS
    lines = [
        "P1 — pipeline scaling: serial vs process pool vs warm cache "
        f"(jobs={JOBS}, best of {REPEATS})",
        "",
        f"{'network':14s} {'mods':>4s} {'serial':>9s} {jobs:>9s} "
        f"{'warm':>9s} {'pool speedup':>12s} {'warm speedup':>12s}",
    ]
    for row in rows:
        lines.append(
            f"{row['network']:14s} {row['modules']:4d} "
            f"{row['serial_ms']:8.1f}m {row['parallel_ms']:8.1f}m "
            f"{row['warm_ms']:8.1f}m {row['pooled_speedup']:11.2f}x "
            f"{row['warm_speedup']:11.1f}x"
        )
    lines += [
        "",
        f"{jobs}: the process's shared pool, warmed by one pooled build "
        "first",
        f"first pooled build of the process, pool start-up included "
        f"({rows[0]['network']}): {rows[0]['first_pooled_ms']:.1f}m",
        "byte-identical artifacts across all three paths: asserted",
        "warm build synthesis passes executed: 0 (asserted)",
    ]
    write_report("p1_pipeline_parallel", lines)

    # The warm-cache path must dominate serial: it skips synthesis,
    # compilation, and measurement entirely.  Generous factor for CI noise.
    for row in rows:
        assert row["warm_ms"] < row["serial_ms"], row


# ----------------------------------------------------------------------
# report-script mode (BENCH_pipeline.json)
# ----------------------------------------------------------------------


def run_report(smoke=False):
    global SMOKE, JOBS, REPEATS
    SMOKE, JOBS, REPEATS = smoke, (2 if smoke else 4), (1 if smoke else 3)
    rows = _measure()
    for row in rows:
        for key in ("pooled_speedup", "warm_speedup"):
            row[key] = round(row[key], 2)
        for key in ("serial_ms", "first_pooled_ms", "parallel_ms", "warm_ms"):
            row[key] = round(row[key], 3)
    report = {
        "format": "repro-pipeline-bench/v1",
        "smoke": smoke,
        "jobs": JOBS,
        "repeats": REPEATS,
        "networks": rows,
    }
    report.update(_provenance())
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default="BENCH_pipeline.json",
                        help="where to write the report document")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload (or set REPRO_BENCH_SMOKE=1)")
    args = parser.parse_args(argv)
    smoke = args.smoke or os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    report = run_report(smoke=smoke)
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    for row in report["networks"]:
        print(
            f"  {row['network']}: serial {row['serial_ms']}ms, "
            f"first pooled {row['first_pooled_ms']}ms, "
            f"jobs={report['jobs']} {row['parallel_ms']}ms "
            f"({row['pooled_speedup']}x), "
            f"warm {row['warm_ms']}ms ({row['warm_speedup']}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
