"""Fleet-scale simulation throughput: bit-sliced kernels vs the scalar
reference simulator.

The fleet engine (:mod:`repro.fleet`) compiles each machine's synthesized
evaluator into straight-line plane operations and steps one *fleet
instance per bit lane*, so a 4096-instance dashboard fleet advances 4096
networks per plane pass.  This benchmark measures that claim directly:

* **scalar leg** — replay a handful of lanes through
  :class:`repro.cfsm.network.NetworkSimulator` under the *same* stimulus
  stream (:func:`repro.fleet.crosscheck.scalar_reference_run`) and time
  reactions/second;
* **fleet legs** — run the whole fleet on each engine and time
  reactions/second: ``int``, the big-int planes of ``FleetShard.step``
  (the Python engine forced), and ``native``, the C shard run of
  :mod:`repro.fleet.native`.  ``speedup`` is a leg over scalar, and the
  native leg's ``engine_speedup`` is native over int.  Both engines run
  alternately in one process: each leg's wall is the median over
  ``ROUNDS`` rounds of the best of ``BEST_OF`` runs;
* **cross-check** — sampled lanes must be bit-identical to the scalar
  simulator (states, flags, value buffers, lost-event and reaction
  counts);
* **determinism** — ``--jobs 1`` and ``--jobs 4`` fleet digests must
  match exactly;
* **kernel compile** — the wall of ``compile_network`` on the network
  (synthesis of the condition BDDs plus the bit-sliced lowering), the
  median over ``ROUNDS`` of the best of ``BEST_OF`` compiles.  Reported,
  not gated.

Two entry points:

* **pytest** (``pytest benchmarks/bench_fleet_sim.py``) — the
  assertion-backed checks below, reported to ``results/fleet_sim.txt``;
* **report script** (``python benchmarks/bench_fleet_sim.py --json
  BENCH_sim.json``) — the machine-readable ``repro-sim-bench/v1``
  document the CI jobs feed ``repro bench-history --check`` (tracked
  metrics: ``backends.int.speedup`` and ``backends.native.engine_speedup``,
  gated by ``benchmarks/results/bench_history_reference.json``).

Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``): smaller fleet,
fewer steps, fewer scalar baseline lanes.
"""

import contextlib
import os
import statistics
import sys
import time

import pytest

from repro.fleet import (
    FleetConfig,
    check_lanes,
    compile_network,
    default_spec,
    run_fleet,
)
from repro.fleet import native
from repro.fleet.crosscheck import materialize_stream, scalar_reference_run

if __name__ == "__main__":  # script mode runs from anywhere
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import write_report
from provenance import bench_provenance

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: The acceptance gate of full mode: the fleet must deliver
#: at least this many times the scalar simulator's reactions/second on a
#: >= 4096-instance dashboard fleet.  Smoke mode only requires > 1x.
MIN_SPEEDUP = 20.0
#: Full mode's gate on the native engine over the big-int planes on the
#: same fleet.  Half a Python shard's time is its stimulus stream, which
#: an exact replay in C makes only ~7x cheaper, so ~6-7x is the ceiling.
MIN_ENGINE_SPEEDUP = 3.0
#: Each fleet leg's wall: the median over ROUNDS of the best of BEST_OF
#: runs, the engines alternating run by run.
BEST_OF = 5
ROUNDS = 5
#: Fleet leg name -> the engine its shards run on.
ENGINES = {"int": "python", "native": "native"}


def _sizes(smoke):
    if smoke:
        return {"instances": 1024, "steps": 50, "scalar_lanes": 4,
                "check_lanes": 8}
    return {"instances": 4096, "steps": 200, "scalar_lanes": 8,
            "check_lanes": 16}


def _scalar_leg(network, compiled, spec, config, lanes):
    """Time ``lanes`` scalar replays under the fleet's own stimulus."""
    shard_lanes = min(config.instances, config.lanes_per_shard)
    step_planes = materialize_stream(
        compiled, spec, config.seed, config.steps, 0, shard_lanes
    )
    reactions = 0
    start = time.perf_counter()
    for lane in range(lanes):
        reactions += scalar_reference_run(
            network, compiled, spec, config.seed, config.steps,
            0, shard_lanes, lane, step_planes=step_planes,
        )["reactions"]
    wall = time.perf_counter() - start
    return {
        "reactions": reactions,
        "wall_s": round(wall, 6),
        "reactions_per_sec": round(reactions / wall, 1) if wall else 0.0,
    }


@contextlib.contextmanager
def _engine(name):
    """Run shards on the ``"native"`` or the ``"python"`` engine in the block."""
    loaded = native.fleet_library()
    native._fleet_library = loaded if name == "native" else None
    try:
        yield
    finally:
        native._fleet_library = loaded


def _fleet_legs(network, compiled, config, scalar_rps):
    """The engines' legs, timed alternately; both must simulate the same
    fleet.  Without a native engine only the int leg is timed."""
    legs = ["int", "native"] if native.fleet_library() else ["int"]
    rounds = {leg: [] for leg in legs}
    outcomes = set()
    for _ in range(ROUNDS):
        best = {leg: float("inf") for leg in legs}
        for _ in range(BEST_OF):
            for leg in legs:
                with _engine(ENGINES[leg]):
                    summary = run_fleet(network, config, compiled=compiled)
                seconds = (summary["wall_ms"] - summary["compile_ms"]) / 1000.0
                best[leg] = min(best[leg], seconds)
                outcomes.add((summary["reactions"], summary["digest"]))
        for leg in legs:
            rounds[leg].append(best[leg])
    assert len(outcomes) == 1, f"the engines' fleets differ: {outcomes}"
    ((reactions, _),) = outcomes
    result = {}
    for leg in legs:
        wall = statistics.median(rounds[leg])
        rps = reactions / wall
        result[leg] = {
            "reactions": reactions,
            "wall_s": round(wall, 6),
            "reactions_per_sec": round(rps, 1),
            "speedup": round(rps / scalar_rps, 2) if scalar_rps else 0.0,
        }
    if "native" in result:
        result["native"]["engine_speedup"] = round(
            result["int"]["wall_s"] / result["native"]["wall_s"], 2
        )
    return result


def _kernel_compile(network):
    """``compile_network`` wall: the median over ROUNDS of best-of-BEST_OF."""
    rounds = []
    for _ in range(ROUNDS):
        best = float("inf")
        for _ in range(BEST_OF):
            start = time.perf_counter()
            compile_network(network)
            best = min(best, time.perf_counter() - start)
        rounds.append(best)
    return {"wall_s": round(statistics.median(rounds), 6)}


def run_report(smoke=False):
    from repro.apps import dashboard_network

    sizes = _sizes(smoke)
    network = dashboard_network()
    compiled = compile_network(network)
    spec = default_spec(network)
    config = FleetConfig(
        instances=sizes["instances"],
        steps=sizes["steps"],
        seed=0,
        jobs=1,
        spec=spec,
    )

    scalar = _scalar_leg(
        network, compiled, spec, config, sizes["scalar_lanes"]
    )
    # The v1 document keys fleet legs by engine.
    backends = _fleet_legs(
        network, compiled, config, scalar["reactions_per_sec"]
    )

    jobs4_config = FleetConfig(
        instances=config.instances,
        steps=config.steps,
        seed=config.seed,
        jobs=4,
        lanes_per_shard=max(64, config.instances // 4),
        spec=spec,
    )
    jobs4 = run_fleet(network, jobs4_config, compiled=compiled)
    # Digests hash per-shard state, so compare against a jobs=1 run of
    # the *same* sharding, not the single-shard timing leg.
    jobs1_config = FleetConfig(
        instances=jobs4_config.instances,
        steps=jobs4_config.steps,
        seed=jobs4_config.seed,
        jobs=1,
        lanes_per_shard=jobs4_config.lanes_per_shard,
        spec=spec,
    )
    jobs1 = run_fleet(network, jobs1_config, compiled=compiled)

    sample = sorted({
        lane * config.instances // sizes["check_lanes"]
        for lane in range(sizes["check_lanes"])
    })
    mismatches = check_lanes(network, config, sample, compiled=compiled)

    doc = {
        "format": "repro-sim-bench/v1",
        "smoke": smoke,
        "network": network.name,
        "instances": config.instances,
        "steps": config.steps,
        "kernel_ops": compiled.op_count,
        "scalar": scalar,
        "backends": backends,
        "crosscheck": {
            "lanes": len(sample),
            "mismatches": len(mismatches),
        },
        "determinism": {
            "jobs1_digest": jobs1["digest"],
            "jobs4_digest": jobs4["digest"],
            "match": jobs1["digest"] == jobs4["digest"],
        },
        "kernel_compile": _kernel_compile(network),
        # The scalar leg is timed once; each fleet leg as BEST_OF x ROUNDS.
        "provenance": bench_provenance(
            repetitions=1, best_of=BEST_OF, rounds=ROUNDS
        ),
    }
    return doc


def _report_lines(doc):
    from repro.obs import render_sim_bench

    return render_sim_bench(doc).splitlines()


@pytest.mark.timing
@pytest.mark.slow
def test_fleet_bench_document_is_valid_and_fast():
    from repro.obs import validate_trace

    doc = run_report(smoke=True)
    errors = validate_trace(doc)
    assert errors == [], errors
    assert doc["crosscheck"]["mismatches"] == 0, doc["crosscheck"]
    assert doc["determinism"]["match"], doc["determinism"]
    # Smoke fleets are small; the tracked speedup gate lives in the
    # bench-history reference that CI checks against the smoke document.
    assert doc["backends"]["int"]["speedup"] > 1.0, doc["backends"]["int"]
    native_leg = doc["backends"]["native"]
    assert native_leg["engine_speedup"] > 1.0, native_leg
    write_report("fleet_sim", _report_lines(doc))


def main(argv=None):
    import argparse
    import json

    from repro.obs import assert_valid_trace, render_sim_bench

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default="BENCH_sim.json",
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
    print(render_sim_bench(doc))
    failures = []
    if doc["crosscheck"]["mismatches"]:
        failures.append(f"{doc['crosscheck']['mismatches']} lane mismatches")
    if not doc["determinism"]["match"]:
        failures.append("jobs 1 vs jobs 4 digests diverged")
    gate = MIN_SPEEDUP if not smoke else 1.0
    if doc["backends"]["int"]["speedup"] < gate:
        failures.append(
            f"int speedup {doc['backends']['int']['speedup']}x "
            f"below {gate}x gate"
        )
    native_leg = doc["backends"].get("native")
    engine_gate = MIN_ENGINE_SPEEDUP if not smoke else 1.0
    if native_leg is None:
        failures.append("the native fleet engine did not build or load")
    elif native_leg["engine_speedup"] < engine_gate:
        failures.append(
            f"native engine speedup {native_leg['engine_speedup']}x "
            f"below {engine_gate}x gate"
        )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
