"""The ``repro fleet`` path: the fleet-default workload.

Each op is one ``repro fleet`` call with the CLI's defaults at ``jobs=2``
on the dashboard or the shock absorber (alternating): compile the
network's kernel, then :func:`repro.fleet.run_fleet` with a default
:class:`~repro.fleet.FleetConfig` apart from its size, seed and jobs, so
the fleet picks its plane backend and shard size itself.  The networks
are parsed once in set-up; ops never touch the frontend.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.cfsm import Network
from repro.estimation import calibrate
from repro.fleet import FleetConfig, check_lanes, compile_network, run_fleet
from repro.frontend import compile_source
from repro.target import K11

from common import SETUP_REPEATS, Intervals, Result, median, percentile
from hostspeed import HOST, WINDOW_MIN
from corpus import FLEET_DESIGNS, FLEET_INSTANCES, fleet_seed, reference_designs, rng_for
from metrics import PER_LAYER, per_layer_defaults
from spans import Spans

JOBS = 2
#: Lanes per op checked against the scalar simulator (all in one shard,
#: so the check simulates one shard, not the fleet).
CHECK_LANES = 3
MIN_OPS = 4
FIELDS = ("reactions", "lost_events", "digest", "shards", "kernel_ops", "env_emitted")


def _setup() -> List[Network]:
    calibrate(K11)
    return [
        Network(d.name, [compile_source(text) for text in d.texts])
        for d in reference_designs() if d.name in FLEET_DESIGNS
    ]


def _config(seed: int, op: int, jobs: int) -> FleetConfig:
    return FleetConfig(instances=FLEET_INSTANCES, seed=fleet_seed(seed, op), jobs=jobs)


def _check_lanes(res: Result, seed: int, op: int, network: Network, compiled) -> bool:
    config = _config(seed, op, JOBS)
    rng = rng_for(seed, "fleet", "lanes", op)
    shard = rng.randrange(len(config.shard_sizes()))
    base = shard * config.lanes_per_shard
    lanes = sorted(rng.sample(range(base, base + config.shard_sizes()[shard]), CHECK_LANES))
    mismatches = check_lanes(network, config, lanes, compiled=compiled)
    return res.check("fleet-lanes", not mismatches,
                     f"op {op} {network.name}: {mismatches[:2]}")


def _same_run(res: Result, name: str, a: Dict[str, Any], b: Dict[str, Any], what: str) -> bool:
    same = all(a[field] == b[field] for field in FIELDS)
    return res.check("fleet-digest", same, f"{name}: {what}")


def fleet_default(args) -> Result:
    res = Result()
    for _ in range(SETUP_REPEATS):
        networks, span = HOST.timed(_setup)
        res.setup.add(*span)
    if args.trace:
        _traced(args, networks, res)
        return res

    ops = Intervals()
    reactions = 0
    modules = 0
    kernels: Dict[str, Any] = {}
    done = []  # (op, network, compiled, summary) for the checks
    deadline = time.perf_counter() + args.seconds
    op = 0
    while time.perf_counter() < deadline or op < MIN_OPS:
        HOST.between_ops()
        network = networks[op % len(networks)]
        res.attempted += 1
        started = time.perf_counter()
        try:
            compiled = compile_network(network)
            summary = run_fleet(network, _config(args.seed, op, JOBS), compiled=compiled)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed op
            res.failed += 1
            res.problems.append(f"fleet {network.name}: {type(exc).__name__}: {exc}")
            op += 1
            continue
        ops.add(started, time.perf_counter())
        reactions += summary["reactions"]
        modules += len(network.machines)
        kernels[network.name] = compiled
        done.append((op, network, compiled, summary))
        op += 1

    HOST.sample(WINDOW_MIN)  # the last op's window
    res.add_timed("reactions_per_s", "reactions/s",
                  lambda ms: reactions / (sum(ms) / 1000.0), ops)
    res.add_timed("build_p50_ms", "ms", median, ops)
    res.add_timed("build_p90_ms", "ms", lambda ms: percentile(ms, 90), ops)
    res.add_timed("req_p50_ms", "ms", median, ops)
    res.add_timed("req_p95_ms", "ms", lambda ms: percentile(ms, 95), ops)
    res.add_timed("req_per_s", "req/s", lambda ms: len(ms) / (sum(ms) / 1000.0), ops)
    res.add_timed("modules_per_s", "modules/s", lambda ms: modules / (sum(ms) / 1000.0), ops)
    # The fleet path emits bit-sliced kernels, not target code: their
    # generated source size, and plane ops per step (every lane runs
    # every op, so this is also the worst case).
    res.add("code_bytes", sum(len(m.source) for c in kernels.values() for m in c.machines),
            "bytes")
    res.add("wcet_cycles", sum(c.op_count for c in kernels.values()), "cycles")

    # Lanes of every op against the scalar simulator; the jobs-1 digest
    # of the first op per network (a jobs-1 run costs as much as the op).
    checked_digest = set()
    for op, network, compiled, summary in done:
        ok = _check_lanes(res, args.seed, op, network, compiled)
        if network.name not in checked_digest:
            checked_digest.add(network.name)
            serial = run_fleet(network, _config(args.seed, op, 1), compiled=compiled)
            ok &= _same_run(res, network.name, summary, serial, "jobs-2 != jobs-1")
        if not ok:
            res.failed += 1
    res.info["fleet_digests"] = [summary["digest"] for _, _, _, summary in done[:2]]
    return res


def _traced(args, networks: List[Network], res: Result) -> None:
    """Fixed ops: untraced, then traced, then the jobs-1 reference run.

    The op is what a user runs (kernel compile plus the pooled run); the
    jobs-1 run of the same shards, outside the op, splits the pooled run
    into shard time and pool overhead.
    """
    ops = MIN_OPS if args.small else max(MIN_OPS, int(args.seconds) // 3)
    spans = Spans()
    values = per_layer_defaults()
    untraced_ms = 0.0
    digests = []
    for op in range(ops):
        HOST.between_ops()
        network = networks[op % len(networks)]
        res.attempted += 1
        try:
            started = time.perf_counter()
            plain = run_fleet(network, _config(args.seed, op, JOBS),
                              compiled=compile_network(network))
            untraced_ms += (time.perf_counter() - started) * 1000.0
            with spans.span("op", op):
                with spans.span("fleet.kernel.compile", op):
                    compiled = compile_network(network)
                with spans.span("fleet.pooled", op):
                    pooled = run_fleet(network, _config(args.seed, op, JOBS), compiled=compiled)
            with spans.span("reference", op):
                with spans.span("fleet.sim.shard", op):
                    serial = run_fleet(network, _config(args.seed, op, 1), compiled=compiled)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed op
            res.failed += 1
            res.problems.append(f"fleet {network.name}: {type(exc).__name__}: {exc}")
            continue
        ok = _same_run(res, network.name, pooled, serial, "jobs-2 != jobs-1")
        ok &= _same_run(res, network.name, pooled, plain, "traced != untraced")
        ok &= _check_lanes(res, args.seed, op, network, compiled)
        if not ok:
            res.failed += 1
        values["fleet.kernel.ops"] += compiled.op_count
        values["fleet.sim.reactions"] += pooled["reactions"]
        values["fleet.sim.lost_events"] += pooled["lost_events"]
        values["pipeline.parallel.tasks"] += pooled["shards"]
        digests.append(pooled["digest"])
    breakdown = spans.op_breakdown()
    shard_ms = spans.reference_ms("fleet.sim.shard")
    values["fleet.kernel.compile_ms"] = breakdown.get("fleet.kernel.compile", 0.0)
    values["fleet.sim.shard_ms"] = shard_ms
    values["pipeline.parallel.overhead_ms"] = breakdown.get("fleet.pooled", 0.0) - shard_ms
    values["trace.other_ms"] = breakdown.get("other", 0.0)
    values["trace.op_wall_ms"] = spans.total_ms("op")
    values["trace.overhead_ratio"] = values["trace.op_wall_ms"] / untraced_ms - 1.0
    for name, value in values.items():
        res.add(name, value, PER_LAYER[name])
    res.info["fleet_digests"] = digests
    res.info["spans"] = spans


WORKLOADS = {"fleet-default": fleet_default}
