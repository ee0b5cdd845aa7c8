"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` declares the same names; the smoke test checks that
the two agree and that every run prints all of them.
"""

from __future__ import annotations

from typing import Dict

#: Printed by untraced runs (``--trace 0``) on every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "build_p50_ms": "ms",
    "build_p90_ms": "ms",
    "modules_per_s": "modules/s",
    "code_bytes": "bytes",
    "wcet_cycles": "cycles",
    "reactions_per_s": "reactions/s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "req_per_s": "req/s",
}

#: Printed by traced runs (``--trace 1``) on every workload; a layer a
#: workload bypasses reads 0.
PER_LAYER: Dict[str, str] = {
    "frontend.parse_ms": "ms",
    "synthesis.reactive_ms": "ms",
    "synthesis.chi_nodes": "count",
    "bdd.sift_ms": "ms",
    "bdd.swaps": "count",
    "bdd.swap_skips": "count",
    "bdd.peak_nodes": "count",
    "bdd.ite_hit_ratio": "ratio",
    "sgraph.build_ms": "ms",
    "sgraph.vertices": "count",
    "codegen.c_ms": "ms",
    "codegen.c_bytes": "bytes",
    "target.compile_ms": "ms",
    "target.analyze_ms": "ms",
    "estimation.estimate_ms": "ms",
    "rtos.codegen_ms": "ms",
    "pipeline.cache.lookup_ms": "ms",
    "pipeline.cache.store_ms": "ms",
    "pipeline.cache.stats_ms": "ms",
    "pipeline.cache.hit_ratio": "ratio",
    "pipeline.cache.hits": "count",
    "pipeline.cache.misses": "count",
    "pipeline.cache.evictions": "count",
    "pipeline.cache.bytes_written": "bytes",
    "pipeline.parallel.tasks": "count",
    "pipeline.parallel.overhead_ms": "ms",
    "fleet.kernel.compile_ms": "ms",
    "fleet.kernel.ops": "count",
    "fleet.sim.shard_ms": "ms",
    "fleet.sim.reactions": "count",
    "fleet.sim.lost_events": "count",
    "serve.queue_wait_ms": "ms",
    "serve.service_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.failed": "count",
    "trace.other_ms": "ms",
    "trace.op_wall_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Layer self times that, with ``trace.other_ms``, partition the op wall
#: time ``trace.op_wall_ms`` of a traced run.
OP_PARTS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "ms" and name not in ("trace.op_wall_ms",)
)

#: Counts that must repeat exactly for one seed (and ``--seconds``).
EXACT = ("code_bytes", "wcet_cycles", "bdd.swaps", "sgraph.vertices",
         "pipeline.cache.hits", "pipeline.cache.misses",
         "pipeline.cache.evictions", "fleet.sim.reactions",
         "fleet.sim.lost_events")

#: The seed a run uses when none is given, and the seed held out for
#: checking later claims (not to be used while writing a change).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def per_layer_defaults() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}
