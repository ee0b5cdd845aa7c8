"""The ``repro build`` path: the build-cold and rebuild-parallel workloads.

Each op drives the library the way ``repro build`` does: parse the RSL,
build a :class:`~repro.cfsm.Network`, call :func:`repro.flow.build_system`
with a :class:`~repro.pipeline.BuildTrace` recorded, and write no files.

Traced runs replay each op module by module through the public
per-layer functions (see :class:`Replay`) under the benchmark's own
spans, and check the replay's C and measured sizes against
``build_system``'s output.  A replay that stops matching is reported,
never counted as a failed op.
"""

from __future__ import annotations

import itertools
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cfsm import Network
from repro.codegen import generate_c
from repro.difftest import OracleOptions, check_case, random_snapshots
from repro.estimation import calibrate, estimate
from repro.flow import build_system
from repro.frontend import compile_source
from repro.obs import SiftProfile
from repro.pipeline import ArtifactCache, BuildTrace
from repro.rtos import RtosConfig, generate_rtos_c
from repro.rtos.footprint import system_footprint
from repro.sgraph import (
    SynthesisResult,
    build_sgraph,
    merge_multiway,
    prune_zero_assigns,
    reduce_sgraph,
    sifted_order,
    vars_needing_copy,
)
from repro.synthesis import synthesize_reactive
from repro.target import K11, analyze_program, compile_sgraph

from common import SETUP_REPEATS, Intervals, Result, fresh_dir, median, percentile
from hostspeed import HOST, WINDOW_MIN
from corpus import Design, EditLoop, build_cold_corpus, reference_designs, rng_for, shuffled_passes
from metrics import PER_LAYER, per_layer_defaults
from spans import Spans

#: Ops per untraced run, at least: ten beyond p95 (``req_p95_ms``).
MIN_OPS = 200
MIN_OPS_SMALL = 20
#: Seeded snapshots the oracle runs per run, shared out over the modules
#: (at least 48 each), so ``reactions_per_s`` rests on seconds of
#: checking even when a run builds few distinct modules.
ORACLE_REACTIONS = 4000
ORACLE_MIN_SNAPSHOTS = 48


def design_network(design: Design, texts: Optional[Tuple[str, ...]] = None) -> Network:
    """Parse a design's RSL (or take its generated machine) into a network."""
    if design.is_rsl:
        return Network(design.name, [compile_source(t) for t in (texts or design.texts)])
    return Network(design.name, [design.machine])


def cli_build(network: Network, **options) -> Any:
    """``build_system`` as ``repro build`` calls it: K11, always traced."""
    return build_system(network, trace=BuildTrace(), **options)


def build_summary(build) -> Dict[str, Any]:
    """The bytes and measured figures of a build, without live objects."""
    return {
        "c": {name: m.c_source for name, m in build.modules.items()},
        "measured": {
            name: (m.measured.code_size, m.measured.min_cycles, m.measured.max_cycles)
            for name, m in build.modules.items()
        },
        "rtos": build.rtos_source,
        "report": build.report(),
    }


# -- the traced replay ------------------------------------------------------------


class Replay:
    """One build, module by module, through the per-layer public functions.

    Mirrors ``build_system``'s defaults: scheme ``sift`` (with a sift
    profile, as under a build trace), multiway, zero-assign pruning and
    copy elimination, K11, the default RTOS configuration.
    """

    def __init__(self, spans: Spans):
        self.spans = spans
        self.op = 0  # the op the next spans belong to; counts span all ops
        self.counts = {"chi_nodes": 0, "swaps": 0, "swap_skips": 0, "peak_nodes": 0,
                       "ite_hits": 0, "ite_misses": 0, "vertices": 0, "c_bytes": 0}

    def parse(self, design: Design, texts: Tuple[str, ...]) -> Network:
        if not design.is_rsl:
            return Network(design.name, [design.machine])
        with self.spans.span("frontend.parse", self.op):
            machines = [compile_source(t) for t in texts]
        return Network(design.name, machines)

    def module(self, machine) -> Dict[str, Any]:
        span, op = self.spans.span, self.op
        params = calibrate(K11)
        with span("synthesis.reactive", op):
            rf = synthesize_reactive(machine)
        self.counts["chi_nodes"] += rf.chi.size()
        with span("bdd.sift", op):
            order = sifted_order(rf, strict=False, profile=SiftProfile())
        with span("sgraph.build", op):
            sg = build_sgraph(rf, order)
            reduce_sgraph(sg)
            prune_zero_assigns(sg)
            reduce_sgraph(sg)
            if merge_multiway(sg, rf.encoding, min_targets=2):
                reduce_sgraph(sg)
            copy_vars = vars_needing_copy(sg, rf.encoding)
        result = SynthesisResult(reactive=rf, sgraph=sg, order=order,
                                 scheme="sift", copy_vars=copy_vars)
        with span("target.compile", op):
            program = compile_sgraph(result, K11)
        with span("codegen.c", op):
            c_source = generate_c(result)
        with span("estimation.estimate", op):
            estimate(sg, rf.encoding, params, copy_vars=copy_vars)
        with span("target.analyze", op):
            measured = analyze_program(program, K11)
        kernel = rf.manager.counters()
        counts = self.counts
        counts["swaps"] += kernel["swaps"]
        counts["swap_skips"] += kernel["swap_skips"]
        counts["peak_nodes"] = max(counts["peak_nodes"], kernel["peak_nodes"])
        counts["ite_hits"] += kernel["ite_cache_hits"]
        counts["ite_misses"] += kernel["ite_cache_misses"]
        counts["vertices"] += len(sg.reachable())
        counts["c_bytes"] += len(c_source.encode("utf-8"))
        return {
            "c": c_source,
            "program": program,
            "measured": (measured.code_size, measured.min_cycles, measured.max_cycles),
            "copied": len(result.copied_state_vars()),
        }

    def rtos(self, network: Network, modules: Dict[str, Dict[str, Any]]) -> str:
        config = RtosConfig()
        with self.spans.span("rtos.codegen", self.op):
            source = generate_rtos_c(network, config)
            system_footprint(
                network, config, K11,
                {name: m["program"] for name, m in modules.items()},
                copied_counts={name: m["copied"] for name, m in modules.items()},
            )
        return source

    def metrics(self) -> Dict[str, float]:
        c = self.counts
        lookups = c["ite_hits"] + c["ite_misses"]
        return {
            "synthesis.chi_nodes": c["chi_nodes"],
            "bdd.swaps": c["swaps"],
            "bdd.swap_skips": c["swap_skips"],
            "bdd.peak_nodes": c["peak_nodes"],
            "bdd.ite_hit_ratio": c["ite_hits"] / lookups if lookups else 0.0,
            "sgraph.vertices": c["vertices"],
            "codegen.c_bytes": c["c_bytes"],
        }


REPLAY_LAYERS = ("synthesis.reactive", "bdd.sift", "sgraph.build", "codegen.c",
                 "target.compile", "target.analyze", "estimation.estimate", "rtos.codegen")


def replay_mismatches(summary: Dict[str, Any], modules: Dict[str, Dict[str, Any]],
                      rtos: Optional[str]) -> List[str]:
    """Where a replay's bytes differ from ``build_system``'s."""
    bad = [name for name, m in modules.items()
           if m["c"] != summary["c"][name] or m["measured"] != summary["measured"][name]]
    if rtos is not None and rtos != summary["rtos"]:
        bad.append("rtos")
    return bad


# -- correctness checks -------------------------------------------------------------


class Oracle:
    """Every distinct module built, once through the five-layer oracle.

    The oracle synthesizes with options matching the build (scheme
    ``sift``, copy elimination, K11) and runs seeded snapshots through
    all five layers; its measured sizes must also equal the build's.
    Checks run between ops, never inside one, and :meth:`pace` spreads
    them evenly over the loop, so ``reactions_per_s`` (reactions checked
    per second, the only reactions a build workload runs) is sampled
    across the whole run rather than in one burst after it.
    """

    def __init__(self, res: Result, seed: int, modules: int, seconds: float):
        self.res = res
        self.seed = seed
        self.modules = modules
        self.seconds = seconds
        self.snapshots = max(ORACLE_MIN_SNAPSHOTS, -(-ORACLE_REACTIONS // max(1, modules)))
        self.started = time.perf_counter()
        self.pending: List[Tuple[Design, Any, Tuple[int, int, int]]] = []
        self.seen: set = set()
        self.checked = 0
        self.reactions = 0
        self.timed = Intervals()
        self.failed_designs: set = set()

    def add(self, design: Design, summary: Dict[str, Any]) -> None:
        """Queue a design's modules the first time it is built."""
        if design.name in self.seen:
            return
        self.seen.add(design.name)
        for machine in design_network(design).machines:
            self.pending.append((design, machine, summary["measured"][machine.name]))

    def pace(self) -> None:
        """Check as many modules as are due by now."""
        due = self.modules * min(1.0, (time.perf_counter() - self.started) / self.seconds)
        while self.pending and self.checked < due:
            self._check(*self.pending.pop(0))

    def drain(self) -> None:
        while self.pending:
            self._check(*self.pending.pop(0))
        HOST.between_ops()  # the last check's window

    def _check(self, design: Design, machine, want: Tuple[int, int, int]) -> None:
        snapshots = random_snapshots(
            machine, rng_for(self.seed, "oracle", design.name, machine.name), self.snapshots)
        HOST.between_ops()
        started = time.perf_counter()
        report = check_case(machine, snapshots, OracleOptions(), index=self.checked)
        self.timed.add(started, time.perf_counter())
        self.checked += 1
        self.reactions += report.reactions
        got = report.measured or {}
        where = f"{design.name}/{machine.name}"
        ok = self.res.check("oracle", report.ok and report.skipped is None,
                            f"{where}: {[m.as_dict() for m in report.mismatches[:3]]} "
                            f"{report.skipped or ''}")
        ok &= self.res.check(
            "oracle-measured",
            (got.get("code_size"), got.get("min_cycles"), got.get("max_cycles")) == want,
            f"{where}: oracle {got} vs build {want}")
        if not ok:
            self.failed_designs.add(design.name)

    def finish(self, op_designs: List[str]) -> None:
        """Drain the queue; a failing design fails every op that built it."""
        self.drain()
        self.res.failed += sum(op_designs.count(name) for name in self.failed_designs)
        if self.timed:
            self.res.add_timed("reactions_per_s", "reactions/s",
                               lambda ms: self.reactions / (sum(ms) / 1000.0), self.timed)


def op_metrics(res: Result, ops: Intervals, modules: int) -> None:
    """Latency and throughput figures over a run's ops."""
    res.add_timed("build_p50_ms", "ms", median, ops)
    res.add_timed("build_p90_ms", "ms", lambda ms: percentile(ms, 90), ops)
    res.add_timed("req_p50_ms", "ms", median, ops)
    res.add_timed("req_p95_ms", "ms", lambda ms: percentile(ms, 95), ops)
    res.add_timed("req_per_s", "req/s", lambda ms: len(ms) / (sum(ms) / 1000.0), ops)
    res.add_timed("modules_per_s", "modules/s", lambda ms: modules / (sum(ms) / 1000.0), ops)


def code_metrics(res: Result, summaries: List[Dict[str, Any]]) -> None:
    """Measured size and worst-case cycles summed over distinct modules."""
    measured = {}
    for summary in summaries:
        measured.update(summary["measured"])
    res.add("code_bytes", sum(m[0] for m in measured.values()), "bytes")
    res.add("wcet_cycles", sum(m[2] for m in measured.values()), "cycles")


def layer_metrics(res: Result, spans: Spans, values: Dict[str, float],
                  untraced_ms: float) -> None:
    """Fill every per-layer metric; ``values`` holds the non-span ones."""
    out = per_layer_defaults()
    out.update(values)
    breakdown = spans.op_breakdown()
    out["trace.other_ms"] = breakdown.pop("other", 0.0)
    build_self = breakdown.pop("pipeline.build", None)
    for name, ms in breakdown.items():
        out[f"{name}_ms"] = ms
    if build_self is not None:
        # A pooled build is split by its in-process replay: layer times
        # from the replay, the rest is the pool's overhead.
        replayed = {name: spans.reference_ms(name) for name in REPLAY_LAYERS}
        for name, ms in replayed.items():
            out[f"{name}_ms"] = ms
        out["pipeline.parallel.overhead_ms"] = build_self - sum(replayed.values())
    op_wall = spans.total_ms("op")
    out["trace.op_wall_ms"] = op_wall
    out["trace.overhead_ratio"] = op_wall / untraced_ms - 1.0
    for name, value in out.items():
        res.add(name, value, PER_LAYER[name])


# -- build-cold -----------------------------------------------------------------------


def _cold_setup(args) -> List[Design]:
    calibrate(K11)
    return build_cold_corpus(args.small)


def build_cold(args) -> Result:
    """``repro build`` defaults over reference designs and generated machines."""
    res = Result()
    for _ in range(SETUP_REPEATS):
        corpus, span = HOST.timed(lambda: _cold_setup(args))
        res.setup.add(*span)
    res.info["corpus_designs"] = len(corpus)
    if args.trace:
        _build_cold_traced(args, corpus, res)
        return res

    min_ops = MIN_OPS_SMALL if args.small else MIN_OPS
    schedule = shuffled_passes(corpus, args.seed)
    ops = Intervals()
    op_designs: List[str] = []
    built: Dict[str, Dict[str, Any]] = {}
    modules = 0
    oracle = Oracle(res, args.seed, sum(len(d.module_names) for d in corpus), args.seconds)
    deadline = time.perf_counter() + args.seconds
    for op, (pass_index, design) in enumerate(schedule):
        # Stop only between whole passes, so every run builds each
        # design equally often and its percentiles fall in the same
        # place whatever the seed.
        at_pass_start = op % len(corpus) == 0
        if (at_pass_start and pass_index > 0 and time.perf_counter() >= deadline
                and res.attempted >= min_ops):
            break
        res.attempted += 1
        started = time.perf_counter()
        try:
            build = cli_build(design_network(design))
        except Exception as exc:  # noqa: BLE001 - a raising build is a failed op
            res.failed += 1
            res.problems.append(f"build {design.name}: {type(exc).__name__}: {exc}")
            continue
        ops.add(started, time.perf_counter())
        op_designs.append(design.name)
        modules += len(build.modules)
        if design.name not in built:
            built[design.name] = build_summary(build)
            oracle.add(design, built[design.name])
        oracle.pace()
        HOST.between_ops()
    HOST.sample(WINDOW_MIN)  # the last op's window
    op_metrics(res, ops, modules)
    code_metrics(res, list(built.values()))
    oracle.finish(op_designs)
    return res


def _build_cold_traced(args, corpus: List[Design], res: Result) -> None:
    """Seeded passes: each design built untraced, then replayed traced."""
    spans = Spans()
    replay = Replay(spans)
    oracle = Oracle(res, args.seed, sum(len(d.module_names) for d in corpus), args.seconds)
    op_designs: List[str] = []
    untraced_ms = 0.0
    mismatched: List[str] = []
    passes = 1 if args.small else max(1, round(args.seconds / 7))
    order = [design for _, design in
             itertools.islice(shuffled_passes(corpus, args.seed), passes * len(corpus))]
    for op, design in enumerate(order):
        HOST.between_ops()
        res.attempted += 1
        try:
            started = time.perf_counter()
            build = cli_build(design_network(design))
            untraced_ms += (time.perf_counter() - started) * 1000.0
            summary = build_summary(build)
            del build
            replay.op = op
            with spans.span("op", op):
                network = replay.parse(design, design.texts or ())
                modules = {m.name: replay.module(m) for m in network.machines}
                rtos = replay.rtos(network, modules)
        except Exception as exc:  # noqa: BLE001 - a raising build is a failed op
            res.failed += 1
            res.problems.append(f"build {design.name}: {type(exc).__name__}: {exc}")
            continue
        mismatched += [f"{design.name}/{m}" for m in replay_mismatches(summary, modules, rtos)]
        oracle.add(design, summary)
        op_designs.append(design.name)
    res.info["replay_mismatches"] = mismatched
    oracle.finish(op_designs)
    layer_metrics(res, spans, replay.metrics(), untraced_ms)
    res.info["spans"] = spans


# -- rebuild-parallel -------------------------------------------------------------------

#: ``repro build --jobs 2``: one worker per core on the reference machine.
JOBS = 2
REBUILD_MIN_OPS = 100  # ten beyond p90
REBUILD_MIN_OPS_SMALL = 10


def _rebuild_setup(args) -> Tuple[List[Design], Tuple[str, int]]:
    calibrate(K11)
    designs = reference_designs()
    return designs, _fill(args, designs)


def _fill(args, designs: List[Design]) -> Tuple[str, int]:
    """Fill a fresh cache with every design, in edit-loop visiting order."""
    directory = fresh_dir(f"cache-{time.perf_counter_ns()}")
    for design in EditLoop(designs, args.seed).fill_order():
        cli_build(design_network(design), jobs=JOBS, cache=ArtifactCache(directory))
    # Stating every entry also gives later hits fine-grained mtimes.
    return directory, ArtifactCache(directory).total_bytes()


def cache_cap(live_bytes: int) -> int:
    """``--cache-max-bytes``: twice the filled cache.

    Every edit writes new entries, so a run writes many times this and
    LRU eviction runs on most ops.  The slack holds about two cycles of
    superseded entries, and every design's live entries were touched
    within the last cycle, so eviction only ever removes superseded
    entries: the hit, miss and eviction counts of a seed repeat exactly.
    """
    return 2 * live_bytes


class TimedCache:
    """The real cache, its calls timed; passed to ``build_system`` as ``cache=``."""

    def __init__(self, cache: ArtifactCache, spans: Spans, op: int):
        self.cache = cache
        self.spans = spans
        self.op = op
        self.bytes_written = 0

    def get(self, key: str):
        with self.spans.span("pipeline.cache.lookup", self.op):
            return self.cache.get(key)

    def put(self, key: str, payload: Any) -> None:
        with self.spans.span("pipeline.cache.store", self.op):
            self.cache.put(key, payload)
        self.bytes_written += len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def metrics_dict(self) -> Dict[str, float]:
        with self.spans.span("pipeline.cache.stats", self.op):
            return self.cache.metrics_dict()


def rebuild_parallel(args) -> Result:
    """The edit loop: ``repro build --jobs 2 --cache-dir D --cache-max-bytes B``."""
    res = Result()
    fills = []
    for _ in range(SETUP_REPEATS):
        (designs, fill), span = HOST.timed(lambda: _rebuild_setup(args))
        fills.append(fill)
        res.setup.add(*span)
    cap = cache_cap(fills[-1][1])
    res.info["cache_max_bytes"] = cap
    if args.trace:
        _rebuild_traced(args, designs, fills[1][0], fills[2][0], cap, res)
        return res

    min_ops = REBUILD_MIN_OPS_SMALL if args.small else REBUILD_MIN_OPS
    loop = EditLoop(designs, args.seed)
    directory = fills[-1][0]
    ops = Intervals()
    op_designs: List[str] = []
    op_kinds: List[str] = []
    last: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {}
    modules = 0
    counts = {"hits": 0, "misses": 0, "evictions": 0}
    oracle = Oracle(res, args.seed, sum(len(d.module_names) for d in designs), args.seconds)
    deadline = time.perf_counter() + args.seconds
    while not (loop.at_period_start and time.perf_counter() >= deadline
               and res.attempted >= min_ops):
        design, sources = loop.next()
        res.attempted += 1
        started = time.perf_counter()
        try:
            cache = ArtifactCache(directory, max_bytes=cap)
            build = cli_build(design_network(design, sources), jobs=JOBS, cache=cache)
        except Exception as exc:  # noqa: BLE001 - a raising build is a failed op
            res.failed += 1
            res.problems.append(f"rebuild {design.name}: {type(exc).__name__}: {exc}")
            continue
        ops.add(started, time.perf_counter())
        op_designs.append(design.name)
        op_kinds.append(loop.last_edit)
        modules += len(build.modules)
        for key in counts:
            counts[key] += getattr(cache, key)
        last[design.name] = (sources, build_summary(build))
        oracle.add(design, last[design.name][1])
        oracle.pace()
        HOST.between_ops()
    res.info["cache"] = counts
    HOST.sample(WINDOW_MIN)  # the last op's window
    scaled = ops.reference_ms()
    res.info["latency_by_kind"] = {
        kind: {"ops": len(ms), "p50_ms": median(ms)}
        for kind in sorted(set(op_kinds))
        for ms in [[t for t, k in zip(scaled, op_kinds) if k == kind]]
    }
    op_metrics(res, ops, modules)
    code_metrics(res, [summary for _, summary in last.values()])
    _serial_identity(designs, last, res)
    oracle.finish(op_designs)
    return res


def _serial_identity(designs: List[Design],
                     last: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]],
                     res: Result) -> None:
    """Each design's last cached ``--jobs 2`` build against a serial no-cache one."""
    by_name = {d.name: d for d in designs}
    for name, (sources, summary) in last.items():
        serial = build_summary(cli_build(design_network(by_name[name], sources)))
        if not res.check("serial-identity", serial == summary,
                         f"{name}: jobs-{JOBS} cached build differs from serial no-cache"):
            res.failed += 1


def _rebuild_traced(args, designs: List[Design], untraced_dir: str, traced_dir: str,
                    cap: int, res: Result) -> None:
    """The same seeded edits twice, on two identical fresh fills.

    First untraced (the tracing-overhead baseline), then traced: parse
    and the pooled build under spans, cache calls through
    :class:`TimedCache`, then the pending modules replayed in-process
    (outside the op) to split the pooled step into layers.
    """
    period = len(EditLoop.PERIOD)
    ops = REBUILD_MIN_OPS_SMALL if args.small else max(REBUILD_MIN_OPS_SMALL, 3 * int(args.seconds))
    ops = -(-ops // period) * period  # whole periods
    loop = EditLoop(designs, args.seed)
    untraced_ms = 0.0
    for _ in range(ops):
        HOST.between_ops()
        design, sources = loop.next()
        started = time.perf_counter()
        cli_build(design_network(design, sources), jobs=JOBS,
                  cache=ArtifactCache(untraced_dir, max_bytes=cap))
        untraced_ms += (time.perf_counter() - started) * 1000.0

    spans = Spans()
    replay = Replay(spans)
    loop = EditLoop(designs, args.seed)
    values = {"pipeline.cache.hits": 0, "pipeline.cache.misses": 0,
              "pipeline.cache.evictions": 0, "pipeline.cache.bytes_written": 0,
              "pipeline.parallel.tasks": 0}
    mismatched: List[str] = []
    last = {}
    op_designs: List[str] = []
    oracle = Oracle(res, args.seed, sum(len(d.module_names) for d in designs), args.seconds)
    for op in range(ops):
        HOST.between_ops()
        design, sources = loop.next()
        res.attempted += 1
        replay.op = op
        try:
            cache = TimedCache(ArtifactCache(traced_dir, max_bytes=cap), spans, op)
            with spans.span("op", op):
                network = replay.parse(design, sources)
                with spans.span("pipeline.build", op):
                    build = cli_build(network, jobs=JOBS, cache=cache)
            summary = build_summary(build)
            pending = [m for m in network.machines if not build.modules[m.name].from_cache]
            with spans.span("reference", op):
                modules = {m.name: replay.module(m) for m in pending}
                everything = {name: {"program": m.program,
                                     "copied": len(m.copied_state_vars)}
                              for name, m in build.modules.items()}
                everything.update(modules)
                rtos = replay.rtos(network, everything)
        except Exception as exc:  # noqa: BLE001 - a raising build is a failed op
            res.failed += 1
            res.problems.append(f"rebuild {design.name}: {type(exc).__name__}: {exc}")
            continue
        mismatched += [f"{design.name}/{m}" for m in replay_mismatches(summary, modules, rtos)]
        values["pipeline.cache.hits"] += cache.cache.hits
        values["pipeline.cache.misses"] += cache.cache.misses
        values["pipeline.cache.evictions"] += cache.cache.evictions
        values["pipeline.cache.bytes_written"] += cache.bytes_written
        values["pipeline.parallel.tasks"] += len(pending)
        last[design.name] = (sources, summary)
        op_designs.append(design.name)
        oracle.add(design, summary)
    lookups = values["pipeline.cache.hits"] + values["pipeline.cache.misses"]
    values["pipeline.cache.hit_ratio"] = values["pipeline.cache.hits"] / lookups
    values.update(replay.metrics())
    res.info["replay_mismatches"] = mismatched
    _serial_identity(designs, last, res)
    oracle.finish(op_designs)
    layer_metrics(res, spans, values, untraced_ms)
    res.info["spans"] = spans


WORKLOADS = {"build-cold": build_cold, "rebuild-parallel": rebuild_parallel}
