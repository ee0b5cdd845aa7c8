"""One reporter for both trace formats (the ``repro report`` backend).

Given any trace document — a build trace from ``repro build --trace`` or a
run trace from ``repro simulate --run-trace`` — render the summary tables
the paper reports ad hoc: where the synthesis wall time went and how warm
the cache was (build), and how the CPU was shared, which events were lost,
and what the observed latencies were (run).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .core import Histogram, read_trace_file
from .runtrace import RunTrace
from .schema import (
    BDD_BENCH_FORMAT,
    BENCH_HISTORY_FORMAT,
    BUILD_TRACE_FORMAT,
    DIFFTEST_REPORT_FORMAT,
    DIFFTEST_REPRO_FORMAT,
    SERVE_BENCH_FORMAT,
    SIM_BENCH_FORMAT,
    VERIFY_REPORT_FORMAT,
    validate_trace,
)

__all__ = ["render_build_report", "render_run_report",
           "render_difftest_report", "render_difftest_repro",
           "render_verify_report", "render_bdd_bench", "render_sim_bench",
           "render_serve_bench", "render_report", "report_file"]


def _rule(title: str) -> str:
    return f"== {title} " + "=" * max(0, 58 - len(title))


def _series(values: List[Any], fmt: str = "{}", points: int = 6) -> str:
    """A compact ``a -> b -> c`` rendering of a sampled curve.

    Long series are decimated to ``points`` evenly spaced samples
    (always keeping the first and last) so a thousand-block sift still
    renders on one line.
    """
    if not values:
        return "-"
    if len(values) > points:
        step = (len(values) - 1) / (points - 1)
        values = [values[round(i * step)] for i in range(points)]
    return " -> ".join(fmt.format(v) for v in values)


def _provenance_line(provenance: Dict[str, Any]) -> str:
    """Where a bench document's figures were taken, in one line."""
    if not provenance:
        return "provenance: not recorded"
    host = ("nproc", "python", "git_revision")
    return "provenance: " + ", ".join(
        [f"{key}={provenance.get(key)}" for key in host]
        + [f"{k}={v}" for k, v in sorted(provenance.items()) if k not in host]
    )


# ----------------------------------------------------------------------
# Build traces
# ----------------------------------------------------------------------


def render_build_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-build-trace/v1`` document."""
    events = doc.get("events", [])
    summary = doc.get("summary", {})
    metrics = doc.get("metrics", {}) or {}
    lines = [_rule("build trace")]
    lines.append(
        f"{summary.get('events', len(events))} events, "
        f"{summary.get('synthesis_passes', 0)} synthesis passes, "
        f"{summary.get('wall_ms', 0.0):.1f} ms instrumented"
    )
    if doc.get("trace_id"):
        lanes = sorted({
            e.get("lane") for e in events
            if isinstance(e, dict) and e.get("lane") is not None
        })
        workers = sum(1 for lane in lanes if lane != 0)
        lines.append(
            f"trace {doc['trace_id']}: {len(lanes)} lanes "
            f"(coordinator + {workers} worker lanes)"
        )

    # Prefer the cache's own exported metrics (which include evictions
    # and bytes); ad-hoc event counters are the fallback for old docs.
    if "cache_hits" in metrics or "cache_misses" in metrics:
        hits = int(metrics.get("cache_hits", 0))
        misses = int(metrics.get("cache_misses", 0))
    else:
        hits = summary.get("cache_hits", 0)
        misses = summary.get("cache_misses", 0)
    if hits + misses:
        rate = 100.0 * hits / (hits + misses)
        line = f"cache: {hits} hits / {misses} misses ({rate:.0f}% hit rate)"
        if "cache_evictions" in metrics:
            line += (
                f", {int(metrics['cache_evictions'])} evictions, "
                f"{int(metrics.get('cache_bytes', 0))} bytes stored"
            )
        lines.append(line)
    else:
        lines.append("cache: not used")
    other_metrics = {
        k: v for k, v in metrics.items() if not k.startswith("cache_")
    }
    if other_metrics:
        lines.append(
            "counters: " + ", ".join(
                f"{k}={v:g}" for k, v in sorted(other_metrics.items())
            )
        )

    passes = [e for e in events if e.get("kind") == "pass"]
    stages = [e for e in events if e.get("kind") == "stage"]

    if passes:
        lines.append("")
        lines.append(f"top {min(top, len(passes))} slowest passes:")
        lines.append(f"  {'module':16s} {'pass':12s} {'wall ms':>9s}  metrics")
        slowest = sorted(passes, key=lambda e: -e.get("wall_ms", 0.0))[:top]
        for e in slowest:
            metrics = e.get("metrics", {})
            shown = ", ".join(
                f"{k}={v}" for k, v in metrics.items()
                if not isinstance(v, (dict, list))
            )
            lines.append(
                f"  {e.get('module', '?'):16s} {e.get('name', '?'):12s} "
                f"{e.get('wall_ms', 0.0):9.2f}  {shown}"
            )

    # Sifting trajectories: the per-sample curves recorded by the order
    # pass (live size, ITE-cache hit rate) rendered as compact series.
    curves = [
        (e.get("module", "?"), e["metrics"]["sift_timeline"])
        for e in passes
        if isinstance(e.get("metrics"), dict)
        and isinstance(e["metrics"].get("sift_timeline"), list)
        and e["metrics"]["sift_timeline"]
    ]
    if curves:
        lines.append("")
        lines.append("sift trajectories (size / ITE hit rate over reordering):")
        for module, timeline in curves[:top]:
            sizes = [p.get("size") for p in timeline if "size" in p]
            rates = [
                p["ite_hit_rate"] for p in timeline if "ite_hit_rate" in p
            ]
            live = [p["live_nodes"] for p in timeline if "live_nodes" in p]
            line = f"  {module:16s} size {_series(sizes)}"
            if rates:
                line += f" | ite hit rate {_series(rates, fmt='{:.2f}')}"
            if live:
                line += f" | live {_series(live)}"
            lines.append(line)

    if stages:
        by_stage: Dict[str, float] = {}
        for e in stages:
            by_stage[e.get("name", "?")] = (
                by_stage.get(e.get("name", "?"), 0.0) + e.get("wall_ms", 0.0)
            )
        lines.append("")
        lines.append("wall time by stage:")
        for name, wall in sorted(by_stage.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:16s} {wall:9.2f} ms")

    by_module: Dict[str, float] = {}
    for e in passes + stages:
        by_module[e.get("module", "?")] = (
            by_module.get(e.get("module", "?"), 0.0) + e.get("wall_ms", 0.0)
        )
    if by_module:
        lines.append("")
        lines.append("wall time by module:")
        for name, wall in sorted(by_module.items(), key=lambda kv: -kv[1])[:top]:
            lines.append(f"  {name:16s} {wall:9.2f} ms")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run traces
# ----------------------------------------------------------------------


def render_run_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-run-trace/v1`` document."""
    run = RunTrace.from_dict(doc)
    stats = run.stats
    counts = run.counts()
    span = max(run.span, stats.get("span", 0), 1)

    lines = [_rule(f"run trace: {run.system} ({run.policy})")]
    lines.append(
        f"{len(run.events)} events over {span:,} cycles; "
        f"{counts.get('dispatch', 0)} dispatches, "
        f"{counts.get('preempt', 0)} preemptions, "
        f"{counts.get('isr', 0)} interrupts, "
        f"{counts.get('poll', 0)} polls"
    )
    if "utilization" in stats:
        lines.append(f"CPU utilization: {stats['utilization']:.2%}")

    share = run.cpu_share()
    if share:
        dispatches: Dict[str, int] = {}
        preempted: Dict[str, int] = {}
        for e in run.events:
            if e.kind in ("dispatch", "isr_dispatch"):
                dispatches[e["task"]] = dispatches.get(e["task"], 0) + 1
            elif e.kind == "preempt":
                preempted[e["task"]] = preempted.get(e["task"], 0) + 1
        busy = sum(share.values())
        lines.append("")
        lines.append("per-task CPU share:")
        lines.append(
            f"  {'task':20s} {'cycles':>10s} {'of busy':>8s} {'of span':>8s} "
            f"{'runs':>5s} {'preempted':>9s}"
        )
        for task, cycles in sorted(share.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {task:20s} {cycles:10,d} {cycles / busy:8.1%} "
                f"{cycles / span:8.1%} {dispatches.get(task, 0):5d} "
                f"{preempted.get(task, 0):9d}"
            )

    lost = run.lost_event_table()
    lines.append("")
    if lost:
        lines.append(f"lost events ({counts.get('lost', 0)} overwrites):")
        lines.append(f"  {'event':16s} {'task':20s} {'lost':>5s}")
        for event, task, n in lost[:top]:
            lines.append(f"  {event:16s} {task:20s} {n:5d}")
    else:
        lines.append("lost events: none")

    emissions: Dict[str, int] = {}
    for e in run.by_kind("emit"):
        emissions[e["event"]] = emissions.get(e["event"], 0) + 1
    if emissions:
        lines.append("")
        lines.append("emissions:")
        for event, n in sorted(emissions.items(), key=lambda kv: (-kv[1], kv[0]))[:top]:
            lines.append(f"  {event:16s} {n:5d}")

    if run.probes:
        lines.append("")
        lines.append("latency probes:")
        for probe in run.probes:
            hist = Histogram()
            for sample in probe.get("samples", []):
                hist.observe(sample)
            label = f"{probe.get('source')} -> {probe.get('sink')}"
            if not hist.count:
                lines.append(f"  {label}: no samples")
                continue
            lines.append(
                f"  {label}: n={hist.count} min={hist.minimum:g} "
                f"avg={hist.average:.0f} p50={hist.percentile(50):g} "
                f"p90={hist.percentile(90):g} p99={hist.percentile(99):g} "
                f"max={hist.maximum:g} cycles"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Difftest campaign reports and replay documents
# ----------------------------------------------------------------------


def render_difftest_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-difftest/v1`` conformance-fuzzing report."""
    summary = doc.get("summary", {})
    options = doc.get("options", {})
    lines = [_rule(f"conformance fuzz: seed {doc.get('seed')}")]
    lines.append(
        f"{summary.get('cases', 0)} cases, "
        f"{summary.get('reactions', 0)} reactions cross-checked over "
        f"5 layers; {summary.get('failures', 0)} failures, "
        f"{summary.get('skipped', 0)} skipped "
        f"({summary.get('wall_ms', 0)} ms, jobs={doc.get('jobs', 1)})"
    )
    if options:
        lines.append(
            f"schemes: {', '.join(options.get('schemes', []))}; "
            f"profile {options.get('profile', '?')}; "
            f"est tolerance {options.get('est_tolerance', '?')}"
            + (f"; injected fault: {options['inject']}"
               if options.get("inject") else "")
        )
    ratios = summary.get("estimate_max_over_measured")
    if ratios:
        lines.append(
            "estimator max-cycles / measured max-cycles: "
            f"min {ratios.get('min')}, mean {ratios.get('mean')}, "
            f"max {ratios.get('max')}"
        )
    by_layer = summary.get("mismatches_by_layer", {})
    if by_layer:
        lines.append("")
        lines.append("mismatches by layer:")
        for layer, count in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:12s} {count:5d}")
    failures = doc.get("failures", [])
    if failures:
        lines.append("")
        lines.append(f"first {min(top, len(failures))} failures:")
        for failure in failures[:top]:
            first = (failure.get("mismatches") or [{}])[0]
            repro = failure.get("repro")
            shrunk = ""
            if repro:
                spec = repro.get("cfsm", {})
                space = 1
                for var in spec.get("state_vars", []):
                    space *= var.get("num_values", 1)
                shrunk = (
                    f" [shrunk: {len(spec.get('transitions', []))} transitions,"
                    f" {space} states, {len(repro.get('snapshots', []))}"
                    f" snapshots]"
                )
            lines.append(
                f"  case {failure.get('index')}: {first.get('layer')}/"
                f"{first.get('kind')} — {first.get('detail', '')[:80]}{shrunk}"
            )
    else:
        lines.append("")
        lines.append("all layers agree on every reaction.")
    skipped = doc.get("skipped_cases", [])
    if skipped:
        lines.append("")
        lines.append("skipped cases:")
        for entry in skipped[:top]:
            lines.append(
                f"  case {entry.get('index')}: {entry.get('reason', '')[:80]}"
            )
    return "\n".join(lines)


def render_difftest_repro(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-difftest-repro/v1`` replay document."""
    spec = doc.get("cfsm", {})
    failure = doc.get("failure", {})
    origin = doc.get("origin", {})
    space = 1
    for var in spec.get("state_vars", []):
        space *= var.get("num_values", 1)
    lines = [_rule(f"difftest repro: {spec.get('name', '?')}")]
    lines.append(
        f"{len(spec.get('transitions', []))} transitions, "
        f"{len(spec.get('state_vars', []))} state vars ({space} states), "
        f"{len(spec.get('inputs', []))} inputs, "
        f"{len(spec.get('outputs', []))} outputs, "
        f"{len(doc.get('snapshots', []))} failing snapshots"
    )
    lines.append(
        f"failure: {failure.get('layer')}/{failure.get('kind')} — "
        f"{failure.get('detail', '')[:100]}"
    )
    lines.append(
        f"origin: seed {origin.get('seed')}, case {origin.get('index')}, "
        f"scheme {origin.get('scheme')}, profile {origin.get('profile')}"
        + (f", injected fault {origin['inject']}"
           if origin.get("inject") else "")
    )
    lines.append("replay with: repro fuzz --replay <this file>")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Verify reports
# ----------------------------------------------------------------------


def render_verify_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-verify-report/v1`` static-verifier document."""
    summary = doc.get("summary", {})
    lines = [_rule(
        f"static verify: {doc.get('design', '?')} "
        f"({doc.get('scheme', '?')}, {doc.get('profile', '?')})"
    )]
    lines.append(
        f"{summary.get('modules', 0)} modules verified; "
        f"{summary.get('errors', 0)} error(s), "
        f"{summary.get('warnings', 0)} warning(s), "
        f"{summary.get('infos', 0)} info"
    )
    modules = doc.get("modules", [])
    if modules:
        lines.append("")
        lines.append("per-module cycle bounds (estimate vs exact):")
        lines.append(
            f"  {'module':20s} {'est min':>8s} {'est max':>8s} "
            f"{'exact min':>9s} {'exact max':>9s} {'size':>6s}"
        )
        for module in modules:
            est = module.get("estimate", {})
            meas = module.get("measured", {})
            lines.append(
                f"  {module.get('module', '?'):20s} "
                f"{est.get('min_cycles', 0):8d} {est.get('max_cycles', 0):8d} "
                f"{meas.get('min_cycles', 0):9d} "
                f"{meas.get('max_cycles', 0):9d} "
                f"{meas.get('code_size', 0):6d}"
            )
    diagnostics = [
        d for d in doc.get("diagnostics", [])
        if d.get("severity") in ("error", "warning")
    ]
    lines.append("")
    if diagnostics:
        lines.append(f"first {min(top, len(diagnostics))} findings:")
        for diag in diagnostics[:top]:
            where = diag.get("artifact", "?")
            if diag.get("location"):
                where += f":{diag['location']}"
            lines.append(
                f"  {where}: {diag.get('severity')}: "
                f"[{diag.get('check')}] {diag.get('message', '')[:80]}"
            )
    else:
        lines.append("no errors or warnings.")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# BDD-engine benchmark reports
# ----------------------------------------------------------------------


def _speedup(scenario: Dict[str, Any]) -> str:
    speedup = scenario.get("speedup")
    return f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else "-"


def render_bdd_bench(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-bdd-bench/v2`` report (BENCH_bdd.json)."""
    del top  # uniform renderer signature; this report has no top-N table
    lines = [_rule("BDD engine bench" + (" (smoke)" if doc.get("smoke") else ""))]
    workloads = doc.get("workloads", {})
    if workloads:
        lines.append(f"  {'workload':18s} {'ops':>7s} {'wall s':>9s} {'ops/s':>11s}")
        for name, wl in sorted(workloads.items()):
            lines.append(
                f"  {name:18s} {wl.get('ops', 0):7d} "
                f"{wl.get('wall_s', 0.0):9.4f} {wl.get('ops_per_sec', 0.0):11,.1f}"
            )
    sift = doc.get("sift", {})
    if sift:
        lines.append("")
        lines.append(
            f"  {'sift scenario':18s} {'swaps':>7s} {'skips':>7s} "
            f"{'collects':>8s} {'final':>7s} {'wall s':>9s} {'speedup':>8s}"
        )
        for name, sc in sorted(sift.items()):
            lines.append(
                f"  {name:18s} {sc.get('swaps', 0):7d} "
                f"{sc.get('swap_skips', 0):7d} {sc.get('collects', 0):8d} "
                f"{sc.get('final_size', 0):7d} {sc.get('wall_s', 0.0):9.4f} "
                f"{_speedup(sc):>8s}"
            )
        for name, sc in sorted(sift.items()):
            if "engine_speedup" in sc:
                lines.append(
                    f"  {name} engines, interleaved: native "
                    f"{sc.get('wall_s', 0.0):.4f} s, python "
                    f"{sc.get('python_wall_s', 0.0):.4f} s "
                    f"({sc['engine_speedup']:.2f}x)"
                )
    reactive = doc.get("reactive")
    if reactive:
        lines.append("")
        lines.append(
            f"reactive: {reactive.get('modules', 0)} modules, "
            f"chi {reactive.get('chi_size', 0)} nodes, "
            f"{reactive.get('ite_misses', 0)} ITE misses, "
            f"peak {reactive.get('peak_nodes', 0)} nodes, "
            f"{reactive.get('wall_s', 0.0):.4f} s ({_speedup(reactive)})"
        )
    lines.append("")
    lines.append(_provenance_line(doc.get("provenance", {})))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet-simulation benchmark reports
# ----------------------------------------------------------------------


def render_sim_bench(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-sim-bench/v1`` report (BENCH_sim.json)."""
    del top  # uniform renderer signature; this report has no top-N table
    lines = [_rule(f"fleet simulation bench: {doc.get('network', '?')}")]
    lines.append(
        f"{doc.get('instances', 0):,} instances x {doc.get('steps', 0):,} "
        f"steps; {doc.get('kernel_ops', 0):,} plane ops per network step"
        + (" (smoke)" if doc.get("smoke") else "")
    )
    scalar = doc.get("scalar", {})
    lines.append("")
    lines.append(
        f"  {'engine':12s} {'reactions':>12s} {'wall s':>9s} "
        f"{'reactions/s':>13s} {'speedup':>8s} {'over int':>9s}"
    )
    lines.append(
        f"  {'scalar':12s} {scalar.get('reactions', 0):12,d} "
        f"{scalar.get('wall_s', 0.0):9.3f} "
        f"{scalar.get('reactions_per_sec', 0.0):13,.0f} {'1.0x':>8s}"
    )
    for name, leg in sorted(doc.get("backends", {}).items()):
        engine = leg.get("engine_speedup")
        lines.append(
            f"  {'fleet/' + name:12s} {leg.get('reactions', 0):12,d} "
            f"{leg.get('wall_s', 0.0):9.3f} "
            f"{leg.get('reactions_per_sec', 0.0):13,.0f} "
            f"{leg.get('speedup', 0.0):7.1f}x"
            + (f" {engine:8.2f}x" if engine is not None else "")
        )
    compile_ = doc.get("kernel_compile")
    if compile_:
        lines.append(
            f"  kernel compile {compile_.get('wall_s', 0.0) * 1000:.2f} ms"
        )
    crosscheck = doc.get("crosscheck", {})
    lines.append("")
    lines.append(
        f"cross-check: {crosscheck.get('lanes', 0)} lanes vs the scalar "
        f"simulator, {crosscheck.get('mismatches', 0)} mismatches"
    )
    determinism = doc.get("determinism", {})
    if determinism:
        verdict = "identical" if determinism.get("match") else "DIVERGED"
        lines.append(
            f"determinism: --jobs 1 vs --jobs 4 fleet digests {verdict} "
            f"({determinism.get('jobs1_digest', '')[:16]}...)"
        )
    lines.append(_provenance_line(doc.get("provenance", {})))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Serving benchmark reports
# ----------------------------------------------------------------------


def render_serve_bench(doc: Dict[str, Any], top: int = 10) -> str:
    """Summarize a ``repro-serve-bench/v1`` report (BENCH_serve.json)."""
    del top  # uniform renderer signature; this report has no top-N table
    config = doc.get("config", {})
    lines = [_rule("serve bench")]
    lines.append(
        f"{config.get('clients', 0)} concurrent clients against "
        f"--jobs {config.get('jobs', 0)} "
        f"(queue depth {config.get('queue_depth', 0)})"
        + (" (smoke)" if doc.get("smoke") else "")
    )
    latency = doc.get("latency", {})
    if latency:
        lines.append("")
        lines.append(
            f"  {'mix':14s} {'requests':>8s} {'rps':>8s} "
            f"{'p50 ms':>9s} {'p90 ms':>9s} {'p99 ms':>9s}"
        )
        for name, leg in sorted(latency.items()):
            lines.append(
                f"  {name:14s} {leg.get('requests', 0):8d} "
                f"{leg.get('throughput_rps', 0.0):8.1f} "
                f"{leg.get('p50_ms', 0.0):9.1f} "
                f"{leg.get('p90_ms', 0.0):9.1f} "
                f"{leg.get('p99_ms', 0.0):9.1f}"
            )
    cache = doc.get("cache", {})
    if cache:
        cold = cache.get("cold", {})
        warm = cache.get("warm", {})
        lines.append("")
        lines.append(
            f"cache: cold {cold.get('throughput_rps', 0.0):.1f} rps -> "
            f"warm {warm.get('throughput_rps', 0.0):.1f} rps "
            f"({cache.get('warm_over_cold', 0.0):.1f}x)"
        )
    conformance = doc.get("conformance", {})
    if conformance:
        verdict = (
            "byte-identical" if conformance.get("mismatches", 1) == 0
            else f"{conformance['mismatches']} MISMATCHES"
        )
        lines.append(
            f"conformance: {conformance.get('requests', 0)} served responses "
            f"vs direct library calls — {verdict}"
        )
    backpressure = doc.get("backpressure", {})
    if backpressure:
        lines.append(
            f"backpressure: {backpressure.get('rejected', 0)}/"
            f"{backpressure.get('attempts', 0)} rejected at capacity, "
            f"retry-after {backpressure.get('retry_after_ms', 0.0):.0f} ms"
        )
    soak = doc.get("soak", {})
    if soak:
        lines.append(
            f"soak: {soak.get('requests', 0)} requests, "
            f"{soak.get('errors', 0)} errors, "
            f"{soak.get('leaked_workers', 0)} leaked workers, "
            f"{soak.get('pin_files', 0)} stale cache pins"
        )
    lines.append(_provenance_line(doc.get("provenance", {})))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def render_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Render the right report for any trace document."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == BUILD_TRACE_FORMAT:
        return render_build_report(doc, top=top)
    if fmt == RunTrace.FORMAT:
        return render_run_report(doc, top=top)
    if fmt == DIFFTEST_REPORT_FORMAT:
        return render_difftest_report(doc, top=top)
    if fmt == DIFFTEST_REPRO_FORMAT:
        return render_difftest_repro(doc, top=top)
    if fmt == VERIFY_REPORT_FORMAT:
        return render_verify_report(doc, top=top)
    if fmt == BDD_BENCH_FORMAT:
        return render_bdd_bench(doc, top=top)
    if fmt == SIM_BENCH_FORMAT:
        return render_sim_bench(doc, top=top)
    if fmt == SERVE_BENCH_FORMAT:
        return render_serve_bench(doc, top=top)
    if fmt == BENCH_HISTORY_FORMAT:
        from .history import render_history

        return render_history(doc)
    raise ValueError(f"unknown trace format {fmt!r}")


def report_file(path: str, top: int = 10, validate: bool = True) -> str:
    """Load ``path``, optionally validate it, and render its report."""
    _, doc = read_trace_file(path)
    lines: List[str] = []
    if validate:
        errors = validate_trace(doc)
        if errors:
            raise ValueError(
                f"{path}: invalid trace document:\n"
                + "\n".join(f"  - {e}" for e in errors)
            )
    lines.append(render_report(doc, top=top))
    return "\n".join(lines)
