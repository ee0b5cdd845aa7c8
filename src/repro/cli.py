"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

* ``synth``    — compile one RSL module through the full flow and emit C,
  target assembly, a DOT graph, or the s-graph listing, with optional
  cost/performance estimates;
* ``rtos``     — compile a set of RSL modules as a network and emit the
  generated RTOS (plus, optionally, every reaction module) as one C file;
* ``build``    — the whole co-synthesis flow: synthesize every module,
  generate the RTOS, estimate/measure costs, optionally validate the
  schedule from environment event rates, and write a C project directory;
* ``check``    — explore an RSL module's state space and check invariants
  given as Python expressions over the state variables;
* ``lint``     — static analysis of a set of RSL modules: network-level
  hazards, s-graph well-formedness, and generated-C sanity checks, with
  text, JSON or SARIF output and stable exit codes (0 clean, 1 findings
  at or above ``--fail-on``, 2 usage error);
* ``verify``   — the deep tier: whole-program dataflow verification of
  every fully built module (BDD path conditions over the s-graph,
  value-range and liveness analyses over the generated C, independent
  cycle-bound recomputation cross-checked against ``analyze_program``
  and the estimator) plus static lost-event detection for the network
  under an RTOS configuration; same outputs and exit codes as ``lint``;
* ``simulate`` — build a network and run it on the RTOS simulator under a
  stimulus scenario, with optional run-trace (``repro-run-trace/v1``),
  Chrome trace-event export, metrics dump, and latency probes;
* ``report``   — summarize any repro trace JSON file (build or run trace)
  as a human-readable report: slowest passes, cache hit rate, per-task
  CPU share, lost events, latency histograms;
* ``fleet``    — fleet-scale batched simulation: compile the network's
  synthesized evaluators into bit-sliced kernels and step thousands of
  instances at once (one fleet instance per bit lane), sharded over the
  process pool under seeded per-lane stimulus; ``--check N`` replays N
  sampled lanes through the scalar simulator and fails on any divergence;
* ``fuzz``     — differential conformance fuzzing: random CFSMs are run
  through all five executable layers (reference semantics, BDD
  characteristic function, s-graph, generated C, target ISA) and every
  reaction is cross-checked bit for bit, with measured cycles held to the
  estimator's [min, max] bounds; failures are shrunk to minimal replayable
  repros (``--replay`` re-checks one);
* ``serve``    — synthesis-as-a-service: a daemon accepting concurrent
  synthesize / estimate / simulate / fleet / fuzz requests over a
  length-prefixed JSON protocol, executed on a persistent worker pool
  with a shared artifact cache, bounded-queue admission control, and a
  causal per-request trace in every response;
* ``request``  — send one request to a running ``serve`` daemon and print
  the response (``ping``/``stats``/``shutdown`` are the control plane);
* ``bench-history`` — merge ``BENCH_*.json`` benchmark reports into one
  ``repro-bench-history/v1`` trend document and, with ``--check``, gate
  every tracked metric against a committed reference (exit 1 on any
  regression or missing metric);
* ``info``     — summarize a module: events, state variables, transitions,
  reactive-function statistics.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .codegen import generate_c
from .estimation import calibrate, estimate
from .frontend import compile_source
from .rtos import RtosConfig, SchedulingPolicy, generate_rtos_c
from .sgraph import SCHEMES, synthesize
from .target import PROFILES, analyze_program, compile_sgraph

__all__ = ["main"]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _make_cache(args):
    if getattr(args, "no_cache", False) or not getattr(args, "cache_dir", None):
        return None
    from .pipeline import ArtifactCache

    return ArtifactCache(
        args.cache_dir, max_bytes=getattr(args, "cache_max_bytes", None)
    )


def _finish_trace(args, trace) -> None:
    if getattr(args, "trace", None):
        trace.write(args.trace)
    if getattr(args, "chrome_trace", None):
        from .obs import write_build_chrome_trace

        write_build_chrome_trace(trace, args.chrome_trace)
        sys.stderr.write(f"wrote Chrome trace to {args.chrome_trace}\n")
    sys.stderr.write(trace.summary() + "\n")


def _name_values(items: Optional[List[str]], option: str, unit: str):
    """The ``NAME=INT`` items of a repeatable option, as a dict."""
    values = {}
    for item in items or []:
        name, _, value = item.partition("=")
        try:
            values[name] = int(value)
        except ValueError:
            raise SystemExit(f"{option} expects NAME={unit}, got {item!r}") from None
    return values


def _rtos_config(args) -> RtosConfig:
    return RtosConfig(
        policy=args.policy,
        priorities=_name_values(getattr(args, "priority", None),
                                "--priority", "P"),
        polled_events=set(args.polled or []),
        chains=[chain.split(",") for chain in (args.chain or [])],
    )


def _cmd_synth(args) -> int:
    from .pipeline import (
        BuildTrace,
        build_module_artifacts,
        module_cache_key,
        synthesis_options,
    )

    cfsm = compile_source(_read(args.module))
    profile = PROFILES[args.target]
    trace = BuildTrace()
    cache = _make_cache(args)

    # The cache can serve everything the serialized artifacts carry: the C
    # source (sans harness), the target assembly, and both estimate and
    # measurement.  DOT / s-graph dumps need the live BDD objects.
    cacheable = args.emit in ("c", "asm") and not (
        args.emit == "c" and args.harness
    )
    artifacts = result = None
    if cache is not None and cacheable:
        params = calibrate(profile)
        options = synthesis_options(
            scheme=args.scheme,
            multiway=not args.no_switch,
            copy_elimination=args.copy_elimination,
            reachability_dontcares=args.reachability_dontcares,
            params=params,
        )
        key = module_cache_key(cfsm, options, profile)
        artifacts = cache.get(key)
        trace.record_cache(cfsm.name, "hit" if artifacts else "miss", key)
        if artifacts is None:
            artifacts, result = build_module_artifacts(
                cfsm, options, profile, params, trace=trace
            )
            cache.put(key, artifacts)
    if artifacts is None:
        result = synthesize(
            cfsm,
            scheme=args.scheme,
            multiway=not args.no_switch,
            copy_elimination=args.copy_elimination,
            reachability_dontcares=args.reachability_dontcares,
            trace=trace,
        )

    if args.emit == "c":
        if artifacts is not None:
            _write(args.output, artifacts.c_source)
        else:
            _write(args.output, generate_c(result, include_harness=args.harness))
    elif args.emit == "asm":
        program = (
            artifacts.program if artifacts is not None
            else compile_sgraph(result, profile)
        )
        _write(args.output, program.listing())
    elif args.emit == "dot":
        _write(
            args.output,
            result.sgraph.to_dot(describe=result.reactive.manager.var_name),
        )
    elif args.emit == "sgraph":
        _write(
            args.output,
            result.sgraph.dump(describe=result.reactive.manager.var_name),
        )
    if args.estimate:
        if artifacts is not None:
            est, meas = artifacts.estimate, artifacts.measured
        else:
            params = calibrate(profile)
            est = estimate(
                result.sgraph,
                result.reactive.encoding,
                params,
                copy_vars=result.copy_vars,
            )
            program = compile_sgraph(result, profile)
            meas = analyze_program(program, profile)
        sys.stderr.write(
            f"[{cfsm.name}] estimated {est}; "
            f"measured size={meas.code_size}B "
            f"cycles=[{meas.min_cycles},{meas.max_cycles}] ({args.target})\n"
        )
    if args.trace:
        trace.write(args.trace)
    if args.chrome_trace:
        from .obs import write_build_chrome_trace

        write_build_chrome_trace(trace, args.chrome_trace)
    return 0


def _cmd_rtos(args) -> int:
    from .cfsm import Network

    machines = [compile_source(_read(path)) for path in args.modules]
    network = Network(args.name, machines)
    config = _rtos_config(args)
    parts: List[str] = []
    if args.include_reactions:
        for machine in machines:
            code = generate_c(
                synthesize(machine, scheme=args.scheme)
            )
            if parts:
                code = code.split("#endif /* REPRO_RUNTIME */", 1)[1]
            parts.append(code)
    parts.append(generate_rtos_c(network, config))
    _write(args.output, "\n".join(parts))
    return 0


def _cmd_build(args) -> int:
    from .cfsm import Network
    from .flow import build_system
    from .pipeline import BuildTrace
    from .target import PROFILES as _PROFILES

    machines = [compile_source(_read(path)) for path in args.modules]
    network = Network(args.name, machines)
    env_rates = _name_values(args.rate, "--rate", "CYCLES") if args.rate else None
    cache = _make_cache(args)
    trace = BuildTrace()
    build = build_system(
        network,
        profile=_PROFILES[args.target],
        env_rates=env_rates,
        jobs=args.jobs,
        cache=cache,
        trace=trace,
    )
    paths = build.write_to(args.output)
    sys.stderr.write(f"wrote {len(paths)} files to {args.output}\n")
    if cache is not None:
        sys.stderr.write(cache.stats() + "\n")
    _finish_trace(args, trace)
    print(build.report())
    if build.schedule is not None and not build.schedule.schedulable:
        return 1
    return 0


def _parse_stim(spec: str):
    """Parse one ``EVENT@TIME[=VALUE]`` stimulus spec."""
    from .rtos.runtime import Stimulus

    event, sep, rest = spec.partition("@")
    if not sep or not event:
        raise SystemExit(f"--stim expects EVENT@TIME[=VALUE], got {spec!r}")
    time_text, _, value_text = rest.partition("=")
    try:
        time = int(time_text)
        value = int(value_text) if value_text else None
    except ValueError:
        raise SystemExit(f"--stim expects EVENT@TIME[=VALUE], got {spec!r}")
    return Stimulus(time=time, event=event, value=value)


def _load_stim_file(path: str):
    """Load stimuli from JSON: a list (or ``{"stimuli": [...]}``) of
    ``{"time": T, "event": NAME[, "value": V]}`` objects."""
    import json

    from .rtos.runtime import Stimulus

    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    items = doc.get("stimuli", []) if isinstance(doc, dict) else doc
    stimuli = []
    for item in items:
        stimuli.append(
            Stimulus(
                time=int(item["time"]),
                event=str(item["event"]),
                value=item.get("value"),
            )
        )
    return stimuli


def _cmd_simulate(args) -> int:
    from .cfsm import Network
    from .flow import build_system
    from .obs import MetricsRegistry, RunTrace, write_chrome_trace
    from .target import PROFILES as _PROFILES

    machines = [compile_source(_read(path)) for path in args.modules]
    network = Network(args.name, machines)
    config = _rtos_config(args)
    build = build_system(
        network,
        profile=_PROFILES[args.target],
        config=config,
        scheme=args.scheme,
    )

    stimuli = [_parse_stim(spec) for spec in (args.stim or [])]
    if args.stim_file:
        stimuli.extend(_load_stim_file(args.stim_file))
    if not stimuli:
        sys.stderr.write("repro simulate: no stimuli given "
                         "(use --stim or --stim-file)\n")
        return 2
    probes = []
    for spec in args.probe or []:
        source, sep, sink = spec.partition(":")
        if not sep or not source or not sink:
            raise SystemExit(f"--probe expects SOURCE:SINK, got {spec!r}")
        probes.append((source, sink))

    run_trace = RunTrace() if (args.run_trace or args.chrome_trace) else None
    metrics = MetricsRegistry() if args.metrics else None
    runtime = build.simulate(
        stimuli,
        until=args.until,
        probes=probes,
        run_trace=run_trace,
        metrics=metrics,
    )

    stats = runtime.stats
    print(
        f"{network.name}: ran {args.until} cycles under {config.policy}: "
        f"{stats.dispatches} dispatches, {stats.preemptions} preemptions, "
        f"{stats.reactions} reactions, {stats.lost_events} lost events, "
        f"utilization {stats.utilization():.1%}"
    )
    for probe in runtime.probes:
        worst = probe.worst
        if worst is None:
            print(f"probe {probe.source}->{probe.sink}: no samples")
        else:
            print(
                f"probe {probe.source}->{probe.sink}: {len(probe.samples)} "
                f"samples, worst {worst}, p90 {probe.percentile(90)}"
            )
    if run_trace is not None and args.run_trace:
        run_trace.write(args.run_trace)
        sys.stderr.write(f"wrote run trace to {args.run_trace}\n")
    if run_trace is not None and args.chrome_trace:
        write_chrome_trace(run_trace, args.chrome_trace)
        sys.stderr.write(f"wrote Chrome trace to {args.chrome_trace}\n")
    if metrics is not None:
        print(metrics.render())
    return 0


def _cmd_report(args) -> int:
    from .obs import report_file

    try:
        print(report_file(args.trace, top=args.top, validate=not args.no_validate))
    except ValueError as exc:
        sys.stderr.write(f"repro report: {exc}\n")
        return 1
    return 0


def _cmd_check(args) -> int:
    from .verify import ReachabilityAnalysis

    cfsm = compile_source(_read(args.module))
    analysis = ReachabilityAnalysis(cfsm, max_states=args.max_states)
    count = analysis.reachable_count()
    sys.stderr.write(f"[{cfsm.name}] {count} reachable states\n")
    failures = 0
    for text in args.invariant or []:
        code = compile(text, "<invariant>", "eval")

        def predicate(state, _code=code):
            return bool(eval(_code, {"__builtins__": {}}, dict(state)))

        trace = analysis.check_invariant(predicate)
        if trace is None:
            print(f"PASS  {text}")
        else:
            failures += 1
            print(f"FAIL  {text}")
            print(trace.describe())
    return 1 if failures else 0


def _lint_preamble(args, command: str):
    """Shared ``lint``/``verify`` front matter.

    Handles ``--list-checks``, validates ``--check`` ids, and compiles the
    module sources.  Returns the machine list, or an int exit code when
    the command is already finished (or failed).
    """
    from .frontend.rsl import RslSyntaxError

    if args.list_checks:
        from .analysis import all_checks

        for registered in all_checks():
            print(
                f"{registered.id:24s} {registered.layer:14s} "
                f"{registered.severity!s:8s} {registered.description}"
            )
        return 0
    if not args.modules:
        sys.stderr.write(f"repro {command}: no modules given\n")
        return 2
    if args.check:
        from .analysis import all_checks

        known = {registered.id for registered in all_checks()}
        for check_id in args.check:
            if check_id not in known:
                sys.stderr.write(
                    f"repro {command}: unknown check '{check_id}' "
                    "(see --list-checks)\n"
                )
                return 2
    machines = []
    for path in args.modules:
        try:
            machines.append(compile_source(_read(path)))
        except (OSError, RslSyntaxError) as exc:
            sys.stderr.write(f"repro {command}: {path}: {exc}\n")
            return 2
    return machines


def _write_diagnostics(args, report, json_renderer) -> int:
    """Write a lint or verify report as SARIF, JSON or text; returns the
    exit code ``--fail-on`` gives it."""
    from .analysis import render_sarif, render_text

    if args.sarif:
        text = render_sarif(report)
    elif args.json:
        text = json_renderer(report, fail_on=args.fail_on)
    else:
        text = render_text(report, verbose=args.verbose)
    _write(args.output, text)
    return report.exit_code(args.fail_on)


def _cmd_lint(args) -> int:
    from .analysis import lint_design, render_json

    machines = _lint_preamble(args, "lint")
    if isinstance(machines, int):
        return machines
    report = lint_design(
        machines,
        design=args.name,
        scheme=args.scheme,
        only=args.check or None,
        jobs=args.jobs,
    )
    return _write_diagnostics(args, report, render_json)


def _cmd_verify(args) -> int:
    from .analysis import render_verify_json, verify_design

    machines = _lint_preamble(args, "verify")
    if isinstance(machines, int):
        return machines
    report = verify_design(
        machines,
        design=args.name,
        scheme=args.scheme,
        profile=args.target,
        rtos_config=_rtos_config(args),
        only=args.check or None,
        jobs=args.jobs,
        est_tolerance=args.est_tol,
    )
    return _write_diagnostics(args, report, render_verify_json)


def _cmd_fleet(args) -> int:
    import json

    from .cfsm import Network
    from .fleet import (
        FleetConfig,
        check_lanes,
        compile_network,
        load_spec,
        run_fleet,
    )

    if args.app:
        from . import apps

        network = getattr(apps, f"{args.app}_network")()
    elif args.modules:
        machines = [compile_source(_read(path)) for path in args.modules]
        network = Network(args.name, machines)
    else:
        sys.stderr.write(
            "repro fleet: no modules given (pass RSL files or --app)\n"
        )
        return 2
    try:
        spec = load_spec(args.stimulus, network) if args.stimulus else None
        config = FleetConfig(
            instances=args.instances,
            steps=args.steps,
            seed=args.seed,
            jobs=args.jobs,
            lanes_per_shard=args.lanes_per_shard,
            spec=spec,
        )
        config.shard_sizes()  # reject impossible sizes before compiling
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"repro fleet: {exc}\n")
        return 2
    trace = None
    if args.trace:
        from .pipeline import BuildTrace

        trace = BuildTrace()
    compile_started = time.perf_counter()
    compiled = compile_network(network)
    compile_ms = (time.perf_counter() - compile_started) * 1000.0
    summary = run_fleet(network, config, trace=trace, compiled=compiled)
    if trace is not None:
        from .obs import assert_valid_trace

        assert_valid_trace(trace.to_dict())
        trace.write(args.trace)
        sys.stderr.write(f"wrote fleet trace to {args.trace}\n")
    print(
        f"{summary['network']}: {summary['instances']:,} instances x "
        f"{summary['steps']:,} steps on {summary['shards']} shard(s) "
        f"(jobs={summary['jobs']})"
    )
    # The summary's compile_ms is the native engine's first build or load
    # here, as the kernels were compiled above.
    setup = f"{compile_ms:.1f} ms kernel compile"
    if summary["compile_ms"]:
        setup += f" and {summary['compile_ms']:.1f} ms native engine load"
    print(
        f"  {summary['reactions']:,} reactions "
        f"({summary['reactions_per_sec']:,.0f}/s after {setup}, "
        f"{summary['kernel_ops']:,} plane ops/step), "
        f"{summary['lost_events']:,} lost events"
    )
    for name, count in sorted(summary["env_emitted"].items()):
        print(f"  env {name}: {count:,} emissions")
    print(f"  fleet digest {summary['digest'][:32]}...")
    failures = 0
    if args.check:
        sample = sorted(
            {lane * config.instances // args.check
             for lane in range(args.check)}
        )
        mismatches = check_lanes(network, config, sample, compiled=compiled)
        if mismatches:
            failures = len(mismatches)
            print(f"  cross-check: {failures} MISMATCHES over "
                  f"{len(sample)} lanes")
            for record in mismatches[: args.top]:
                print(
                    f"    lane {record['lane']} {record['field']}: "
                    f"fleet={record['fleet']!r} scalar={record['scalar']!r}"
                )
        else:
            print(f"  cross-check: {len(sample)} lanes bit-identical to "
                  "the scalar simulator")
        summary["crosscheck"] = {
            "lanes": len(sample),
            "mismatches": failures,
        }
    if args.out:
        _write(args.out, json.dumps(summary, indent=2, sort_keys=True))
        sys.stderr.write(f"wrote fleet summary to {args.out}\n")
    return 1 if failures else 0


def _cmd_fuzz(args) -> int:
    import json

    from .difftest import (
        DEFAULT_SCHEMES,
        FuzzConfig,
        load_repro_file,
        replay_file,
        run_fuzz,
    )
    from .obs import render_difftest_report, render_difftest_repro

    if args.replay:
        failures = 0
        for path in args.replay:
            try:
                _, _, doc = load_repro_file(path)
            except (OSError, ValueError) as exc:
                sys.stderr.write(f"repro fuzz: {exc}\n")
                return 2
            report = replay_file(path)
            if report.ok:
                print(f"PASS  {path}")
            else:
                failures += 1
                print(f"FAIL  {path}")
                print(render_difftest_repro(doc))
                for mismatch in report.mismatches[: args.top]:
                    print(
                        f"  {mismatch.layer}/{mismatch.kind} "
                        f"@ snapshot {mismatch.snapshot}: {mismatch.detail}"
                    )
        return 1 if failures else 0

    schemes = tuple(args.scheme) if args.scheme else DEFAULT_SCHEMES
    config = FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        jobs=args.jobs,
        reactions=args.reactions,
        schemes=schemes,
        profile=args.target,
        est_tolerance=args.est_tol,
        inject=args.inject or "",
        shrink=not args.no_shrink,
        smoke=args.smoke,
    )
    trace = None
    if args.trace:
        from .pipeline import BuildTrace

        trace = BuildTrace()
    doc = run_fuzz(config, trace=trace)
    if trace is not None:
        from .obs import assert_valid_trace

        assert_valid_trace(trace.to_dict())
        trace.write(args.trace)
        sys.stderr.write(f"wrote campaign trace to {args.trace}\n")
    print(render_difftest_report(doc, top=args.top))
    if args.out:
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
        sys.stderr.write(f"wrote campaign report to {args.out}\n")
    if args.save_failures:
        import os

        os.makedirs(args.save_failures, exist_ok=True)
        for failure in doc["failures"]:
            if not failure.get("repro"):
                continue
            path = os.path.join(
                args.save_failures,
                f"repro-seed{doc['seed']}-case{failure['index']}.json",
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(failure["repro"], handle, indent=2, sort_keys=True)
            sys.stderr.write(f"wrote shrunk repro to {path}\n")
    return 1 if doc["summary"]["failures"] else 0


def _cmd_bench_history(args) -> int:
    import json

    from .obs import (
        assert_valid_trace,
        build_history,
        check_history,
        load_reference,
        render_history,
    )

    doc = build_history(args.reports)
    failures = 0
    if args.check:
        try:
            reference = load_reference(args.check)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"repro bench-history: {exc}\n")
            return 2
        checks, failures = check_history(doc, reference)
        doc["checks"] = checks
        doc["summary"]["checked"] = len(checks)
        doc["summary"]["failures"] = failures
    assert_valid_trace(doc)
    if args.out:
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
        sys.stderr.write(f"wrote bench history to {args.out}\n")
    print(render_history(doc))
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=max(1, args.jobs),
        queue_depth=args.queue_depth,
        cache_dir=(None if args.no_cache else args.cache_dir),
        cache_max_bytes=args.cache_max_bytes,
        trace_requests=not args.no_request_traces,
    )

    def announce(server) -> None:
        sys.stderr.write(
            f"repro serve: listening on {config.host}:{server.port} "
            f"(--jobs {config.jobs}, queue depth {config.queue_depth}"
            + (f", cache {config.cache_dir}" if config.cache_dir else "")
            + ")\n"
        )

    run_server(config, announce=announce)
    return 0


def _cmd_request(args) -> int:
    import json

    from .serve import request_once

    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        sys.stderr.write("repro request: --params must be a JSON object\n")
        return 2
    response = request_once(
        args.host, args.port, args.kind, params, timeout=args.timeout
    )
    _write(args.out, json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("status") == "ok" else 1


def _cmd_info(args) -> int:
    cfsm = compile_source(_read(args.module))
    result = synthesize(cfsm, scheme=args.scheme)
    rf = result.reactive
    print(f"module {cfsm.name}")
    print(f"  inputs:  {', '.join(e.name for e in cfsm.inputs)}")
    print(f"  outputs: {', '.join(e.name for e in cfsm.outputs)}")
    print(
        "  state:   "
        + ", ".join(f"{v.name}[0..{v.num_values - 1}]" for v in cfsm.state_vars)
    )
    print(f"  transitions: {len(cfsm.transitions)}")
    print(
        f"  reactive function: {len(rf.input_vars)} inputs, "
        f"{len(rf.output_vars)} outputs, chi BDD {rf.chi.size()} nodes"
    )
    counts = result.sgraph.counts()
    print(
        f"  s-graph ({result.scheme}): {counts['TEST']} TESTs, "
        f"{counts['ASSIGN']} ASSIGNs"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="POLIS-style software synthesis for embedded control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options several commands share, each defined once; a command passes
    # the help text that differs.
    def add_modules(p, nargs="+", name="system", name_help=None):
        p.add_argument("modules", nargs=nargs, help="RSL source files")
        p.add_argument("--name", default=name, help=name_help)

    def add_scheme(p, **kwargs):
        kwargs.setdefault("default", "sift")
        p.add_argument("--scheme", choices=SCHEMES, **kwargs)

    def add_target(p):
        p.add_argument("--target", default="K11", choices=sorted(PROFILES))

    def add_jobs(p, help, default=1):
        p.add_argument("--jobs", type=int, default=default, metavar="N",
                       help=help)

    def add_trace(p, help):
        p.add_argument("--trace", default=None, metavar="OUT.json", help=help)

    def add_top(p, help):
        p.add_argument("--top", type=int, default=10, help=help)

    def add_cache_options(p, dir_help, scope):
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help=dir_help)
        p.add_argument("--cache-max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="evict least-recently-used cache entries "
                            "beyond this total size")
        p.add_argument("--no-cache", action="store_true",
                       help=f"ignore --cache-dir for this {scope}")

    def add_rtos_options(p, policy, policy_help=None, priority=True):
        p.add_argument("--policy", default=policy,
                       choices=list(SchedulingPolicy.ALL), help=policy_help)
        if priority:
            p.add_argument("--priority", action="append", metavar="NAME=P",
                           help="static priority for a machine (lower = "
                                "higher; repeatable)")
        p.add_argument("--polled", action="append",
                       help="deliver this event by polling (repeatable)")
        p.add_argument("--chain", action="append",
                       help="comma-separated machine names fused into one task")

    def add_diagnostics_options(p, document, verb):
        p.add_argument("--check", action="append",
                       help="run only this check id (repeatable)")
        p.add_argument("--json", action="store_true",
                       help=f"emit the {document} JSON document")
        p.add_argument("--sarif", action="store_true",
                       help="emit a SARIF 2.1.0 log instead of text/JSON")
        add_jobs(p, f"{verb} modules on an N-worker process pool "
                    "(output is byte-identical to a serial run)")
        p.add_argument("--fail-on", default="error",
                       choices=["error", "warning", "info", "never"],
                       help="lowest severity that makes the exit code 1")
        p.add_argument("--verbose", action="store_true",
                       help="show INFO diagnostics in text output")
        p.add_argument("--list-checks", action="store_true",
                       help="list the registered checks and exit")
        p.add_argument("-o", "--output", default=None)

    def add_pipeline_options(p):
        add_jobs(p, "build modules on an N-worker process pool "
                    "(1 = in-process serial)")
        add_cache_options(p, "content-addressed artifact cache directory "
                             "(unchanged modules skip synthesis entirely)",
                          "run")
        add_trace(p, "write the structured build trace "
                     "(repro-build-trace/v1) to this file")
        p.add_argument("--chrome-trace", default=None, metavar="OUT.json",
                       help="also export the build trace as Chrome "
                            "trace-event JSON with per-worker lanes")

    p = sub.add_parser("synth", help="synthesize one RSL module")
    p.add_argument("module", help="RSL source file ('-' for stdin)")
    p.add_argument("--emit", default="c",
                   choices=["c", "asm", "dot", "sgraph"])
    add_target(p)
    p.add_argument("--estimate", action="store_true",
                   help="print cost/performance estimates to stderr")
    p.add_argument("--harness", action="store_true",
                   help="include a main() harness in the C output")
    p.add_argument("-o", "--output", default=None)
    add_scheme(p)
    p.add_argument("--no-switch", action="store_true",
                   help="disable multiway switch merging")
    p.add_argument("--copy-elimination", action="store_true",
                   help="drop unneeded on-entry state copies")
    p.add_argument("--reachability-dontcares", action="store_true",
                   help="use unreachable states as don't-cares")
    add_pipeline_options(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("rtos", help="generate the RTOS for a network")
    add_modules(p)
    add_rtos_options(p, SchedulingPolicy.ROUND_ROBIN, priority=False)
    p.add_argument("--include-reactions", action="store_true",
                   help="emit the reaction modules into the same file")
    p.add_argument("--scheme", default="sift")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_rtos)

    p = sub.add_parser(
        "build", help="full co-synthesis flow for a network of modules"
    )
    add_modules(p)
    add_target(p)
    p.add_argument("--rate", action="append",
                   help="environment event rate NAME=CYCLES (repeatable; "
                        "enables automatic scheduling validation)")
    p.add_argument("-o", "--output", default="build")
    add_pipeline_options(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "simulate",
        help="build a network and run it on the RTOS simulator",
    )
    add_modules(p)
    add_target(p)
    add_scheme(p)
    add_rtos_options(p, SchedulingPolicy.PREEMPTIVE_PRIORITY)
    p.add_argument("--until", type=int, default=100_000, metavar="CYCLES",
                   help="simulated horizon in cycles")
    p.add_argument("--stim", action="append", metavar="EVENT@TIME[=VALUE]",
                   help="inject an environment event (repeatable)")
    p.add_argument("--stim-file", default=None, metavar="SCENARIO.json",
                   help="JSON stimulus scenario: a list of "
                        "{time, event[, value]} objects")
    p.add_argument("--probe", action="append", metavar="SOURCE:SINK",
                   help="measure source->sink event latency (repeatable)")
    p.add_argument("--run-trace", default=None, metavar="OUT.json",
                   help="write the structured run trace "
                        "(repro-run-trace/v1) to this file")
    p.add_argument("--chrome-trace", default=None, metavar="OUT.json",
                   help="write a Chrome trace-event file "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--metrics", action="store_true",
                   help="print the metrics registry after the run")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "report", help="summarize a repro trace JSON file (build or run)"
    )
    p.add_argument("trace", help="trace JSON file (build or run trace)")
    add_top(p, "rows per top-N table")
    p.add_argument("--no-validate", action="store_true",
                   help="skip schema validation before reporting")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("check", help="reachability / invariant checking")
    p.add_argument("module")
    p.add_argument("--invariant", action="append",
                   help="Python expression over the state variables "
                        "(repeatable)")
    p.add_argument("--max-states", type=int, default=200_000)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "lint", help="static analysis over a set of RSL modules"
    )
    add_modules(p, "*", "design", "design name used in the report")
    add_scheme(p)
    add_diagnostics_options(p, "repro-lint-report/v1", "check")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "verify",
        help="whole-program static verification of a set of RSL modules",
    )
    add_modules(p, "*", "design", "design name used in the report")
    add_scheme(p)
    add_target(p)
    add_rtos_options(p, SchedulingPolicy.PREEMPTIVE_PRIORITY,
                     "RTOS policy assumed by the interference analysis")
    p.add_argument("--est-tol", type=float, default=None,
                   help="relative tolerance for the estimator bound checks "
                        "(default: the scheme's difftest tolerance)")
    add_diagnostics_options(p, "repro-verify-report/v1", "verify")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fleet",
        help="bit-sliced batched simulation of thousands of instances",
    )
    add_modules(p, "*", "system", "network name used in the summary")
    p.add_argument("--app", default=None,
                   choices=["dashboard", "shock", "abp"],
                   help="simulate a built-in example network instead of "
                        "RSL files")
    p.add_argument("--instances", type=int, default=4096,
                   help="fleet size (one instance per bit lane)")
    p.add_argument("--steps", type=int, default=100,
                   help="network steps per instance")
    p.add_argument("--seed", type=int, default=0,
                   help="stimulus seed (per-shard streams derive from it)")
    add_jobs(p, "run shards on an N-worker process pool (results "
                "are identical for any N)")
    p.add_argument("--lanes-per-shard", type=int, default=4096,
                   help="lanes per shard (fixed blocks, independent of "
                        "--jobs)")
    p.add_argument("--stimulus", default=None, metavar="SPEC.json",
                   help="JSON stimulus spec: {\"events\": {NAME: "
                        "{\"p\", \"lo\", \"hi\"}}} (default: p=0.5, "
                        "full range)")
    p.add_argument("--check", type=int, default=0, metavar="N",
                   help="cross-check N evenly sampled lanes against the "
                        "scalar simulator (exit 1 on divergence)")
    add_top(p, "mismatch records shown per failing check")
    add_trace(p, "write the merged causal fleet trace "
                 "(repro-build-trace/v1, one lane per shard)")
    p.add_argument("--out", default=None, metavar="OUT.json",
                   help="write the machine-readable fleet summary")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing across the five layers",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (case i derives its own stream)")
    p.add_argument("--cases", type=int, default=100,
                   help="number of random machines to generate and check")
    add_jobs(p, "check cases on an N-worker process pool")
    p.add_argument("--reactions", type=int, default=24,
                   help="input snapshots cross-checked per machine")
    add_target(p)
    add_scheme(p, action="append", default=None,
               help="restrict the scheme rotation (repeatable; "
                    "default rotates through all five)")
    p.add_argument("--est-tol", type=float, default=0.5,
                   help="relative tolerance for the estimator bound check")
    p.add_argument("--inject", default=None,
                   choices=["cgen-negate-presence", "cgen-drop-wrap",
                            "isa-stale-detect", "est-halve-max"],
                   help="inject a named fault (gate self-test: the "
                        "campaign must catch it)")
    p.add_argument("--smoke", action="store_true",
                   help="cheaper checks: fewer reactions per case, no "
                        "chi-uniqueness sweep")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip shrinking failing cases")
    p.add_argument("--out", default=None, metavar="OUT.json",
                   help="write the repro-difftest/v1 campaign document")
    p.add_argument("--save-failures", default=None, metavar="DIR",
                   help="write each shrunk repro-difftest-repro/v1 file "
                        "into this directory")
    p.add_argument("--replay", action="append", metavar="REPRO.json",
                   help="re-check a shrunk repro file against the current "
                        "toolchain (repeatable); skips campaign mode")
    add_top(p, "rows per report table")
    add_trace(p, "write the merged causal campaign trace "
                 "(repro-build-trace/v1, one lane per case)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "bench-history",
        help="merge BENCH_*.json reports into one trend document",
    )
    p.add_argument("reports", nargs="+", metavar="BENCH.json",
                   help="benchmark report files to merge")
    p.add_argument("--check", default=None, metavar="REFERENCE.json",
                   help="gate the merged metrics against this committed "
                        "reference (exit 1 on any regression)")
    p.add_argument("-o", "--out", default=None, metavar="OUT.json",
                   help="write the repro-bench-history/v1 document")
    p.set_defaults(func=_cmd_bench_history)

    p = sub.add_parser(
        "serve",
        help="run the synthesis-as-a-service daemon",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7411,
                   help="TCP port to listen on (0 = ephemeral)")
    add_jobs(p, "worker processes (max concurrent requests)", default=2)
    p.add_argument("--queue-depth", type=int, default=8, metavar="N",
                   help="admitted requests that may wait; one more is "
                        "rejected with retry_after_ms")
    add_cache_options(p, "shared artifact cache directory for all workers",
                      "daemon")
    p.add_argument("--no-request-traces", action="store_true",
                   help="skip the per-request causal trace in responses")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "request",
        help="send one request to a running repro serve daemon",
    )
    p.add_argument("kind",
                   help="request kind (synthesize, estimate, simulate, "
                        "fleet, fuzz, ping, stats, shutdown)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7411)
    p.add_argument("--params", default=None, metavar="JSON",
                   help="request parameters as a JSON object")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("-o", "--out", default=None, metavar="OUT.json",
                   help="write the response document (default stdout)")
    p.set_defaults(func=_cmd_request)

    p = sub.add_parser("info", help="summarize a module")
    p.add_argument("module")
    p.add_argument("--scheme", default="sift")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
