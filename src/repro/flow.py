"""The whole co-synthesis flow in one call (Sec. I-H's five steps).

``build_system`` runs, for a CFSM network:

1. optimized translation of each transition function into an s-graph;
2. s-graph optimization and code-size estimation;
3. translation into C;
4. scheduling and RTOS generation (with optional automatic policy
   selection and schedulability validation from environment event rates);
5. target compilation — here onto the bundled ISA profile for measurement.

Since the pass-pipeline refactor, ``build_system`` is a *scheduler*: each
software CFSM's synthesis runs as a declared pass pipeline
(:mod:`repro.sgraph.passes`) through an executor (``jobs > 1`` → the
process's shared worker pool, :mod:`repro.pipeline.parallel`), with a
content-addressed artifact cache in front (``cache=``,
:mod:`repro.pipeline.cache`) and per-pass instrumentation flowing into a
structured build trace (``trace=``, :mod:`repro.pipeline.trace`); the
executor is reached only through :func:`repro.pipeline.parallel.run_traced`,
which carries worker spans home in the task outcomes.  Serial, parallel,
and warm-cache builds produce byte-identical artifacts.

The result bundles every artifact a system integrator needs, and
:meth:`SystemBuild.write_to` lays them out as a ready-to-compile C project.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cfsm.network import Network
from .estimation import CostParams, Estimate, calibrate
from .pipeline import (
    ArtifactCache,
    BuildTrace,
    ModuleArtifacts,
    ModuleBuildTask,
    make_executor,
    module_cache_key,
    synthesis_options,
)
from .pipeline.parallel import run_traced
from .pipeline.trace import staged
from .rtos import RtosConfig, generate_rtos_c, select_policy
from .rtos.autoconfig import AutoConfigResult
from .rtos.footprint import Footprint, system_footprint
from .sgraph import SynthesisResult
from .target import ISAProfile, K11, PathAnalysis, Program

__all__ = ["ModuleBuild", "SystemBuild", "build_system"]


@dataclass
class ModuleBuild:
    """Artifacts of one CFSM.

    ``result`` holds the live synthesis result (s-graph, reactive function,
    BDDs) for modules synthesized in-process; it is ``None`` when the
    module came out of the artifact cache or a worker process — the
    serialized artifacts carry everything downstream stages consume.
    """

    name: str
    c_source: str
    program: Program
    estimate: Estimate
    measured: PathAnalysis
    result: Optional[SynthesisResult] = None
    copied_state_vars: List[str] = field(default_factory=list)
    from_cache: bool = False


@dataclass
class SystemBuild:
    """Artifacts of the whole network."""

    network: Network
    profile: ISAProfile
    params: CostParams
    config: RtosConfig
    modules: Dict[str, ModuleBuild] = field(default_factory=dict)
    rtos_source: str = ""
    footprint: Optional[Footprint] = None
    schedule: Optional[AutoConfigResult] = None
    trace: Optional[BuildTrace] = None

    @property
    def programs(self) -> Dict[str, Program]:
        return {name: module.program for name, module in self.modules.items()}

    def total_code_size(self) -> int:
        return sum(m.measured.code_size for m in self.modules.values())

    def report(self) -> str:
        lines = [
            f"system {self.network.name}: {len(self.modules)} software CFSMs, "
            f"target {self.profile.name}"
        ]
        lines.append(
            f"{'module':16s} {'est size':>8s} {'meas':>6s} "
            f"{'est max cy':>10s} {'meas':>6s}"
        )
        for name, module in sorted(self.modules.items()):
            lines.append(
                f"{name:16s} {module.estimate.code_size:8d} "
                f"{module.measured.code_size:6d} "
                f"{module.estimate.max_cycles:10d} "
                f"{module.measured.max_cycles:6d}"
            )
        if self.footprint is not None:
            lines.append(f"footprint incl. generated RTOS: {self.footprint}")
        if self.schedule is not None:
            lines.append(self.schedule.report())
        return "\n".join(lines)

    def simulate(
        self,
        stimuli,
        until: int,
        probes: Optional[List[Tuple[str, str]]] = None,
        run_trace=None,
        metrics=None,
        fallback_reaction_cycles: int = 100,
    ):
        """Run the built system on the RTOS simulator; returns the runtime.

        ``stimuli`` is a sequence of :class:`repro.rtos.runtime.Stimulus`;
        ``probes`` lists ``(source_event, sink_event)`` latency probes.
        ``run_trace`` (a :class:`repro.obs.RunTrace`) and ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`) attach observability sinks —
        both optional and overhead-free when omitted.
        """
        from .rtos.runtime import RtosRuntime

        runtime = RtosRuntime(
            self.network,
            self.config,
            profile=self.profile,
            programs=self.programs,
            fallback_reaction_cycles=fallback_reaction_cycles,
            run_trace=run_trace,
            metrics=metrics,
        )
        for source, sink in probes or []:
            runtime.add_probe(source, sink)
        runtime.schedule_stimuli(list(stimuli))
        runtime.run(until)
        return runtime

    def write_to(self, directory: str) -> List[str]:
        """Write every C file (modules + RTOS) and the report; returns paths."""
        os.makedirs(directory, exist_ok=True)
        written = []
        for name, module in self.modules.items():
            path = os.path.join(directory, f"{name}.c")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(module.c_source)
            written.append(path)
        rtos_path = os.path.join(directory, "rtos.c")
        with open(rtos_path, "w", encoding="utf-8") as handle:
            handle.write(self.rtos_source)
        written.append(rtos_path)
        report_path = os.path.join(directory, "BUILD_REPORT.txt")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(self.report() + "\n")
        written.append(report_path)
        return written


def _module_build(
    artifacts: ModuleArtifacts,
    result: Optional[SynthesisResult],
    from_cache: bool,
) -> ModuleBuild:
    return ModuleBuild(
        name=artifacts.name,
        c_source=artifacts.c_source,
        program=artifacts.program,
        estimate=artifacts.estimate,
        measured=artifacts.measured,
        result=result,
        copied_state_vars=list(artifacts.copied_state_vars),
        from_cache=from_cache,
    )


def build_system(
    network: Network,
    profile: ISAProfile = K11,
    config: Optional[RtosConfig] = None,
    env_rates: Optional[Dict[str, int]] = None,
    scheme: str = "sift",
    copy_elimination: bool = True,
    params: Optional[CostParams] = None,
    lint: bool = False,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    trace: Optional[BuildTrace] = None,
) -> SystemBuild:
    """Run the complete flow over ``network``.

    With ``env_rates`` given (event name -> min inter-arrival cycles), the
    scheduling policy is selected and validated automatically; otherwise the
    provided/default ``config`` is used as-is.  With ``lint=True`` the
    static-analysis subsystem runs first and any ERROR diagnostic aborts
    the build with a ``ValueError``.

    ``jobs > 1`` builds the software CFSMs on the process's shared pool,
    whose workers outlive the call, so later builds skip their start-up
    (:func:`~repro.pipeline.parallel.make_executor`); ``cache``
    short-circuits synthesis for modules whose content address (CFSM
    fingerprint, options, profile, code version) is already stored;
    ``trace`` collects per-pass/per-stage timing, cache hit/miss events,
    and size metrics.  All three are orthogonal and none changes a single
    artifact byte.  Every module build makes its own BDD manager, as the
    paper synthesizes each CFSM's reactive function on its own.

    A fresh ``trace`` is opened as a *causal* trace: ``build_system``
    begins the root span, hands every scheduled task a
    :class:`~repro.obs.context.TraceContext` on its own span-id lane, and
    merges the spans each task's outcome carries home, so the final
    document is one connected span tree whatever executor ran the build.
    """
    if trace is not None and trace.trace_id is None:
        trace.begin(network.name)

    if lint:
        from .analysis import lint_design, render_text

        lint_report = staged(
            trace, network.name, "lint",
            lambda: lint_design(
                network.machines, design=network.name, scheme=scheme
            ),
        )
        if lint_report.has_errors():
            raise ValueError(
                "lint found errors in the design:\n"
                + render_text(lint_report)
            )
    params = params if params is not None else staged(
        trace, network.name, "calibrate", lambda: calibrate(profile)
    )
    schedule: Optional[AutoConfigResult] = None
    if env_rates is not None:
        schedule = staged(
            trace, network.name, "schedule",
            lambda: select_policy(network, env_rates, params, base_config=config),
        )
        if schedule.schedulable:
            config = schedule.config
    config = config or RtosConfig()

    build = SystemBuild(
        network=network, profile=profile, params=params, config=config,
        schedule=schedule, trace=trace,
    )

    options = synthesis_options(
        scheme=scheme, copy_elimination=copy_elimination, params=params
    )
    software = [
        machine for machine in network.machines
        if machine.name not in config.hw_machines
    ]

    # Cache lookups first, so the executor only sees real work.
    pending: List[Tuple] = []  # (machine, key or None)
    for machine in software:
        key = None
        if cache is not None:
            key = module_cache_key(machine, options, profile)
            artifacts = cache.get(key)
            if artifacts is not None:
                if trace is not None:
                    trace.record_cache(machine.name, "hit", key)
                build.modules[machine.name] = _module_build(
                    artifacts, result=None, from_cache=True
                )
                continue
            if trace is not None:
                trace.record_cache(machine.name, "miss", key)
        pending.append((machine, key))

    if pending:
        executor = make_executor(jobs)
        tasks = [
            ModuleBuildTask(
                machine=machine, options=options, profile=profile,
                params=params,
            )
            for machine, _ in pending
        ]
        outcomes = run_traced(executor, tasks, trace)
        for (machine, key), outcome in zip(pending, outcomes):
            if cache is not None and key is not None:
                cache.put(key, outcome.artifacts)
            build.modules[machine.name] = _module_build(
                outcome.artifacts, result=outcome.result, from_cache=False
            )

    # Modules land in network declaration order whatever path built them.
    build.modules = {
        machine.name: build.modules[machine.name] for machine in software
    }

    copied_counts = {
        name: len(module.copied_state_vars)
        for name, module in build.modules.items()
    }
    build.rtos_source = staged(
        trace, network.name, "rtos", lambda: generate_rtos_c(network, config)
    )
    build.footprint = staged(
        trace, network.name, "footprint",
        lambda: system_footprint(
            network, config, profile, build.programs,
            copied_counts=copied_counts,
        ),
    )
    if trace is not None:
        if cache is not None:
            trace.metrics.update(cache.metrics_dict())
        trace.finish()
    return build
