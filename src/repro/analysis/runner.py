"""Drive the lint and verify check layers over a design.

``lint_design`` is the one-call entry point used by the ``repro lint``
CLI and the ``flow.build_system(lint=True)`` gate: network checks over
the machine set, then — per machine — s-graph checks over the synthesis
result and codegen checks over the emitted C.  ``verify_design`` is the
deep tier behind ``repro verify``: it builds every artifact per module
(s-graph, compiled ISA program, generated-and-parsed C) and runs the
dataflow analyses of the ``verify`` layers, plus the network-level
interference analysis under an RTOS configuration.

Both runners fan the per-module work out through the pipeline executors
(:mod:`repro.pipeline.parallel`): each module is one picklable task, and
because results come back in task order the report is byte-identical
whether it ran serially or on a process pool (``jobs > 1``).

A machine whose synthesis itself blows up becomes a ``synthesis-error``
diagnostic rather than a crash, so one broken module never hides
findings in the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cfsm.machine import Cfsm
from ..pipeline.artifacts import bound_figures
from .c_checks import CSourceContext
from .diagnostics import Diagnostic, Report, Severity
from .network_checks import NetworkContext
from .registry import run_checks
from .sgraph_checks import SGraphContext

# Imported for their registration side effect so pool workers that
# unpickle a task from this module see the full check registry.
from . import verify_c, verify_isa, verify_rtos, verify_sgraph  # noqa: F401
from .verify_common import ModuleVerifyContext, RtosVerifyContext

__all__ = [
    "lint_design",
    "lint_sgraph",
    "lint_c_source",
    "verify_design",
    "VerifyReport",
    "LintModuleTask",
    "VerifyModuleTask",
]


def _synthesis_error(
    machine_name: str, layer: str, exc: Exception
) -> Diagnostic:
    return Diagnostic(
        check="synthesis-error",
        severity=Severity.ERROR,
        layer=layer,
        artifact=machine_name,
        location="",
        message=f"synthesis failed: {type(exc).__name__}: {exc}",
    )


@dataclass
class LintModuleTask:
    """Per-machine lint unit: synthesize + generate C + run both layers."""

    machine: Cfsm
    scheme: str
    only: Optional[Tuple[str, ...]] = None

    def run(self, keep_result: bool = True) -> List[Diagnostic]:
        try:
            from ..codegen import generate_c
            from ..sgraph import synthesize

            result = synthesize(self.machine, scheme=self.scheme, check=False)
            c_source = generate_c(result)
        except Exception as exc:  # noqa: BLE001 - must degrade to a finding
            return [_synthesis_error(self.machine.name, "sgraph", exc)]
        context = SGraphContext(result.sgraph, result.reactive.encoding)
        out = run_checks("sgraph", self.machine.name, context, only=self.only)
        out.extend(
            run_checks(
                "codegen",
                self.machine.name,
                CSourceContext(c_source),
                only=self.only,
            )
        )
        return out


@dataclass
class VerifyModuleTask:
    """Per-machine verify unit: full build + the deep dataflow checks."""

    machine: Cfsm
    scheme: str
    profile: str
    est_tolerance: Optional[float] = None
    only: Optional[Tuple[str, ...]] = None

    def run(
        self, keep_result: bool = True
    ) -> Tuple[List[Diagnostic], Optional[Dict[str, Any]]]:
        try:
            context = ModuleVerifyContext.build(
                self.machine,
                scheme=self.scheme,
                profile=self.profile,
                est_tolerance=self.est_tolerance,
            )
        except Exception as exc:  # noqa: BLE001 - must degrade to a finding
            return [_synthesis_error(self.machine.name, "verify", exc)], None
        diagnostics = run_checks(
            "verify", self.machine.name, context, only=self.only
        )
        bounds = {
            "module": self.machine.name,
            "estimate": bound_figures(context.est),
            "measured": bound_figures(context.meas),
        }
        return diagnostics, bounds


@dataclass
class VerifyReport(Report):
    """A lint report plus the per-module bound tables ``verify`` computes."""

    scheme: str = "sift"
    profile: str = "K11"
    modules: List[Dict[str, Any]] = field(default_factory=list)


def _run_tasks(tasks: List[Any], jobs: int) -> List[Any]:
    from ..pipeline.parallel import make_executor

    return make_executor(jobs).run(tasks)


def lint_design(
    machines: Sequence[Cfsm],
    design: str = "design",
    scheme: str = "sift",
    only: Optional[Iterable[str]] = None,
    jobs: int = 1,
) -> Report:
    """Run every applicable check over ``machines``; returns the Report."""
    only_tuple = tuple(only) if only is not None else None
    report = Report(design=design)
    report.extend(
        run_checks("network", design, NetworkContext(machines), only=only_tuple)
    )
    tasks = [
        LintModuleTask(machine=m, scheme=scheme, only=only_tuple)
        for m in machines
    ]
    for diagnostics in _run_tasks(tasks, jobs):
        report.extend(diagnostics)
    return report


def verify_design(
    machines: Sequence[Cfsm],
    design: str = "design",
    scheme: str = "sift",
    profile: str = "K11",
    rtos_config: Optional[Any] = None,
    only: Optional[Iterable[str]] = None,
    jobs: int = 1,
    est_tolerance: Optional[float] = None,
) -> VerifyReport:
    """Run the deep ``verify`` layers over ``machines``."""
    only_tuple = tuple(only) if only is not None else None
    report = VerifyReport(design=design, scheme=scheme, profile=profile)
    report.extend(
        run_checks(
            "verify-network",
            design,
            RtosVerifyContext(machines, rtos_config),
            only=only_tuple,
        )
    )
    tasks = [
        VerifyModuleTask(
            machine=m,
            scheme=scheme,
            profile=profile,
            est_tolerance=est_tolerance,
            only=only_tuple,
        )
        for m in machines
    ]
    for diagnostics, bounds in _run_tasks(tasks, jobs):
        report.extend(diagnostics)
        if bounds is not None:
            report.modules.append(bounds)
    return report


def lint_sgraph(
    sgraph,
    encoding=None,
    artifact: str = "sgraph",
    only: Optional[Iterable[str]] = None,
) -> Report:
    """S-graph layer only, for callers who already synthesized."""
    report = Report(design=artifact)
    context = SGraphContext(sgraph, encoding)
    report.extend(run_checks("sgraph", artifact, context, only=only))
    return report


def lint_c_source(
    source: str,
    artifact: str = "generated.c",
    only: Optional[Iterable[str]] = None,
) -> Report:
    """Codegen layer only, over one C translation unit."""
    report = Report(design=artifact)
    report.extend(
        run_checks("codegen", artifact, CSourceContext(source), only=only)
    )
    return report
