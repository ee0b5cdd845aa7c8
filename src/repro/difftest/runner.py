"""Fuzz-campaign scheduling, reporting, and replay.

One fuzz *case* = generate a CFSM, synthesize it, and cross-check every
snapshot through the five layers (:mod:`repro.difftest.oracle`).  Cases
are independent, so they are scheduled as tasks on the pipeline executors
(:mod:`repro.pipeline.parallel`) — ``--jobs N`` fans the campaign out
over a process pool exactly like a parallel synthesis build, and a traced
campaign carries each case's span home in its outcome
(:func:`repro.pipeline.parallel.run_traced`).

The campaign result is a ``repro-difftest/v1`` document (rendered by
``repro report``, validated by :func:`repro.obs.validate_trace`); each
failure carries a fully self-contained ``repro-difftest-repro/v1``
replay document produced after shrinking, so a CI failure reproduces
locally from the JSON artifact alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs import DIFFTEST_REPORT_FORMAT as DIFFTEST_FORMAT
from ..obs import validate_difftest_repro
from ..obs.context import TraceContext
from ..pipeline.parallel import make_executor, run_traced, task_span
from ..pipeline.trace import BuildTrace, TraceEvent
from .generator import CaseConfig, generate_case
from .inject import inject_fault
from .oracle import CaseReport, OracleOptions, check_case
from .shrink import shrink_case
from .spec import (
    case_to_repro_doc,
    cfsm_from_spec,
    snapshot_from_dict,
)

__all__ = [
    "DIFFTEST_FORMAT",
    "DEFAULT_SCHEMES",
    "FuzzConfig",
    "FuzzCaseTask",
    "FuzzCaseOutcome",
    "run_fuzz",
    "load_repro_file",
    "replay_file",
]

# Rotated per case index: every synthesis scheme takes part in the
# campaign, so an ordering-scheme regression cannot hide behind the
# default.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "sift",
    "naive",
    "outputs-first",
    "mixed",
    "sift-strict",
)


@dataclass
class FuzzConfig:
    """One fuzz campaign (all fields picklable)."""

    seed: int = 0
    cases: int = 100
    jobs: int = 1
    reactions: int = 24  # snapshots per case
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    profile: str = "K11"
    est_tolerance: float = 0.5
    inject: str = ""  # named fault from repro.difftest.inject
    shrink: bool = True
    smoke: bool = False  # cheaper: fewer reactions, no chi-uniqueness sweep

    def case_config(self) -> CaseConfig:
        reactions = min(self.reactions, 8) if self.smoke else self.reactions
        return CaseConfig(snapshots=reactions)

    def oracle_options(self, index: int) -> OracleOptions:
        scheme = self.schemes[index % len(self.schemes)]
        tolerance = self.est_tolerance
        if scheme == "outputs-first":
            # The outputs-before-support variant renders ASSIGN labels as
            # full ITE expressions, which the Table-I cost model prices
            # only loosely: measured spread over random machines is about
            # [-0.87, +1.61] around the estimate (vs <=0.17 for the other
            # schemes), so the bound check needs a wider band to stay a
            # conformance check rather than an estimator-fidelity test.
            tolerance = max(tolerance, 2.0)
        return OracleOptions(
            scheme=scheme,
            profile=self.profile,
            est_tolerance=tolerance,
            check_chi_uniqueness=not self.smoke,
        )


@dataclass
class FuzzCaseOutcome:
    """Executor-transportable result of one case.

    ``events``/``metrics`` carry the case's telemetry home.
    """

    report: Dict[str, Any]
    repro: Optional[Dict[str, Any]] = None
    shrink_ms: int = 0
    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class FuzzCaseTask:
    """One schedulable fuzz case; runs inside executor workers.

    The fault (if any) is entered *inside* ``run`` so it is active in the
    worker process — patching in the parent would not cross the pool.

    With a trace ``context`` injected, the case runs under a
    ``fuzz.case`` span on its own lane and reports a
    ``difftest_divergences`` counter in its outcome.
    """

    index: int
    config: FuzzConfig
    context: Optional[TraceContext] = None

    def run(self, keep_result: bool) -> FuzzCaseOutcome:
        config = self.config
        trace = BuildTrace(context=self.context)
        with task_span(
            trace, f"case-{self.index:04d}", "fuzz.case"
        ) as span, inject_fault(config.inject):
            case = generate_case(
                config.seed, self.index, config.case_config()
            )
            options = config.oracle_options(self.index)
            report = check_case(
                case.cfsm, case.snapshots, options, index=self.index
            )
            repro: Optional[Dict[str, Any]] = None
            shrink_ms = 0
            if not report.ok and config.shrink:
                started = time.monotonic()
                small_cfsm, small_snaps = shrink_case(
                    case.cfsm, case.snapshots, options
                )
                shrink_ms = int((time.monotonic() - started) * 1000)
                small_report = check_case(
                    small_cfsm, small_snaps, options, index=self.index
                )
                first = (small_report.mismatches or report.mismatches)[0]
                repro = case_to_repro_doc(
                    small_cfsm,
                    small_snaps,
                    failure={
                        "layer": first.layer,
                        "kind": first.kind,
                        "detail": first.detail,
                        "mismatches": len(small_report.mismatches),
                    },
                    origin={
                        "seed": config.seed,
                        "index": self.index,
                        "scheme": options.scheme,
                        "profile": options.profile,
                        "est_tolerance": options.est_tolerance,
                        "inject": config.inject,
                    },
                )
        divergences = len(report.mismatches)
        span.metrics.update(
            {
                "scheme": options.scheme,
                "reactions": report.reactions,
                "mismatches": divergences,
                "skipped": 1 if report.skipped else 0,
            }
        )
        trace.add_metric("difftest_divergences", divergences)
        return FuzzCaseOutcome(
            report=report.as_dict(), repro=repro, shrink_ms=shrink_ms,
            events=trace.events, metrics=trace.metrics,
        )


def run_fuzz(
    config: FuzzConfig, trace: Optional[BuildTrace] = None
) -> Dict[str, Any]:
    """Run a campaign; returns the ``repro-difftest/v1`` document.

    With ``trace`` given, the campaign records one merged causal trace:
    a root span, one ``fuzz.case`` span per case on its own lane, and a
    summed ``difftest_divergences`` counter.
    """
    started = time.monotonic()
    if trace is not None and trace.trace_id is None:
        trace.begin(f"fuzz-seed{config.seed}")
    tasks = [FuzzCaseTask(index=i, config=config) for i in range(config.cases)]
    outcomes: List[FuzzCaseOutcome] = run_traced(
        make_executor(config.jobs), tasks, trace
    )
    if trace is not None:
        trace.finish()

    reactions = 0
    skipped: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    by_layer: Dict[str, int] = {}
    est_ratios: List[float] = []
    for outcome in outcomes:
        report = outcome.report
        reactions += report["reactions"]
        if report["skipped"]:
            skipped.append(
                {"index": report["index"], "reason": report["skipped"]}
            )
            continue
        if report["estimate"] and report["measured"]:
            max_est = report["estimate"]["max_cycles"]
            max_meas = report["measured"]["max_cycles"]
            if max_meas:
                est_ratios.append(max_est / max_meas)
        if report["mismatches"]:
            for mismatch in report["mismatches"]:
                by_layer[mismatch["layer"]] = (
                    by_layer.get(mismatch["layer"], 0) + 1
                )
            failures.append(
                {
                    "index": report["index"],
                    "name": report["name"],
                    "mismatches": report["mismatches"],
                    "shrink_ms": outcome.shrink_ms,
                    "repro": outcome.repro,
                }
            )

    summary = {
        "cases": config.cases,
        "reactions": reactions,
        "failures": len(failures),
        "skipped": len(skipped),
        "mismatches_by_layer": by_layer,
        "wall_ms": int((time.monotonic() - started) * 1000),
    }
    if est_ratios:
        summary["estimate_max_over_measured"] = {
            "min": round(min(est_ratios), 3),
            "max": round(max(est_ratios), 3),
            "mean": round(sum(est_ratios) / len(est_ratios), 3),
        }
    return {
        "format": DIFFTEST_FORMAT,
        "seed": config.seed,
        "jobs": config.jobs,
        "options": {
            "reactions": config.case_config().snapshots,
            "schemes": list(config.schemes),
            "profile": config.profile,
            "est_tolerance": config.est_tolerance,
            "inject": config.inject,
            "shrink": config.shrink,
            "smoke": config.smoke,
        },
        "summary": summary,
        "failures": failures,
        "skipped_cases": skipped,
    }


def load_repro_file(path: str) -> Tuple[Any, List[Any], Dict[str, Any]]:
    """Read a replay document; returns (cfsm, snapshots, full doc).

    Raises ``ValueError`` naming ``path`` and every schema error when the
    document is not a valid ``repro-difftest-repro/v1`` replay.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    errors = validate_difftest_repro(doc)
    if errors:
        raise ValueError(
            f"{path}: invalid replay document:\n"
            + "\n".join(f"  - {e}" for e in errors)
        )
    cfsm = cfsm_from_spec(doc["cfsm"])
    snapshots = [snapshot_from_dict(s) for s in doc["snapshots"]]
    return cfsm, snapshots, doc


def replay_file(
    path: str, options: Optional[OracleOptions] = None
) -> CaseReport:
    """Re-check a replay document against the *current* toolchain.

    The stored synthesis options (scheme/profile/tolerance) are honoured
    so the replay exercises the same pipeline configuration that failed;
    the recorded fault injection is deliberately NOT re-applied — corpus
    replays assert that the current, unpatched toolchain conforms.
    """
    cfsm, snapshots, doc = load_repro_file(path)
    if options is None:
        origin = doc.get("origin", {})
        options = OracleOptions(
            scheme=origin.get("scheme", "sift"),
            profile=origin.get("profile", "K11"),
            est_tolerance=origin.get("est_tolerance", 0.5),
        )
    return check_case(
        cfsm, snapshots, options, index=doc.get("origin", {}).get("index", 0)
    )
