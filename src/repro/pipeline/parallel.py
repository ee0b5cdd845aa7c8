"""Pluggable serial / process-pool execution of pipeline tasks.

A *task* is any picklable object with a ``run(keep_result: bool)`` method
returning a picklable outcome; the executors schedule batches of them
while keeping one invariant: **results come back in task order with
byte-identical artifacts**, whichever executor ran them.  The original
client is per-CFSM synthesis (:class:`ModuleBuildTask`), which is
embarrassingly parallel — each module's pipeline reads only its own CFSM,
the shared options, and the (immutable) profile and cost parameters.  The
differential conformance fuzzer (:mod:`repro.difftest`), the fleet
simulator (:mod:`repro.fleet`) and the serve workers schedule their work
through the same executors.

Telemetry follows one path.  :func:`run_traced` is the coordinator side:
it hands task *i* a :class:`~repro.obs.context.TraceContext` on lane
*i* + 1, runs the batch, and merges every outcome's ``events`` and
``metrics`` into the build trace in task order.  :func:`task_span` is the
worker side: the one span a task runs under on its lane.  Spans come
home inside the pickled outcome, so a worker that dies takes its spans
with it; the coordinator records the failure as an ``error`` event.

``keep_result`` distinguishes in-process from cross-process execution:
workers cannot return live :class:`~repro.sgraph.SynthesisResult` objects
(BDD managers hold weakrefs and are deliberately unpicklable), so a
process-pool build returns :class:`~repro.pipeline.artifacts.ModuleArtifacts`
with ``result=None`` — exactly what a cache hit returns.  The serial
executor additionally hands back the live result for API parity with the
historical in-process flow.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..obs.context import TraceContext
from .artifacts import ModuleArtifacts, build_module_artifacts
from .trace import BuildTrace, TraceEvent

__all__ = [
    "ModuleBuildTask",
    "ModuleBuildOutcome",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "PersistentProcessExecutor",
    "make_executor",
    "run_traced",
    "task_span",
]


@contextmanager
def task_span(trace: BuildTrace, module: str, name: str) -> Iterator[TraceEvent]:
    """The one span a task runs under on its context's lane.

    A causal ``trace`` (one built from the task's injected context)
    records the span and parents everything recorded inside it; an
    untraced task gets a detached event no trace holds.
    """
    if not trace.causal:
        yield TraceEvent(module=module, name=name)
        return
    with trace.span(module, name) as span:
        yield span


@dataclass
class ModuleBuildTask:
    """One schedulable unit: build every artifact of one software CFSM.

    When the coordinator runs a causal trace it injects a
    :class:`~repro.obs.context.TraceContext`: the task then records on
    its own span-id lane under a per-module span.  Untraced, the outcome
    still carries the flat pass and stage events.
    """

    machine: Any  # Cfsm — picklable by construction
    options: Dict[str, Any]
    profile: Any  # ISAProfile
    params: Any  # CostParams
    context: Optional[TraceContext] = None
    #: A warm BDD-manager pool (``acquire()``/``release(mgr)``), injected
    #: only for in-process execution — never pickled across a pool
    #: boundary, so cross-process tasks leave it ``None``.
    manager_pool: Any = None

    def run(self, keep_result: bool) -> "ModuleBuildOutcome":
        trace = BuildTrace(context=self.context)
        manager = (
            self.manager_pool.acquire() if self.manager_pool is not None
            else None
        )
        try:
            with task_span(trace, self.machine.name, "module"):
                artifacts, result = build_module_artifacts(
                    self.machine, self.options, self.profile, self.params,
                    trace=trace, manager=manager,
                )
        finally:
            if manager is not None:
                self.manager_pool.release(manager)
        return ModuleBuildOutcome(
            artifacts=artifacts,
            result=result if keep_result else None,
            events=trace.events,
            metrics=trace.metrics,
        )


@dataclass
class ModuleBuildOutcome:
    """What an executor hands back for one task, in task order."""

    artifacts: ModuleArtifacts
    result: Optional[Any] = None  # SynthesisResult when built in-process
    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)


def _worker(task: Any) -> Any:
    """Top-level entry point for pool workers (must be picklable by name)."""
    return task.run(keep_result=False)


class Executor:
    """Runs a batch of tasks; subclasses pick the strategy.

    A task is any picklable object with ``run(keep_result) -> outcome``.
    """

    jobs: int = 1

    def run(self, tasks: List[Any]) -> List[Any]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution; keeps live (unpicklable) results."""

    jobs = 1

    def run(self, tasks: List[Any]) -> List[Any]:
        return [task.run(keep_result=True) for task in tasks]


class ProcessExecutor(Executor):
    """A ``concurrent.futures`` process pool over the tasks.

    Results are collected with ``Executor.map``, which preserves task
    order regardless of completion order.  With one task (or one job) the
    pool is skipped entirely — no point paying interpreter start-up.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError("ProcessExecutor needs jobs >= 2")
        self.jobs = int(jobs)

    def run(self, tasks: List[Any]) -> List[Any]:
        if len(tasks) <= 1:
            return [task.run(keep_result=False) for task in tasks]
        import concurrent.futures

        workers = min(self.jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            return list(pool.map(_worker, tasks))


@dataclass
class _PingTask:
    """A no-op task used to prewarm pool workers and learn their pids."""

    def run(self, keep_result: bool) -> int:
        del keep_result
        return os.getpid()


class PersistentProcessExecutor(Executor):
    """A long-lived process pool with a ``submit`` API.

    The batch executors above spin a pool up per call and tear it down —
    the right shape for one build, the wrong one for a daemon serving a
    stream of requests.  This executor keeps its workers alive across
    submissions (so per-worker warm state — calibrated cost params, BDD
    manager pools — pays off), accepts the same task protocol
    (``run(keep_result) -> outcome``), and exposes the worker pids so a
    service can assert none leaked after shutdown.

    ``initializer`` runs once in each worker as it starts (import and
    calibration prewarming); :meth:`prewarm` forces all workers into
    existence up front, which a server should do *before* starting its
    event loop so no fork happens while other threads run.
    """

    def __init__(self, jobs: int, initializer=None, initargs=()):
        import concurrent.futures

        self.jobs = max(1, int(jobs))
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=initializer,
            initargs=initargs,
        )

    def submit(self, task: Any):
        """Schedule one task; returns its ``concurrent.futures.Future``."""
        return self._pool.submit(_worker, task)

    def run(self, tasks: List[Any]) -> List[Any]:
        futures = [self.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def prewarm(self) -> List[int]:
        """Spin up every worker now; returns the distinct pids seen."""
        futures = [self.submit(_PingTask()) for _ in range(self.jobs)]
        return sorted({future.result() for future in futures})

    def worker_pids(self) -> List[int]:
        """Pids of the workers currently alive in the pool."""
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(
            process.pid for process in processes.values()
            if process.pid is not None
        )

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


def make_executor(jobs: int = 1) -> Executor:
    """``jobs <= 1`` → serial in-process; otherwise a process pool."""
    if jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


def run_traced(
    executor: Executor, tasks: List[Any], trace: Optional[BuildTrace]
) -> List[Any]:
    """Run ``tasks`` on ``executor``; with ``trace``, merge their telemetry.

    Task *i* gets a context on lane *i* + 1, so serial and parallel runs
    produce structurally identical span trees.  Each outcome's ``events``
    and summed ``metrics`` are merged in task order.  If the executor
    raises, one ``error`` stage event names the exception type, the trace
    is finished, and the exception propagates.
    """
    if trace is None:
        return executor.run(tasks)
    for index, task in enumerate(tasks):
        task.context = trace.context_for(index + 1)
    start = time.perf_counter()
    try:
        outcomes = executor.run(tasks)
    except BaseException as exc:
        trace.record_stage(
            "executor", "error", (time.perf_counter() - start) * 1000.0,
            {"error": type(exc).__name__},
        )
        trace.finish()
        raise
    for outcome in outcomes:
        trace.merge(outcome.events, outcome.metrics)
    return outcomes
