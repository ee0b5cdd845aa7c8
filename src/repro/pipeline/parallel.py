"""Serial or process-pool execution of pipeline tasks.

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

Every ``jobs > 1`` batch of a process runs on one shared
:class:`PersistentProcessExecutor`, created at the first pooled batch
and reused, so its workers start once per process; :func:`make_executor`
replaces it on a ``jobs`` change or after a worker died, and an
``atexit`` hook shuts it down before interpreter teardown.

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

import atexit
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
    its own span-id lane under a per-module span.  Untraced, it records
    nothing (no sift profile, no step metrics) and ships no events.
    """

    machine: Any  # Cfsm — picklable by construction
    options: Dict[str, Any]
    profile: Any  # ISAProfile
    params: Any  # CostParams
    context: Optional[TraceContext] = None

    def run(self, keep_result: bool) -> "ModuleBuildOutcome":
        trace = BuildTrace(context=self.context)
        with task_span(trace, self.machine.name, "module"):
            artifacts, result = build_module_artifacts(
                self.machine, self.options, self.profile, self.params,
                trace=trace if trace.causal else None,
            )
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


@dataclass
class _PingTask:
    """A no-op task used to prewarm pool workers and learn their pids."""

    def run(self, keep_result: bool) -> int:
        del keep_result
        return os.getpid()


class PersistentProcessExecutor(Executor):
    """A long-lived process pool over the task protocol, plus ``submit``.

    Workers stay alive across batches, so their start-up is paid once.
    :func:`make_executor` keeps one instance for every ``jobs > 1`` batch
    of a process; the serve daemon keeps its own, with a warming
    ``initializer`` (a calibrated target, a shared cache handle) and
    :meth:`worker_pids` to prove none leaked after shutdown.

    ``initializer`` runs once in each worker as it starts (import and
    calibration prewarming); :meth:`prewarm` forces all workers into
    existence up front, which a server should do *before* starting its
    event loop so no fork happens while other threads run.
    """

    def __init__(self, jobs: int, initializer=None, initargs=()):
        import concurrent.futures

        self.jobs = max(1, int(jobs))
        self.closed = False
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=initializer,
            initargs=initargs,
        )

    def submit(self, task: Any):
        """Schedule one task; returns its ``concurrent.futures.Future``."""
        return self._pool.submit(_worker, task)

    def run(self, tasks: List[Any]) -> List[Any]:
        """Outcomes in task order; a batch of one runs in-process.

        A failed batch leaves no work behind: a dead worker
        (``BrokenProcessPool``) shuts the pool down, and any other failure
        cancels the tasks not yet started and waits for the running ones.
        """
        if len(tasks) <= 1:
            return [task.run(keep_result=False) for task in tasks]
        from concurrent.futures import wait
        from concurrent.futures.process import BrokenProcessPool

        futures: List[Any] = []
        try:
            for task in tasks:
                futures.append(self.submit(task))
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self.shutdown(wait=True)
            raise
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise

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
        self.closed = True
        self._pool.shutdown(wait=wait)


#: The pool every ``jobs > 1`` batch of this process runs on.
_shared: Optional[PersistentProcessExecutor] = None


def make_executor(jobs: int = 1) -> Executor:
    """``jobs <= 1`` → serial in-process; otherwise the shared pool.

    The pool is replaced when ``jobs`` differs or once it was shut down
    (as :meth:`PersistentProcessExecutor.run` does when a worker dies);
    the old pool's workers are joined first, so two pools never coexist.
    """
    global _shared
    if jobs <= 1:
        return SerialExecutor()
    if _shared is None or _shared.closed or _shared.jobs != jobs:
        if _shared is not None:
            _shared.shutdown(wait=True)
        _shared = PersistentProcessExecutor(jobs)
    return _shared


@atexit.register
def _shutdown_shared() -> None:
    """Join the shared pool while the interpreter is still whole."""
    if _shared is not None:
        _shared.shutdown(wait=True)


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
