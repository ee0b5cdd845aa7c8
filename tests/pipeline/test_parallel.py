"""Serial vs process-pool executors: same tasks, same bytes, task order.

Every ``jobs > 1`` batch of a process runs on one shared pool, so the
pool tests also pin its lifetime: workers are reused across builds, a
``jobs`` change joins the old workers, and neither a failed batch nor a
fault-injected one leaves work or state behind for the next.
"""

import multiprocessing
import os
import time
from dataclasses import dataclass

import pytest

from repro.apps import abp_network
from repro.difftest import FuzzConfig, run_fuzz
from repro.flow import build_system
from repro.pipeline import (
    BuildTrace,
    ModuleBuildTask,
    PersistentProcessExecutor,
    SerialExecutor,
    make_executor,
    synthesis_options,
)
from repro.target import K11

from ..conftest import build_bytes


def _tasks(network, params):
    options = synthesis_options(
        scheme="sift", copy_elimination=True, params=params
    )
    return [
        ModuleBuildTask(
            machine=machine, options=options, profile=K11, params=params
        )
        for machine in network.machines
    ]


def _traced(tasks):
    """``tasks``, each on its lane of one causal trace, as a build hands them."""
    trace = BuildTrace()
    trace.begin("test")
    for lane, task in enumerate(tasks, start=1):
        task.context = trace.context_for(lane)
    return tasks


class _Fail:
    def run(self, keep_result):
        raise ValueError("task failed in the worker")


@dataclass
class _Touch:
    """Sleep briefly, then leave a marker file behind."""

    path: str

    def run(self, keep_result):
        time.sleep(0.05)
        with open(self.path, "w"):
            pass
        return self.path


class TestMakeExecutor:
    def test_jobs_one_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)

    def test_jobs_many_is_process_pool(self):
        executor = make_executor(3)
        assert isinstance(executor, PersistentProcessExecutor)
        assert executor.jobs == 3
        assert make_executor(3) is executor


class TestExecutionEquivalence:
    def test_serial_keeps_live_results(self, dashboard_net, k11_params):
        tasks = _traced(_tasks(dashboard_net, k11_params)[:2])
        outcomes = SerialExecutor().run(tasks)
        assert all(o.result is not None for o in outcomes)
        assert all(o.events for o in outcomes)

    def test_single_task_skips_the_pool(self, dashboard_net, k11_params):
        tasks = _tasks(dashboard_net, k11_params)[:1]
        outcomes = make_executor(4).run(tasks)
        assert len(outcomes) == 1
        assert outcomes[0].artifacts.name == tasks[0].machine.name

    def test_pool_matches_serial_bytes_in_task_order(
        self, dashboard_net, k11_params
    ):
        tasks = _tasks(dashboard_net, k11_params)
        serial = SerialExecutor().run(tasks)
        pooled = make_executor(4).run(tasks)
        assert [o.artifacts.name for o in pooled] == [
            o.artifacts.name for o in serial
        ]
        for s, p in zip(serial, pooled):
            assert p.result is None  # live BDDs never cross processes
            assert p.artifacts.c_source == s.artifacts.c_source
            assert p.artifacts.estimate == s.artifacts.estimate
            assert p.artifacts.measured == s.artifacts.measured
            assert p.artifacts.program.listing() == s.artifacts.program.listing()
            assert p.artifacts.copied_state_vars == s.artifacts.copied_state_vars

    def test_worker_trace_events_come_back(self, dashboard_net, k11_params):
        tasks = _traced(_tasks(dashboard_net, k11_params)[:2])
        pooled = make_executor(2).run(tasks)
        for task, outcome in zip(tasks, pooled):
            names = [e.name for e in outcome.events if e.kind == "pass"]
            assert names[:3] == ["order", "build", "reduce"]
            assert all(e.module == task.machine.name for e in outcome.events)

    def test_untraced_tasks_ship_no_events(self, dashboard_net, k11_params):
        tasks = _tasks(dashboard_net, k11_params)[:2]
        serial = SerialExecutor().run(tasks)
        pooled = make_executor(2).run(tasks)
        for outcome in serial + pooled:
            assert outcome.events == []
            assert outcome.metrics == {}
        for s, p in zip(serial, pooled):
            assert p.artifacts.c_source == s.artifacts.c_source


class TestSharedPool:
    def test_builds_reuse_the_workers_until_jobs_changes(self):
        build_system(abp_network(), jobs=2)
        first = set(make_executor(2).worker_pids())
        build_system(abp_network(), jobs=2)
        assert first
        assert first <= set(make_executor(2).worker_pids())
        make_executor(3)
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not first & alive

    def test_failed_batch_leaves_no_work_behind(self, tmp_path):
        markers, later = tmp_path / "markers", tmp_path / "later"
        markers.mkdir()
        later.mkdir()
        executor = make_executor(2)
        batch = [_Fail()] + [_Touch(str(markers / str(i))) for i in range(8)]
        with pytest.raises(ValueError):
            executor.run(batch)
        after_failure = set(os.listdir(markers))
        executor.run([_Touch(str(later / str(i))) for i in range(2)])
        assert make_executor(2) is executor
        assert set(os.listdir(markers)) == after_failure

    def test_no_state_crosses_batches(self, dashboard_net, k11_params):
        report = run_fuzz(
            FuzzConfig(
                seed=0, cases=4, jobs=2, smoke=True, shrink=False,
                inject="cgen-negate-presence",
            )
        )
        assert report["summary"]["failures"] > 0
        workers = make_executor(2).worker_pids()
        assert workers
        pooled = build_system(dashboard_net, params=k11_params, jobs=2)
        assert make_executor(2).worker_pids() == workers
        serial = build_system(dashboard_net, params=k11_params)
        assert build_bytes(pooled) == build_bytes(serial)
