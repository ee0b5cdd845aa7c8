"""Smoke test of the benchmark itself, at a small size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced with ``--small``.  The test
checks that every metric is printed with its unit, that every
correctness check ran, that traced layer times add up to the op wall
time, that exact counts repeat for one seed, and that the benchmark
refuses to run without the sources.  It asserts nothing about how fast
anything is.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, EXACT, OP_PARTS, PER_LAYER  # noqa: E402

#: The correctness checks each workload must run at least once.
CHECKS = {
    "build-cold": {"oracle", "oracle-measured"},
    "rebuild-parallel": {"oracle", "oracle-measured", "serial-identity"},
    "fleet-default": {"fleet-lanes", "fleet-digest"},
    "serve-mixed": {"serve-direct"},
}
PROVENANCE = {"nproc", "python", "numpy", "git_revision", "source_digest", "seed",
              "attempted", "failed", "workload", "host_speed", "raw"}


def run(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    """Run the benchmark; returns (exit code, provenance, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return done.returncode, None, None
    return done.returncode, json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """Each workload untraced and traced, plus a second traced run."""
    out = {}
    for workload in CHECKS:
        for trace in (0, 1):
            out[workload, trace] = run(workload, trace)
        if workload != "serve-mixed":
            out[workload, "again"] = run(workload, 1)
    out["build-cold", "untraced-again"] = run("build-cold", 0)
    return out


def test_benchmark_json_declares_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(CHECKS)
    assert doc["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(CHECKS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_check(runs, workload, trace):
    code, prov, result = runs[workload, trace]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, prov["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert PROVENANCE <= set(prov)
    assert CHECKS[workload] <= set(prov["checks"])
    assert prov["attempted"] == result["attempted"]


@pytest.mark.parametrize("workload", list(CHECKS))
def test_layers_add_up_to_op_wall_time(runs, workload):
    _, prov, result = runs[workload, 1]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    parts = sum(values[name] for name in OP_PARTS)
    assert parts == pytest.approx(values["trace.op_wall_ms"], rel=1e-9, abs=1e-6)
    assert values["trace.op_wall_ms"] > 0
    assert "trace.overhead_ratio" in values
    assert prov.get("replay_mismatches", []) == []


@pytest.mark.parametrize("workload", ["build-cold", "rebuild-parallel", "fleet-default"])
def test_exact_counts_repeat(runs, workload):
    _, first_prov, first = runs[workload, 1]
    _, second_prov, second = runs[workload, "again"]
    for name in EXACT:
        if name in first["metrics"]:
            assert first["metrics"][name] == second["metrics"][name], name
    assert first_prov.get("fleet_digests") == second_prov.get("fleet_digests")


def test_exact_end_to_end_counts_repeat(runs):
    _, _, first = runs["build-cold", 0]
    _, _, second = runs["build-cold", "untraced-again"]
    for name in ("code_bytes", "wcet_cycles"):
        assert first["metrics"][name] == second["metrics"][name]


def test_refuses_to_run_without_sources():
    # A directory holding only BENCHMARK.json and perfbench/, kept inside
    # the checkout's (ignored) work area.
    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, prov, result = run("build-cold", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and result is None
