"""The native shard run replays :meth:`FleetShard.step` bit for bit.

:meth:`repro.fleet.FleetShard.run` advances a shard in one call of
``_fleet_run.c`` when it builds and loads (:mod:`repro.fleet.native`),
and by :meth:`FleetShard.step` otherwise.  After any run, every plane,
every counter's plane list, the cursor and the stimulus generator's
state must be what as many ``step()`` calls leave, so runs may switch
engines mid-shard; without the library every fleet path runs ``step()``
and gives the same bytes.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import abp_network, dashboard_network, shock_network
from repro.cfsm import BinOp, CfsmBuilder, Const, EventValue
from repro.cfsm.network import Network
from repro.fleet import (
    FleetConfig,
    FleetShard,
    campaign_case,
    check_lanes,
    compile_network,
    default_spec,
    native,
    run_fleet,
)
from repro.pipeline import BuildTrace

from .engines import engine

SRC = Path(native.__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    native.fleet_library() is None,
    reason="the native fleet engine did not build or load",
)

LANES = (1, 31, 32, 33, 63, 64, 65, 100, 4096)
CASES = 20


def echo_network():
    """A machine that consumes its own valued emission: what it delivers
    to itself must survive its own flag write-back."""
    b = CfsmBuilder("echo")
    go = b.pure_input("go")
    again = b.value_input("again", width=3)
    b.output(again)
    n = b.state("n", num_values=8)
    b.transition(
        when=[b.present(go)], do=[b.assign(n, Const(0)), b.emit(again, Const(1))]
    )
    step = BinOp("+", EventValue("again"), Const(1))
    b.transition(
        when=[b.present(again), b.absent(go)],
        do=[
            b.assign(n, EventValue("again")),
            b.emit(again, BinOp("%", step, Const(8))),
        ],
    )
    return Network("echo", [b.build()])


@pytest.fixture(scope="module")
def designs():
    """name -> (network, compiled, spec) of the three reference designs and
    a self-loop."""
    found = {}
    networks = (dashboard_network(), shock_network(), abp_network(), echo_network())
    for network in networks:
        found[network.name] = (
            network, compile_network(network), default_spec(network)
        )
    return found


@pytest.fixture(scope="module")
def cases():
    """Generated machines with random stimulus, as the campaign builds them."""
    found = []
    for index in range(CASES):
        network, spec = campaign_case(0, index)
        found.append((network, compile_network(network), spec))
    return found


def observe(shard):
    """What a run must leave: the digest, sampled lanes, the stream's state."""
    lanes = sorted({0, shard.lanes // 2, shard.lanes - 1})
    return (
        shard.digest(),
        [shard.snapshot_lane(lane) for lane in lanes],
        shard.stream._rng.getstate(),
    )


def assert_runs_equal(compiled, spec, lanes, seed, schedule):
    """``schedule`` of ("run", k) / ("step", k) against as many steps."""
    got = FleetShard(compiled, lanes, spec, seed)
    want = FleetShard(compiled, lanes, spec, seed)
    total = 0
    for how, count in schedule:
        if how == "run":
            assert got.run(count) == "native"
        else:
            for _ in range(count):
                got.step()
        total += count
    for _ in range(total):
        want.step()
    assert observe(got) == observe(want)


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize(
    "design", ["dashboard", "shock_absorber", "abp", "echo"]
)
def test_run_equals_steps_on_reference_designs(designs, design, lanes):
    _, compiled, spec = designs[design]
    for seed in (3, 11):
        assert_runs_equal(compiled, spec, lanes, seed, [("run", 23)])


@pytest.mark.parametrize("index", range(CASES))
def test_run_equals_steps_on_generated_machines(cases, index):
    _, compiled, spec = cases[index]
    for lanes in (LANES[index % len(LANES)], LANES[(index + 4) % len(LANES)]):
        assert_runs_equal(compiled, spec, lanes, index, [("run", 25)])


@pytest.mark.parametrize("lanes", [33, 100, 4096])
def test_engines_alternate_mid_shard(designs, cases, lanes):
    schedule = [("run", 20), ("step", 5), ("run", 17)]
    for _, compiled, spec in list(designs.values()) + cases[:3]:
        assert_runs_equal(compiled, spec, lanes, 5, schedule)


def test_zero_steps_change_nothing(designs):
    _, compiled, spec = designs["dashboard"]
    shard = FleetShard(compiled, 65, spec, 1)
    before = observe(shard)
    assert shard.run(0) == "native"
    assert observe(shard) == before


@pytest.mark.parametrize(
    "instances, steps, lanes_per_shard, digest",
    [
        (4096, 200, 1024, "16a19bbbe4cc060af90d9467c96ed743"
                          "bc80056b99970387a2ed9ee3f0aa60d4"),
        (1024, 50, 256, "14b2cd2cb0f5ea55df160c1558432bd3"
                        "63f3aaa388dc02fec9c37920a99e73b2"),
    ],
)
def test_pinned_digests_hold_on_both_engines(
    designs, instances, steps, lanes_per_shard, digest
):
    network, compiled, _ = designs["dashboard"]
    config = FleetConfig(
        instances=instances, steps=steps, seed=0, jobs=1,
        lanes_per_shard=lanes_per_shard,
    )
    for name in ("native", "python"):
        trace = BuildTrace()
        with engine(name):
            summary = run_fleet(network, config, trace=trace, compiled=compiled)
        assert summary["digest"] == digest
        assert shard_engines(trace) == {name}


def shard_engines(trace):
    return {
        event["metrics"]["fleet_engine"]
        for event in trace.to_dict()["events"]
        if event["name"] == "fleet.shard"
    }


def outcome(summary):
    """The simulated part of a summary: everything but the timings."""
    timing = ("wall_ms", "compile_ms", "reactions_per_sec")
    return {k: v for k, v in summary.items() if k not in timing}


def refuse_to_load(path, *args, **kwargs):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("failure", ["compile", "load"])
def test_a_failed_build_or_load_runs_step(designs, failure, tmp_path, monkeypatch):
    network, compiled, _ = designs["shock_absorber"]
    config = FleetConfig(instances=300, steps=30, seed=4, lanes_per_shard=128)
    trace = BuildTrace()
    want = run_fleet(network, config, trace=trace, compiled=compiled)
    assert shard_engines(trace) == {"native"}

    source = tmp_path / native.FLEET_SOURCE.name
    text = native.FLEET_SOURCE.read_text(encoding="utf-8")
    if failure == "compile":
        text += "\n#error does not compile\n"
    else:
        monkeypatch.setattr(ctypes, "PyDLL", refuse_to_load)
    source.write_text(text, encoding="utf-8")
    monkeypatch.setattr(native, "FLEET_SOURCE", source)
    monkeypatch.setattr(native, "_fleet_library", native._UNLOADED)
    trace = BuildTrace()
    got = run_fleet(network, config, trace=trace, compiled=compiled)
    assert shard_engines(trace) == {"python"}
    assert native.fleet_engine() == "python"
    assert outcome(got) == outcome(want)
    left = [path.name for path in (tmp_path / "__pycache__").iterdir()]
    if failure == "compile":
        assert left == []
    else:  # built and published whole, then refused by the loader
        assert len(left) == 1 and left[0].endswith(".so")


def test_an_allocation_failure_leaves_the_shard_untouched(designs):
    class NoMemory:
        @staticmethod
        def fr_run(*args):
            return 1

    _, compiled, spec = designs["dashboard"]
    shard = FleetShard(compiled, 100, spec, 2)
    shard.run(7)
    before = observe(shard)
    with pytest.raises(MemoryError):
        native.run_shard(NoMemory, shard, 10)
    assert observe(shard) == before


def test_importing_the_fleet_and_the_flow_loads_no_ctypes():
    code = (
        "import sys, repro.fleet, repro.flow; print('ctypes' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "False\n"


def test_the_first_load_is_compile_time_not_simulation(designs, monkeypatch):
    """A process's first native run builds or loads the shard run.  The
    shard that paid for it reports the time once (``fleet_library_ms``),
    and the summary counts it in ``compile_ms``, so the rate leaves it out."""
    network, compiled, _ = designs["dashboard"]
    config = FleetConfig(
        instances=256, steps=20, seed=1, jobs=1, lanes_per_shard=128
    )
    monkeypatch.setattr(native, "_fleet_library", native._UNLOADED)
    trace = BuildTrace()
    first = run_fleet(network, config, trace=trace, compiled=compiled)
    loads = [
        event["metrics"]["fleet_library_ms"]
        for event in trace.to_dict()["events"]
        if event["name"] == "fleet.shard"
    ]
    assert len(loads) == 2 and loads[0] > 0 and loads[1] == 0.0
    assert trace.metrics["fleet_library_ms"] == loads[0]
    assert first["compile_ms"] == loads[0]
    again = run_fleet(network, config, compiled=compiled)
    assert again["compile_ms"] == 0.0
    assert outcome(again) == outcome(first)


def test_a_load_outside_a_fleet_run_is_not_its_compile_time(designs, monkeypatch):
    """A load paid by ``check_lanes`` (or any direct shard run) is its
    own: the fleet run after it reports no compile time it did not pay."""
    network, compiled, _ = designs["dashboard"]
    config = FleetConfig(
        instances=256, steps=20, seed=1, jobs=1, lanes_per_shard=128
    )
    monkeypatch.setattr(native, "_fleet_library", native._UNLOADED)
    assert check_lanes(network, config, [0, 200], compiled=compiled) == []
    summary = run_fleet(network, config, compiled=compiled)
    assert summary["compile_ms"] == 0.0
