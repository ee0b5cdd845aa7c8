"""Lane-extraction cross-check: batched fleet vs scalar reference.

The correctness contract of :mod:`repro.fleet` is that extracting any
lane of a batched run yields *bit-for-bit* the trajectory the scalar
:class:`repro.cfsm.network.NetworkSimulator` produces under the same
stimulus — states, flags, runnable bits, value buffers, lost-event and
reaction counts, and environment emissions included.

Two enforcement layers, mirroring the difftest oracle:

* :func:`check_lanes` replays sampled lanes of a concrete fleet
  configuration (the fixed tests and ``repro fleet --check`` use this);
* :func:`random_campaign` wraps seeded random CFSMs from the difftest
  generator into single-machine networks, drives them with random
  stimulus specs, and checks **every** lane — the randomized campaign CI
  runs.

The scalar side replays a lane by regenerating its shard's stimulus
planes and reading that lane's bits, so both sides consume the very same
stream object; any divergence is in the kernels, never in the stimulus.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cfsm.network import Network, NetworkSimulator
from .kernel import CompiledNetwork, compile_network
from .sim import FleetConfig, FleetShard
from .stimulus import StimulusSpec, StimulusStream, default_spec, shard_seed

__all__ = [
    "campaign_case",
    "check_lanes",
    "random_campaign",
    "scalar_reference_run",
]


def _scalar_snapshot(
    sim: NetworkSimulator, compiled: CompiledNetwork
) -> Dict[str, Any]:
    """Scalar observables shaped like :meth:`FleetShard.snapshot_lane`."""
    enabled = set(sim.enabled_machines())
    machines = {
        m.name: {
            "state": sim.state_of(m.name),
            "flags": sorted(sim.flags_of(m.name)),
            "runnable": m.name in enabled,
        }
        for m in sim.network.machines
    }
    env_emitted: Dict[str, int] = {name: 0 for name in compiled.env_outputs}
    for name, _ in sim.emitted_to_environment:
        env_emitted[name] += 1
    return {
        "machines": machines,
        "values": {
            name: sim.values.get(name, 0) for name in compiled.event_widths
        },
        "lost_events": sim.lost_events,
        "reactions": sim.reactions,
        "env_emitted": env_emitted,
    }


def scalar_reference_run(
    network: Network,
    compiled: CompiledNetwork,
    spec: StimulusSpec,
    seed: int,
    steps: int,
    shard_index: int,
    shard_lanes: int,
    lane_in_shard: int,
    step_planes: Optional[List[Any]] = None,
) -> Dict[str, Any]:
    """Replay one lane through the scalar simulator.

    ``step_planes`` (the materialized stream of the lane's shard) can be
    shared across lanes of one shard to amortize plane generation.
    """
    if step_planes is None:
        step_planes = materialize_stream(
            compiled, spec, seed, steps, shard_index, shard_lanes
        )
    sim = NetworkSimulator(network)
    for planes in step_planes:
        for name, presence, values in planes:
            if not (presence >> lane_in_shard) & 1:
                continue
            value: Optional[int] = None
            if values is not None:
                value = sum(
                    ((plane >> lane_in_shard) & 1) << b
                    for b, plane in enumerate(values)
                )
            sim.inject(name, value)
        sim.step()
    return _scalar_snapshot(sim, compiled)


def materialize_stream(
    compiled: CompiledNetwork,
    spec: StimulusSpec,
    seed: int,
    steps: int,
    shard_index: int,
    shard_lanes: int,
) -> List[Any]:
    """All stimulus planes of one shard, as ints (shareable across lanes)."""
    stream = StimulusStream(
        spec,
        {name: width for name, width in compiled.env_inputs},
        shard_lanes,
        shard_seed(seed, shard_index),
    )
    return [stream.step_planes() for _ in range(steps)]


def _diff(lane: int, got: Dict[str, Any], want: Dict[str, Any]) -> List[Dict]:
    mismatches = []
    for key in ("machines", "values", "lost_events", "reactions", "env_emitted"):
        if got[key] != want[key]:
            mismatches.append(
                {"lane": lane, "field": key, "fleet": got[key], "scalar": want[key]}
            )
    return mismatches


def check_lanes(
    network: Network,
    config: FleetConfig,
    lanes: Sequence[int],
    compiled: Optional[CompiledNetwork] = None,
) -> List[Dict[str, Any]]:
    """Cross-check the given global lanes; returns mismatch records."""
    if compiled is None:
        compiled = compile_network(network)
    spec = config.spec if config.spec is not None else default_spec(network)
    spec.validate(network)
    sizes = config.shard_sizes()
    by_shard: Dict[int, List[int]] = {}
    for lane in lanes:
        if not 0 <= lane < config.instances:
            raise ValueError(f"lane {lane} outside fleet of {config.instances}")
        by_shard.setdefault(lane // config.lanes_per_shard, []).append(lane)

    mismatches: List[Dict[str, Any]] = []
    for shard_index, shard_lanes_list in sorted(by_shard.items()):
        shard_size = sizes[shard_index]
        shard = FleetShard(
            compiled, shard_size, spec, shard_seed(config.seed, shard_index)
        )
        shard.run(config.steps)
        step_planes = materialize_stream(
            compiled, spec, config.seed, config.steps, shard_index, shard_size
        )
        for lane in shard_lanes_list:
            local = lane % config.lanes_per_shard
            got = shard.snapshot_lane(local)
            want = scalar_reference_run(
                network,
                compiled,
                spec,
                config.seed,
                config.steps,
                shard_index,
                shard_size,
                local,
                step_planes=step_planes,
            )
            mismatches.extend(_diff(lane, got, want))
    return mismatches


def campaign_case(seed: int, index: int) -> Tuple[Network, StimulusSpec]:
    """Case ``index`` of a campaign: one random machine as a network, and a
    full-range stimulus with a random presence probability per input."""
    import random as _random

    from ..difftest.generator import CaseConfig, generate_case

    case = generate_case(seed, index, CaseConfig(snapshots=1))
    network = Network(f"fuzz-case-{index}", [case.cfsm])
    rng = _random.Random(seed * 1_000_003 + index)
    full = default_spec(network).events
    stim = {
        event.name: replace(
            full[event.name], probability=rng.choice([0.1, 0.3, 0.5, 0.8])
        )
        for event in network.environment_inputs()
    }
    return network, StimulusSpec(events=stim)


def random_campaign(
    cases: int = 25,
    seed: int = 0,
    lanes: int = 64,
    steps: int = 40,
) -> Dict[str, Any]:
    """Difftest-style campaign: random machines, random stimulus, all lanes."""
    checked = 0
    failures: List[Dict[str, Any]] = []
    for index in range(cases):
        network, spec = campaign_case(seed, index)
        config = FleetConfig(
            instances=lanes,
            steps=steps,
            seed=seed + index,
            lanes_per_shard=lanes,
            spec=spec,
        )
        mismatches = check_lanes(network, config, range(lanes))
        checked += lanes
        if mismatches:
            failures.append(
                {
                    "case": index,
                    "mismatches": mismatches[:5],
                    "total_mismatches": len(mismatches),
                }
            )
    return {
        "cases": cases,
        "lanes_checked": checked,
        "failures": failures,
        "mismatches": sum(f["total_mismatches"] for f in failures),
    }
