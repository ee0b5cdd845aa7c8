"""The fleet simulator: thousands of network instances per plane pass.

A :class:`FleetShard` holds one block of lanes: per machine a set of
flag/state planes, per valued event a buffer plane vector, and the
per-lane round-robin cursor.  One :meth:`FleetShard.step` replicates one
:meth:`repro.cfsm.network.NetworkSimulator.step` (plus that step's
stimulus injection) simultaneously for every lane:

1. inject the stimulus planes (1-place buffers: presence overlap counts
   a lost event per lane);
2. compute the **pick planes** — which machine each lane's round-robin
   schedule runs this step.  The cursor is one-hot per lane; walking the
   machines in cursor order with a shrinking "still unpicked" prefix
   plane costs O(M²) plane ops and reproduces the scalar
   ``_pick_round_robin`` exactly, lane by lane;
3. run every machine's compiled kernel masked by its pick plane (pick
   planes are disjoint across machines, so kernels can run sequentially
   against the live planes) and deliver its emissions.

:meth:`FleetShard.run` advances a shard by many steps in one call of the
native shard run (:mod:`repro.fleet.native`), which leaves exactly what
as many :meth:`FleetShard.step` calls leave; ``step`` is its oracle and
the engine wherever the C source does not build.

Lanes are grouped into fixed ``lanes_per_shard`` blocks whose stimulus
seeds depend only on ``(seed, shard index)``, so results are independent
of ``--jobs``; shards run as :class:`FleetShardTask` on the pipeline
executors through :func:`repro.pipeline.parallel.run_traced`, each
outcome carrying its shard's span and counters home, mirroring the
difftest campaign runner.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cfsm.network import Network
from ..obs.context import TraceContext
from ..pipeline.parallel import make_executor, run_traced, task_span
from ..pipeline.trace import BuildTrace, TraceEvent
from . import native
from .kernel import CompiledNetwork, compile_network
from .lanes import LaneCounter, select
from .stimulus import StimulusSpec, StimulusStream, default_spec, shard_seed

__all__ = [
    "FleetConfig",
    "FleetShard",
    "FleetShardTask",
    "FleetShardOutcome",
    "run_fleet",
]

DEFAULT_LANES_PER_SHARD = 4096


@dataclass
class FleetConfig:
    """One fleet run (picklable; ``spec`` defaults to full-range 50%)."""

    instances: int = DEFAULT_LANES_PER_SHARD
    steps: int = 100
    seed: int = 0
    jobs: int = 1
    lanes_per_shard: int = DEFAULT_LANES_PER_SHARD
    spec: Optional[StimulusSpec] = None

    def shard_sizes(self) -> List[int]:
        """Lanes of each shard; raises ``ValueError`` on impossible sizes."""
        if self.instances < 1:
            raise ValueError("a fleet needs at least one instance")
        if self.steps < 0:
            raise ValueError("steps must not be negative")
        if self.lanes_per_shard < 1:
            raise ValueError("lanes_per_shard must be positive")
        sizes = []
        remaining = self.instances
        while remaining > 0:
            sizes.append(min(self.lanes_per_shard, remaining))
            remaining -= self.lanes_per_shard
        return sizes


class FleetShard:
    """Simulation state of one block of ``lanes`` lanes, as int planes."""

    def __init__(
        self,
        compiled: CompiledNetwork,
        lanes: int,
        spec: StimulusSpec,
        seed: int,
    ):
        self.compiled = compiled
        self.lanes = lanes
        self.mask = mask = (1 << lanes) - 1
        self.stream = StimulusStream(
            spec, _env_input_widths(compiled), lanes, seed
        )

        self.states: List[Dict[str, List[int]]] = []
        self.flags: List[Dict[str, int]] = []
        for machine in compiled.machines:
            state = {}
            for name, _, bits, init in machine.state_specs:
                state[name] = [
                    mask if (init >> b) & 1 else 0 for b in range(bits)
                ]
            self.states.append(state)
            self.flags.append({e: 0 for e in machine.input_events})
        self.runnable: List[int] = [0 for _ in compiled.machines]
        self.buffers: Dict[str, List[int]] = {
            name: [0] * width for name, width in compiled.event_widths.items()
        }
        # One-hot round-robin cursor, all lanes starting at machine 0.
        self.cursor: List[int] = [
            mask if j == 0 else 0 for j in range(len(compiled.machines))
        ]
        self.lost = LaneCounter(lanes)
        self.reactions = LaneCounter(lanes)
        self.env_emitted: Dict[str, LaneCounter] = {
            name: LaneCounter(lanes) for name in compiled.env_outputs
        }

    # -- one synchronized scalar step per lane -------------------------------

    def run(self, steps: int) -> str:
        """Advance ``steps`` steps; returns the engine that ran them.

        ``"native"``: one call of the C shard run (:mod:`.native`);
        ``"python"``, where it does not build or load: ``steps`` calls of
        :meth:`step`, its oracle.  Both leave the same planes, counters
        and stimulus state, so runs may alternate engines.
        """
        library = native.fleet_library()
        if library is None:
            for _ in range(steps):
                self.step()
            return "python"
        native.run_shard(library, self, steps)
        return "native"

    def step(self) -> None:
        mask = self.mask

        # 1. stimulus injection (the scalar replay injects, then steps).
        for name, presence, values in self.stream.step_planes():
            if presence:
                self._deliver(name, presence, values)

        # 2. per-lane round-robin pick.
        machines = self.compiled.machines
        count = len(machines)
        enabled = list(self.runnable)
        pick = [0] * count
        for c in range(count):
            prefix = self.cursor[c]
            if not prefix:
                continue
            for offset in range(count):
                j = (c + offset) % count
                take = prefix & enabled[j]
                if take:
                    pick[j] = pick[j] | take
                    prefix = prefix & (enabled[j] ^ mask)
                    if not prefix:
                        break
        any_pick = 0
        for j in range(count):
            any_pick = any_pick | pick[j]
        if not any_pick:
            return
        idle = any_pick ^ mask
        new_cursor = [plane & idle for plane in self.cursor]
        for j in range(count):
            new_cursor[(j + 1) % count] = new_cursor[(j + 1) % count] | pick[j]
        self.cursor = new_cursor
        for j in range(count):
            self.runnable[j] = self.runnable[j] & (pick[j] ^ mask)
        self.reactions.add(any_pick)

        # 3. reactions: disjoint pick planes let kernels run sequentially.
        for j, machine in enumerate(machines):
            run = pick[j]
            if not run:
                continue
            args = [0, mask, run]
            flags = self.flags[j]
            state = self.states[j]
            args.extend(flags[name] for name in machine.input_events)
            for name, _, _, _ in machine.state_specs:
                args.extend(state[name])
            for name in machine.valued_inputs:
                args.extend(self.buffers[name])
            out = machine.fn(*args)
            idx = 1  # out[0] (fired) is folded into the flag planes already
            for name, _, bits, _ in machine.state_specs:
                state[name] = list(out[idx : idx + bits])
                idx += bits
            for name in machine.input_events:
                flags[name] = out[idx]
                idx += 1
            for name, valued in machine.output_events:
                emit = out[idx]
                idx += 1
                values: Optional[List[int]] = None
                if valued:
                    width = self.compiled.event_widths[name]
                    values = list(out[idx : idx + width])
                    idx += width
                if emit:
                    self._deliver(name, emit, values)

    def _deliver(
        self, name: str, presence: int, values: Optional[List[int]]
    ) -> None:
        """Plane-wise :meth:`NetworkSimulator._deliver`."""
        if values is not None:
            buffer = self.buffers[name]
            self.buffers[name] = [
                select(presence, values[b], buffer[b])
                for b in range(len(buffer))
            ]
        consumers = self.compiled.consumers[name]
        if not consumers:
            self.env_emitted[name].add(presence)
            return
        for mi in consumers:
            flags = self.flags[mi]
            self.lost.add(presence & flags[name])
            flags[name] = flags[name] | presence
            self.runnable[mi] = self.runnable[mi] | presence

    # -- observation ---------------------------------------------------------

    def snapshot_lane(self, lane: int) -> Dict[str, Any]:
        """Scalar observables of one lane, shaped like the reference sim."""
        machines: Dict[str, Any] = {}
        for j, machine in enumerate(self.compiled.machines):
            state = {
                name: sum(
                    ((plane >> lane) & 1) << b
                    for b, plane in enumerate(self.states[j][name])
                )
                for name, _, _, _ in machine.state_specs
            }
            flags = sorted(
                name
                for name in machine.input_events
                if (self.flags[j][name] >> lane) & 1
            )
            machines[machine.name] = {
                "state": state,
                "flags": flags,
                "runnable": bool((self.runnable[j] >> lane) & 1),
            }
        values = {}
        for name, planes in self.buffers.items():
            value = sum(
                ((plane >> lane) & 1) << b for b, plane in enumerate(planes)
            )
            if planes and (planes[-1] >> lane) & 1:
                value -= 1 << len(planes)
            values[name] = value
        return {
            "machines": machines,
            "values": values,
            "lost_events": self.lost.lane(lane),
            "reactions": self.reactions.lane(lane),
            "env_emitted": {
                name: counter.lane(lane)
                for name, counter in self.env_emitted.items()
            },
        }

    def digest(self) -> str:
        """Canonical digest of the full shard state (determinism checks)."""
        h = hashlib.sha256()
        size = (self.lanes + 7) // 8

        def feed(plane: int) -> None:
            h.update(plane.to_bytes(size, "little"))

        for j, machine in enumerate(self.compiled.machines):
            for name, _, _, _ in machine.state_specs:
                for plane in self.states[j][name]:
                    feed(plane)
            for name in machine.input_events:
                feed(self.flags[j][name])
            feed(self.runnable[j])
        for name in sorted(self.buffers):
            for plane in self.buffers[name]:
                feed(plane)
        for plane in self.cursor:
            feed(plane)
        for counter in [self.lost, self.reactions] + [
            self.env_emitted[name] for name in sorted(self.env_emitted)
        ]:
            for plane in counter.planes:
                feed(plane)
        return h.hexdigest()


def _env_input_widths(compiled: CompiledNetwork) -> Dict[str, Optional[int]]:
    return {name: width for name, width in compiled.env_inputs}


@dataclass
class FleetShardOutcome:
    """Executor-transportable result of one shard."""

    shard: int
    lanes: int
    reactions: int
    lost_events: int
    env_emitted: Dict[str, int]
    digest: str
    wall_ms: float
    #: Wall time this shard's process spent building or loading the native
    #: shard run (its first fleet shard only; see
    #: :func:`native.load_fleet_library`).
    library_ms: float = 0.0
    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class FleetShardTask:
    """One schedulable shard; runs inside executor workers.

    The compiled network ships as kernel tapes plus layout metadata.
    """

    shard_index: int
    lanes: int
    config: FleetConfig
    compiled: CompiledNetwork
    spec: StimulusSpec
    context: Optional[TraceContext] = None

    def run(self, keep_result: bool) -> FleetShardOutcome:
        started = time.perf_counter()
        trace = BuildTrace(context=self.context)
        with task_span(
            trace, f"shard-{self.shard_index:03d}", "fleet.shard"
        ) as span:
            shard = FleetShard(
                self.compiled,
                self.lanes,
                self.spec,
                shard_seed(self.config.seed, self.shard_index),
            )
            library_ms = native.load_fleet_library()
            engine = shard.run(self.config.steps)
            reactions = shard.reactions.total()
            lost = shard.lost.total()
            span.metrics.update(
                {
                    "lanes": self.lanes,
                    "steps": self.config.steps,
                    "fleet_engine": engine,
                    "fleet_library_ms": round(library_ms, 3),
                    "fleet_reactions": reactions,
                    "fleet_lost_events": lost,
                }
            )
        trace.add_metric("fleet_reactions", reactions)
        trace.add_metric("fleet_lost_events", lost)
        trace.add_metric("fleet_library_ms", round(library_ms, 3))
        return FleetShardOutcome(
            shard=self.shard_index,
            lanes=self.lanes,
            reactions=reactions,
            lost_events=lost,
            env_emitted={
                name: counter.total()
                for name, counter in shard.env_emitted.items()
            },
            digest=shard.digest(),
            wall_ms=(time.perf_counter() - started) * 1000.0,
            library_ms=library_ms,
            events=trace.events,
            metrics=trace.metrics,
        )


def run_fleet(
    network: Network,
    config: FleetConfig,
    trace: Optional[BuildTrace] = None,
    compiled: Optional[CompiledNetwork] = None,
) -> Dict[str, Any]:
    """Simulate a fleet of ``network`` instances; returns a summary doc.

    Compiles the network once, shards the lanes, fans the shards out over
    the pipeline executor, and merges counters, digests and (with
    ``trace``) per-shard spans — the difftest campaign pattern applied to
    simulation.
    """
    started = time.perf_counter()
    sizes = config.shard_sizes()
    spec = config.spec if config.spec is not None else default_spec(network)
    spec.validate(network)
    compile_ms = 0.0
    if compiled is None:
        compile_started = time.perf_counter()
        compiled = compile_network(network)
        compile_ms = round(
            (time.perf_counter() - compile_started) * 1000.0, 3
        )
    if trace is not None and trace.trace_id is None:
        trace.begin(f"fleet-{network.name}")
    tasks = [
        FleetShardTask(
            shard_index=i,
            lanes=lanes,
            config=config,
            compiled=compiled,
            spec=spec,
        )
        for i, lanes in enumerate(sizes)
    ]
    outcomes: List[FleetShardOutcome] = run_traced(
        make_executor(config.jobs), tasks, trace
    )
    if trace is not None:
        trace.finish()

    reactions = sum(o.reactions for o in outcomes)
    lost = sum(o.lost_events for o in outcomes)
    env_emitted: Dict[str, int] = {}
    for outcome in outcomes:
        for name, count in outcome.env_emitted.items():
            env_emitted[name] = env_emitted.get(name, 0) + count
    digest = hashlib.sha256(
        "".join(o.digest for o in outcomes).encode("ascii")
    ).hexdigest()
    wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
    # A process's first native run builds or loads the shard run; that
    # one-off cost counts as compile time, not simulation.  Pooled
    # workers build at the same time, so the longest build is the wall
    # they cost.
    compile_ms = round(
        compile_ms + max((o.library_ms for o in outcomes), default=0.0), 3
    )
    # The rate is over the simulated seconds the summary reports.
    sim_seconds = max(wall_ms - compile_ms, 0.001) / 1000.0
    return {
        "network": network.name,
        "instances": config.instances,
        "steps": config.steps,
        "seed": config.seed,
        "jobs": config.jobs,
        "lanes_per_shard": config.lanes_per_shard,
        "shards": len(outcomes),
        "kernel_ops": compiled.op_count,
        "reactions": reactions,
        "lost_events": lost,
        "env_emitted": env_emitted,
        "reactions_per_sec": round(reactions / sim_seconds, 1),
        "compile_ms": compile_ms,
        "wall_ms": wall_ms,
        "digest": digest,
    }
