"""Fleet-scale batched simulation of CFSM networks.

Compiles each machine's synthesized evaluator into a straight-line
bit-sliced kernel (one plane per state bit/flag/buffer bit, one fleet
instance per lane) and steps thousands of network instances per plane
pass, sharded over the pipeline process pool; a shard's steps run in one
native call (:mod:`repro.fleet.native`) where its C source builds.  Every
lane is bit-for-bit equivalent to the scalar
:class:`repro.cfsm.network.NetworkSimulator` — see
:mod:`repro.fleet.crosscheck`.
"""

from .alu import Alu, BitVec, Circuit, FleetCompileError, build_expr
from .crosscheck import campaign_case, check_lanes, random_campaign
from .kernel import CompiledMachine, CompiledNetwork, compile_network
from .lanes import LaneCounter, select
from .sim import (
    FleetConfig,
    FleetShard,
    FleetShardOutcome,
    FleetShardTask,
    run_fleet,
)
from .stimulus import (
    EventStimulus,
    StimulusSpec,
    StimulusStream,
    default_spec,
    load_spec,
    shard_seed,
)

__all__ = [
    "Alu",
    "BitVec",
    "Circuit",
    "CompiledMachine",
    "CompiledNetwork",
    "EventStimulus",
    "FleetCompileError",
    "FleetConfig",
    "FleetShard",
    "FleetShardOutcome",
    "FleetShardTask",
    "LaneCounter",
    "StimulusSpec",
    "StimulusStream",
    "build_expr",
    "campaign_case",
    "check_lanes",
    "compile_network",
    "default_spec",
    "load_spec",
    "random_campaign",
    "run_fleet",
    "select",
    "shard_seed",
]
