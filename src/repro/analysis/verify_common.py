"""Shared context objects for the ``verify`` check layers.

``repro lint`` checks look at one representation each; the ``verify``
tier instead analyses a *fully built* module — the synthesized s-graph,
the compiled ISA program, and the generated-and-parsed C — so its checks
can cross-examine the layers against each other.
:class:`ModuleVerifyContext.build` gets those artifacts from
:func:`repro.pipeline.build_module_artifacts`, the builder ``repro
build`` and the conformance oracle use, so the verifier checks the bytes
a build ships.  That builder reads ``repro.estimation.estimate`` at call
time, so injected faults (:mod:`repro.difftest.inject`) reach the
verifier exactly as they reach the fuzz oracle — that visibility is what
the ``est-halve-max`` gate self-test exercises.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = ["ModuleVerifyContext", "RtosVerifyContext", "scheme_tolerance"]


def scheme_tolerance(scheme: str, est_tolerance: Optional[float]) -> float:
    """The estimator tolerance for a scheme (mirrors the fuzz oracle).

    ``outputs-first`` trades timing for size so aggressively that its
    estimates are only order-of-magnitude; the fuzzer widens its bounds
    to at least 2.0 and the verifier must judge with the same yardstick.
    """
    tolerance = 0.5 if est_tolerance is None else est_tolerance
    if scheme == "outputs-first":
        tolerance = max(tolerance, 2.0)
    return tolerance


class ModuleVerifyContext:
    """Every artifact of one module, built once, shared by verify checks."""

    def __init__(
        self,
        machine: Any,
        result: Any,
        program: Any,
        profile: Any,
        params: Any,
        est: Any,
        meas: Any,
        source: str,
        creact: Any,
        scheme: str,
        est_tolerance: float,
    ) -> None:
        self.machine = machine
        self.result = result
        self.program = program
        self.profile = profile
        self.params = params
        self.est = est
        self.meas = meas
        self.source = source
        self.creact = creact
        self.scheme = scheme
        self.est_tolerance = est_tolerance

    @property
    def sgraph(self) -> Any:
        return self.result.sgraph

    @property
    def encoding(self) -> Any:
        return self.result.reactive.encoding

    @classmethod
    def build(
        cls,
        machine: Any,
        scheme: str = "sift",
        profile: str = "K11",
        est_tolerance: Optional[float] = None,
        copy_elimination: bool = True,
    ) -> "ModuleVerifyContext":
        """The module's artifacts as a build ships them, plus its parsed C."""
        from ..difftest.cinterp import CReaction
        from ..estimation import calibrate
        from ..pipeline import build_module_artifacts, synthesis_options
        from ..target import PROFILES

        isa_profile = PROFILES[profile]
        params = calibrate(isa_profile)
        built, result = build_module_artifacts(
            machine,
            synthesis_options(scheme=scheme, copy_elimination=copy_elimination),
            isa_profile,
            params,
        )
        return cls(
            machine=machine,
            result=result,
            program=built.program,
            profile=isa_profile,
            params=params,
            est=built.estimate,
            meas=built.measured,
            source=built.c_source,
            creact=CReaction.parse(built.c_source, machine),
            scheme=scheme,
            est_tolerance=scheme_tolerance(scheme, est_tolerance),
        )


class RtosVerifyContext:
    """A CFSM network plus the RTOS configuration it will run under."""

    def __init__(self, machines: Sequence[Any], config: Optional[Any] = None):
        from ..rtos.config import RtosConfig

        self.machines = list(machines)
        self.config = config if config is not None else RtosConfig()

    def software_machines(self) -> list:
        return [
            m for m in self.machines
            if m.name not in self.config.hw_machines
        ]

    def task_of(self, machine_name: str) -> Optional[str]:
        """Task name a software machine runs in (chains fuse names)."""
        if machine_name in self.config.hw_machines:
            return None
        chain = self.config.chain_of(machine_name)
        if chain is not None:
            return "+".join(chain)
        return machine_name

    def task_priority(self, task_name: str) -> int:
        members = task_name.split("+")
        return min(self.config.priority_of(m) for m in members)
