"""The serializable per-CFSM artifact bundle and the routine that builds it.

:class:`ModuleArtifacts` is everything the system flow needs from one
software CFSM *after* synthesis — the generated C, the compiled target
program, the s-graph estimate, the measured path analysis, and the copied
state variables — with no live BDD objects attached, so the bundle can be
pickled into the artifact cache or shipped back from a worker process.

:func:`build_module_artifacts` is the one code path that produces the
bundle; the serial flow, the process-pool workers, and cache misses all go
through it, which is what guarantees byte-identical artifacts regardless
of executor or cache temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .trace import BuildTrace, staged

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from ..estimation import CostParams, Estimate
    from ..sgraph import SynthesisResult
    from ..target import ISAProfile, PathAnalysis, Program

__all__ = [
    "ModuleArtifacts",
    "bound_figures",
    "build_module_artifacts",
    "synthesis_options",
]


@dataclass
class ModuleArtifacts:
    """Cacheable, picklable build products of one software CFSM."""

    name: str
    scheme: str
    c_source: str
    program: "Program"
    estimate: "Estimate"
    measured: "PathAnalysis"
    copied_state_vars: List[str] = field(default_factory=list)


def bound_figures(bounds: "Estimate | PathAnalysis") -> Dict[str, int]:
    """Code size and min/max cycles of an estimate or a measurement."""
    return {
        "code_size": bounds.code_size,
        "min_cycles": bounds.min_cycles,
        "max_cycles": bounds.max_cycles,
    }


def synthesis_options(
    scheme: str = "sift",
    copy_elimination: bool = False,
    multiway: bool = True,
    multiway_threshold: int = 2,
    prune: bool = True,
    reachability_dontcares: bool = False,
    mixed_seed: int = 0,
    params: Optional["CostParams"] = None,
) -> Dict[str, Any]:
    """The canonical option dict: one source for cache keys *and* synthesis.

    ``params`` enters as its ``repr`` — any change to the calibrated cost
    model changes the estimate artifact, so it must change the key.
    """
    return {
        "scheme": scheme,
        "copy_elimination": bool(copy_elimination),
        "multiway": bool(multiway),
        "multiway_threshold": int(multiway_threshold),
        "prune": bool(prune),
        "reachability_dontcares": bool(reachability_dontcares),
        "mixed_seed": int(mixed_seed),
        "params": "default" if params is None else repr(params),
    }


def build_module_artifacts(
    machine,
    options: Dict[str, Any],
    profile: "ISAProfile",
    params: "CostParams",
    trace: Optional[BuildTrace] = None,
) -> Tuple[ModuleArtifacts, "SynthesisResult"]:
    """Synthesize one CFSM end to end and bundle its artifacts.

    ``options`` is a :func:`synthesis_options` dict.  Returns the bundle
    plus the live :class:`SynthesisResult` for callers that want the
    s-graph and reactive function (serial in-process builds).

    Each call synthesizes in a fresh BDD manager of its own, which only
    the returned result keeps alive.
    """
    from ..codegen import generate_c
    from ..estimation import estimate as estimate_sgraph
    from ..sgraph import synthesize
    from ..target import analyze_program, compile_sgraph

    name = machine.name
    result = synthesize(
        machine,
        scheme=options["scheme"],
        multiway=options["multiway"],
        multiway_threshold=options["multiway_threshold"],
        prune=options["prune"],
        copy_elimination=options["copy_elimination"],
        reachability_dontcares=options["reachability_dontcares"],
        mixed_seed=options["mixed_seed"],
        trace=trace,
    )

    program = staged(
        trace, name, "compile", lambda: compile_sgraph(result, profile)
    )
    c_source = staged(trace, name, "codegen", lambda: generate_c(result))
    est = staged(
        trace, name, "estimate",
        lambda: estimate_sgraph(
            result.sgraph,
            result.reactive.encoding,
            params,
            copy_vars=result.copy_vars,
        ),
        bound_figures,
    )
    measured = staged(
        trace, name, "measure", lambda: analyze_program(program, profile),
        bound_figures,
    )
    artifacts = ModuleArtifacts(
        name=name,
        scheme=options["scheme"],
        c_source=c_source,
        program=program,
        estimate=est,
        measured=measured,
        copied_state_vars=result.copied_state_vars(),
    )
    return artifacts, result
