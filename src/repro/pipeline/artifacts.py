"""The serializable per-CFSM artifact bundle and the routine that builds it.

:class:`ModuleArtifacts` is everything the system flow needs from one
software CFSM *after* synthesis — the generated C, the compiled target
program, the s-graph estimate, the measured path analysis, and the copied
state variables — with no live BDD objects attached, so the bundle can be
pickled into the artifact cache or shipped back from a worker process.

:func:`build_module_artifacts` is the one builder of the bundle.  The
build (serial, pooled and on cache misses), the fuzz oracle
(:func:`repro.difftest.oracle.build_case_artifacts`), the verifier
(:meth:`repro.analysis.ModuleVerifyContext.build`), ``repro synth`` and
serve's ``estimate`` requests all go through it, so the checkers look at
the bytes a build ships, and those bytes are the same whatever executor
or cache temperature produced them.  :func:`cached_module_artifacts`
puts one artifact cache in front of it for the callers that build one
module at a time; :func:`repro.flow.build_system` batches its own
lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .cache import ArtifactCache, module_cache_key
from .trace import BuildTrace, staged

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from ..estimation import CostParams, Estimate
    from ..sgraph import SynthesisResult
    from ..target import ISAProfile, PathAnalysis, Program

__all__ = [
    "ModuleArtifacts",
    "bound_figures",
    "build_module_artifacts",
    "cached_module_artifacts",
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
    s-graph and reactive function (serial in-process builds, the
    checkers).

    Each call synthesizes in a fresh BDD manager of its own, which only
    the returned result keeps alive.  The estimator is read from the
    ``repro.estimation`` package at call time, so a fault injected there
    (:mod:`repro.difftest.inject`) reaches every caller.
    """
    from .. import estimation
    from ..bdd.native import load_kernel_library
    from ..codegen import generate_c
    from ..sgraph import synthesize
    from ..target import analyze_program, compile_sgraph

    name = machine.name
    # The BDD kernel is built or loaded once per process, before the first
    # synthesis, and its wall reported on its own (0.0 once done).
    library_ms = load_kernel_library()
    if trace is not None:
        trace.add_metric("bdd_library_ms", round(library_ms, 3))
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
        lambda: estimation.estimate(
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


def cached_module_artifacts(
    machine,
    options: Dict[str, Any],
    profile: "ISAProfile",
    params: "CostParams",
    cache: Optional[ArtifactCache] = None,
    trace: Optional[BuildTrace] = None,
) -> Tuple[ModuleArtifacts, Optional["SynthesisResult"], bool]:
    """:func:`build_module_artifacts` behind ``cache``.

    Returns ``(artifacts, result, from_cache)``; ``result`` is ``None``
    on a hit.  With a cache, it looks the module's key up, records the
    ``cache`` event on ``trace``, and stores a miss's artifacts.
    """
    key = None
    if cache is not None:
        key = module_cache_key(machine, options, profile)
        artifacts = cache.get(key)
        if trace is not None:
            trace.record_cache(
                machine.name, "hit" if artifacts is not None else "miss", key
            )
        if artifacts is not None:
            return artifacts, None, True
    artifacts, result = build_module_artifacts(
        machine, options, profile, params, trace=trace
    )
    if key is not None:
        cache.put(key, artifacts)
    return artifacts, result, False
