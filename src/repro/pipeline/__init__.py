"""Building modules: the artifact builder, caching, parallelism, tracing.

Synthesizing one CFSM is a fixed sequence (Sec. I-H, III): sift χ, build
the s-graph, reduce and optimize it (:func:`repro.sgraph.synthesize`),
emit C, then compile and estimate.  This package wraps that sequence:

* :mod:`repro.pipeline.artifacts` — :func:`build_module_artifacts`, the
  one builder of a module's artifacts (the build, its workers, the fuzz
  oracle, the verifier, ``repro synth`` and serve all call it), its
  cache-aware wrapper :func:`cached_module_artifacts`, and the picklable
  :class:`ModuleArtifacts` bundle both the cache and the workers speak;
* :mod:`repro.pipeline.cache` — a content-addressed on-disk
  :class:`ArtifactCache` keyed by (CFSM fingerprint, options/profile
  fingerprint, code version);
* :mod:`repro.pipeline.parallel` — serial or process-pool executors
  over per-CFSM build tasks, one shared pool per process;
* :mod:`repro.pipeline.trace` — the structured :class:`BuildTrace`
  (``repro-build-trace/v1`` JSON) and :func:`~repro.pipeline.trace.staged`,
  which times one step and records it with its metrics.

:func:`repro.flow.build_system` is the scheduler that wires these
together.
"""

from .artifacts import (
    ModuleArtifacts,
    build_module_artifacts,
    cached_module_artifacts,
    synthesis_options,
)
from .cache import (
    ArtifactCache,
    cfsm_fingerprint,
    code_version,
    module_cache_key,
    options_fingerprint,
    profile_fingerprint,
)
from .parallel import (
    Executor,
    ModuleBuildOutcome,
    ModuleBuildTask,
    PersistentProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .trace import BuildTrace, TraceEvent

__all__ = [
    "BuildTrace",
    "TraceEvent",
    "ArtifactCache",
    "cfsm_fingerprint",
    "options_fingerprint",
    "profile_fingerprint",
    "module_cache_key",
    "code_version",
    "ModuleArtifacts",
    "build_module_artifacts",
    "cached_module_artifacts",
    "synthesis_options",
    "ModuleBuildTask",
    "ModuleBuildOutcome",
    "Executor",
    "SerialExecutor",
    "PersistentProcessExecutor",
    "make_executor",
]
