"""The pass-pipeline subsystem: passes, caching, parallelism, tracing.

This package turns the paper's five-stage flow (Sec. I-H) from a
hard-wired call sequence into an orchestrated pipeline:

* :mod:`repro.pipeline.passes` — the :class:`Pass` protocol and
  :class:`PassManager` that run a declared stage sequence with per-pass
  timing and metrics;
* :mod:`repro.pipeline.cache` — a content-addressed on-disk
  :class:`ArtifactCache` keyed by (CFSM fingerprint, options/profile
  fingerprint, code version);
* :mod:`repro.pipeline.parallel` — serial or process-pool executors
  over per-CFSM build tasks, one shared pool per process;
* :mod:`repro.pipeline.trace` — the structured :class:`BuildTrace`
  (``repro-build-trace/v1`` JSON);
* :mod:`repro.pipeline.artifacts` — the picklable per-CFSM
  :class:`ModuleArtifacts` bundle both the cache and the workers speak.

:func:`repro.flow.build_system` is the scheduler that wires these
together; :mod:`repro.sgraph.passes` declares the synthesis stages.
"""

from .artifacts import ModuleArtifacts, build_module_artifacts, synthesis_options
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
from .passes import Pass, PassContext, PassManager
from .trace import BuildTrace, TraceEvent

__all__ = [
    "Pass",
    "PassContext",
    "PassManager",
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
    "synthesis_options",
    "ModuleBuildTask",
    "ModuleBuildOutcome",
    "Executor",
    "SerialExecutor",
    "PersistentProcessExecutor",
    "make_executor",
]
