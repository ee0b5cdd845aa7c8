"""Worker-side request execution for `repro serve`.

A :class:`ServeRequestTask` is the picklable unit the coordinator submits
to the persistent process pool; it speaks the same task protocol
(``run(keep_result) -> outcome``) as every other pipeline task.  Inside
the worker it dispatches on the request kind to a handler that reuses the
exact library entry points the CLI uses — :func:`repro.flow.build_system`,
:func:`repro.pipeline.build_module_artifacts`,
:func:`repro.fleet.sim.run_fleet`, :func:`repro.difftest.run_fuzz` — so a
served response is byte-identical to a direct call (the conformance
suite's contract).

Worker-warm state lives at module level and survives across requests:

* one :class:`~repro.serve.pool.ManagerPool` of reset-reused BDD managers;
* one shared-mode :class:`~repro.pipeline.cache.ArtifactCache` handle per
  cache directory (pin markers + counters are per-pid, so every worker
  can hammer the same directory).

Tracing: the coordinator hands the task a
:class:`~repro.obs.context.TraceContext` on :data:`REQUEST_LANE` (the top
of the 16-bit lane space, so nested per-module / per-case sub-task lanes
``1..N`` can never collide with it).  The worker adopts it, wraps the
whole request in one ``request.<kind>`` span
(:func:`repro.pipeline.parallel.task_span`), and ships events + metrics
home inside the outcome, the same shape every pipeline task returns.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.context import TraceContext
from ..pipeline import (
    ArtifactCache,
    BuildTrace,
    build_module_artifacts,
    module_cache_key,
    synthesis_options,
)
from ..pipeline.artifacts import bound_figures
from ..pipeline.parallel import task_span
from ..pipeline.trace import TraceEvent
from .pool import ManagerPool

__all__ = [
    "REQUEST_LANE",
    "ServeOutcome",
    "ServeRequestTask",
    "warm_worker",
]

#: The span-id lane a request's root span lives on.  Nested sub-tasks
#: (build_system modules, fuzz cases, fleet shards) take lanes ``1..N``;
#: the top of the 16-bit lane space keeps the request span clear of them.
REQUEST_LANE = 0xFFFF

# -- per-worker warm state -------------------------------------------------

_MANAGER_POOL = ManagerPool()
_CACHES: Dict[Tuple[str, Optional[int]], ArtifactCache] = {}


def _worker_cache(
    cache_dir: Optional[str], max_bytes: Optional[int]
) -> Optional[ArtifactCache]:
    if not cache_dir:
        return None
    key = (cache_dir, max_bytes)
    if key not in _CACHES:
        _CACHES[key] = ArtifactCache(
            cache_dir, max_bytes=max_bytes, shared=True
        )
    return _CACHES[key]


def warm_worker() -> None:
    """Pool initializer: import the flow and calibrate the default target."""
    from ..estimation import calibrate
    from ..target import K11

    calibrate(K11)


# -- request parameter resolution ------------------------------------------


def _apps():
    from ..apps import abp_network, dashboard_network, shock_network

    return {
        "dashboard": dashboard_network,
        "shock": shock_network,
        "abp": abp_network,
    }


def _resolve_network(params: Dict[str, Any]):
    """A CFSM network from ``app`` (bundled) or ``sources`` (RSL texts)."""
    from ..cfsm.network import Network
    from ..frontend import compile_source

    app = params.get("app")
    if app is not None:
        factories = _apps()
        if app not in factories:
            raise ValueError(
                f"unknown app {app!r} (have: {', '.join(sorted(factories))})"
            )
        return factories[app]()
    sources = params.get("sources")
    if sources:
        machines = [compile_source(text) for text in sources]
        return Network(params.get("name", "request"), machines)
    raise ValueError("request needs either 'app' or 'sources'")


def _resolve_machine(params: Dict[str, Any]):
    """One CFSM: a single RSL ``source``, or a named machine of an app."""
    from ..frontend import compile_source

    source = params.get("source")
    if source is not None:
        return compile_source(source)
    network = _resolve_network(params)
    wanted = params.get("machine")
    if wanted is None:
        return network.machines[0]
    for machine in network.machines:
        if machine.name == wanted:
            return machine
    raise ValueError(f"no machine {wanted!r} in network {network.name!r}")


def _resolve_profile(params: Dict[str, Any]):
    from ..target import PROFILES

    name = params.get("target", "K11")
    if name not in PROFILES:
        raise ValueError(
            f"unknown target {name!r} (have: {', '.join(sorted(PROFILES))})"
        )
    return PROFILES[name]


# -- handlers --------------------------------------------------------------


def _handle_synthesize(params, cache, trace) -> Dict[str, Any]:
    from ..flow import build_system

    network = _resolve_network(params)
    build = build_system(
        network,
        profile=_resolve_profile(params),
        env_rates=params.get("env_rates"),
        scheme=params.get("scheme", "sift"),
        copy_elimination=bool(params.get("copy_elimination", True)),
        jobs=1,
        cache=cache,
        trace=trace,
        manager_pool=_MANAGER_POOL,
    )
    return {
        "network": network.name,
        "modules": {
            name: {
                "c_source": module.c_source,
                "estimate": bound_figures(module.estimate),
                "measured": bound_figures(module.measured),
                "copied_state_vars": list(module.copied_state_vars),
                "from_cache": module.from_cache,
            }
            for name, module in build.modules.items()
        },
        "rtos_source": build.rtos_source,
        "footprint": str(build.footprint),
        "report": build.report(),
    }


def _handle_estimate(params, cache, trace) -> Dict[str, Any]:
    from ..estimation import calibrate

    machine = _resolve_machine(params)
    profile = _resolve_profile(params)
    cost = calibrate(profile)
    options = synthesis_options(
        scheme=params.get("scheme", "sift"),
        copy_elimination=bool(params.get("copy_elimination", False)),
        params=cost,
    )
    artifacts = None
    from_cache = False
    key = None
    if cache is not None:
        key = module_cache_key(machine, options, profile)
        artifacts = cache.get(key)
        if trace is not None:
            trace.record_cache(
                machine.name, "hit" if artifacts is not None else "miss", key
            )
        from_cache = artifacts is not None
    if artifacts is None:
        manager = _MANAGER_POOL.acquire()
        try:
            artifacts, _result = build_module_artifacts(
                machine, options, profile, cost, trace=trace, manager=manager
            )
        finally:
            _MANAGER_POOL.release(manager)
        del _result
        if cache is not None and key is not None:
            cache.put(key, artifacts)
    return {
        "module": artifacts.name,
        "scheme": artifacts.scheme,
        "estimate": bound_figures(artifacts.estimate),
        "measured": bound_figures(artifacts.measured),
        "c_source": artifacts.c_source,
        "from_cache": from_cache,
    }


def _handle_simulate(params, cache, trace) -> Dict[str, Any]:
    from ..flow import build_system
    from ..rtos.runtime import Stimulus

    network = _resolve_network(params)
    build = build_system(
        network,
        profile=_resolve_profile(params),
        scheme=params.get("scheme", "sift"),
        copy_elimination=bool(params.get("copy_elimination", True)),
        jobs=1,
        cache=cache,
        trace=trace,
        manager_pool=_MANAGER_POOL,
    )
    stimuli = [
        Stimulus(
            time=int(item["time"]),
            event=str(item["event"]),
            value=item.get("value"),
        )
        for item in params.get("stimuli", [])
    ]
    probes = [tuple(pair) for pair in params.get("probes", [])]
    runtime = build.simulate(
        stimuli, until=int(params.get("until", 100_000)), probes=probes
    )
    return {
        "network": network.name,
        "stats": runtime.stats.to_dict(),
        "probes": [probe.to_dict() for probe in runtime.probes],
    }


def _handle_fleet(params, cache, trace) -> Dict[str, Any]:
    del cache  # the fleet kernel compiles its own network form
    from ..fleet.sim import DEFAULT_LANES_PER_SHARD, FleetConfig, run_fleet

    network = _resolve_network(params)
    config = FleetConfig(
        instances=int(params.get("instances", 64)),
        steps=int(params.get("steps", 100)),
        seed=int(params.get("seed", 0)),
        jobs=1,
        lanes_per_shard=int(
            params.get("lanes_per_shard", DEFAULT_LANES_PER_SHARD)
        ),
    )
    return {"summary": run_fleet(network, config, trace=trace)}


def _handle_fuzz(params, cache, trace) -> Dict[str, Any]:
    del cache  # fuzz cases synthesize throwaway machines; caching them
    # would fill the store with single-use entries
    from ..difftest import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=int(params.get("seed", 0)),
        cases=int(params.get("cases", 4)),
        jobs=1,
        reactions=int(params.get("reactions", 12)),
        smoke=bool(params.get("smoke", True)),
        shrink=bool(params.get("shrink", True)),
    )
    return run_fuzz(config, trace=trace)


def _handle_sleep(params, cache, trace) -> Dict[str, Any]:
    """Test-only: hold a worker for a bounded time (soak/backpressure)."""
    del cache, trace
    seconds = min(float(params.get("seconds", 0.05)), 30.0)
    time.sleep(seconds)
    return {"slept_s": seconds}


HANDLERS = {
    "synthesize": _handle_synthesize,
    "estimate": _handle_estimate,
    "simulate": _handle_simulate,
    "fleet": _handle_fleet,
    "fuzz": _handle_fuzz,
    "sleep": _handle_sleep,
}


# -- the task --------------------------------------------------------------


@dataclass
class ServeOutcome:
    """What a worker hands back for one request (picklable)."""

    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ServeRequestTask:
    """One queued request, shipped to a pool worker."""

    kind: str
    params: Dict[str, Any]
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    context: Optional[TraceContext] = None

    def run(self, keep_result: bool) -> ServeOutcome:
        del keep_result  # live objects never cross back; responses are data
        trace = BuildTrace(context=self.context)
        cache = _worker_cache(self.cache_dir, self.cache_max_bytes)
        handler = HANDLERS.get(self.kind)
        result = None
        error = None
        try:
            if handler is None:
                raise ValueError(f"unknown request kind {self.kind!r}")
            with task_span(trace, "serve", f"request.{self.kind}"):
                result = handler(
                    self.params, cache, trace if trace.causal else None
                )
        except Exception as exc:  # noqa: BLE001 - errors become responses
            error = f"{type(exc).__name__}: {exc}"
        finally:
            # In-flight pins protected this request's artifacts from
            # concurrent eviction; drop them now, success or not.
            if cache is not None:
                cache.release_pins()
        meta: Dict[str, Any] = {
            "worker_pid": os.getpid(),
            "manager_pool": _MANAGER_POOL.stats(),
        }
        if cache is not None:
            meta["cache"] = cache.metrics_dict()
        return ServeOutcome(
            result=result,
            error=error,
            events=trace.events,
            metrics=trace.metrics,
            meta=meta,
        )
