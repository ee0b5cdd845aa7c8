"""The s-graph synthesis stages, re-expressed as declared pipeline passes.

This is the Sec. III flow — variable ordering, s-graph construction, BDD
reduction, zero-assign pruning, multiway merging, copy elimination — with
each stage wrapped as a :class:`repro.pipeline.passes.Pass` so
:func:`repro.sgraph.synthesize_from_reactive` becomes a declared sequence
(order → build → reduce → prune → multiway → copy-elim) instead of an
if/elif chain.  Each pass reports the metrics a build trace wants: BDD node
counts after ordering, s-graph vertex counts after every structural
rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..obs import SiftProfile
from ..pipeline.passes import Pass, PassContext, PassManager
from ..synthesis.reactive import ReactiveFunction
from .build import build_sgraph, reduce_sgraph
from .dataflow import vars_needing_copy
from .graph import SGraph
from .optimize import merge_multiway, prune_zero_assigns
from .orderings import mixed_order, naive_order, outputs_first_order, sifted_order

__all__ = [
    "SynthesisState",
    "OrderPass",
    "BuildPass",
    "ReducePass",
    "PrunePass",
    "MultiwayPass",
    "CopyEliminationPass",
    "synthesis_passes",
    "synthesis_pass_manager",
]


@dataclass
class SynthesisState:
    """The object threaded through the synthesis pass sequence."""

    rf: ReactiveFunction
    scheme: str
    mixed_seed: int = 0
    order: List[int] = field(default_factory=list)
    sgraph: Optional[SGraph] = None
    copy_vars: Optional[Set[str]] = None


def _sgraph_metrics(sg: SGraph) -> Dict[str, Any]:
    counts = sg.counts()
    return {
        "sgraph_vertices": len(sg.reachable()),
        "tests": counts["TEST"],
        "assigns": counts["ASSIGN"],
    }


class OrderPass(Pass):
    """Pick the TEST-variable order for the declared scheme (Sec. III-B3)."""

    name = "order"

    def run(self, state: SynthesisState, ctx: PassContext) -> Dict[str, Any]:
        rf, scheme = state.rf, state.scheme
        # Profile the reordering loop when a build trace is being recorded;
        # its summary rides along in this pass's metrics.
        profile = None
        if ctx.trace is not None and scheme in ("sift", "sift-strict"):
            profile = SiftProfile()
        if scheme == "naive":
            state.order = naive_order(rf)
        elif scheme == "sift":
            state.order = sifted_order(rf, strict=False, profile=profile)
        elif scheme == "sift-strict":
            state.order = sifted_order(rf, strict=True, profile=profile)
        elif scheme == "outputs-first":
            state.order = outputs_first_order(rf)
        elif scheme == "mixed":
            state.order = mixed_order(rf, seed=state.mixed_seed)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        metrics: Dict[str, Any] = {
            "scheme": scheme,
            "chi_nodes": rf.chi.size(),
            # The manager's store: the C kernel, or the Python one when no
            # compiler could build it.
            "bdd_engine": "native" if rf.manager._native else "python",
        }
        if profile is not None:
            metrics.update(profile.summary())
            # Per-sample curve (size, swaps, ITE hit rate, live nodes)
            # over the reordering run; wall-clock-free so identical
            # builds trace identically.
            metrics["sift_timeline"] = profile.timeline()
            # Kernel-level view of the same reordering run: swap fast-path
            # hits, collection count, and cache effectiveness ride along in
            # the build trace next to the sift trajectory.
            kc = rf.manager.counters()
            metrics["bdd_swaps"] = kc["swaps"]
            metrics["bdd_swap_skips"] = kc["swap_skips"]
            metrics["bdd_collects"] = kc["collects"]
            metrics["bdd_ite_cache_hits"] = kc["ite_cache_hits"]
            metrics["bdd_ite_cache_misses"] = kc["ite_cache_misses"]
        return metrics


class BuildPass(Pass):
    """Build the s-graph from the ordered characteristic function."""

    name = "build"

    def run(self, state: SynthesisState, ctx: PassContext) -> Dict[str, Any]:
        state.sgraph = build_sgraph(state.rf, state.order)
        return _sgraph_metrics(state.sgraph)


class ReducePass(Pass):
    """BDD-style reduction: share isomorphic subgraphs, drop dead vertices."""

    name = "reduce"

    def run(self, state: SynthesisState, ctx: PassContext) -> Dict[str, Any]:
        assert state.sgraph is not None
        reduce_sgraph(state.sgraph)
        return _sgraph_metrics(state.sgraph)


class PrunePass(Pass):
    """Drop ``x := 0`` assigns made redundant by the zero-initialized frame."""

    name = "prune"

    def run(self, state: SynthesisState, ctx: PassContext) -> Dict[str, Any]:
        assert state.sgraph is not None
        prune_zero_assigns(state.sgraph)
        reduce_sgraph(state.sgraph)
        return _sgraph_metrics(state.sgraph)


class MultiwayPass(Pass):
    """Merge binary state-bit tests into multiway switches (footnote 3)."""

    name = "multiway"

    def __init__(self, min_targets: int = 2):
        self.min_targets = min_targets

    def run(self, state: SynthesisState, ctx: PassContext) -> Dict[str, Any]:
        assert state.sgraph is not None
        merged = merge_multiway(
            state.sgraph, state.rf.encoding, min_targets=self.min_targets
        )
        if merged:
            reduce_sgraph(state.sgraph)
        metrics = _sgraph_metrics(state.sgraph)
        metrics["merged"] = bool(merged)
        return metrics


class CopyEliminationPass(Pass):
    """Write-before-read data-flow analysis (the Sec. V-B extension)."""

    name = "copy-elim"

    def run(self, state: SynthesisState, ctx: PassContext) -> Dict[str, Any]:
        assert state.sgraph is not None
        state.copy_vars = vars_needing_copy(state.sgraph, state.rf.encoding)
        return {"copied_vars": len(state.copy_vars)}


def synthesis_passes(
    scheme: str,
    multiway: bool = True,
    multiway_threshold: int = 2,
    prune: bool = True,
    copy_elimination: bool = False,
) -> List[Pass]:
    """The declared pass sequence for one CFSM synthesis.

    Disabled stages are *omitted from the sequence* (not run as no-ops), so
    a build trace shows exactly the passes that executed.
    """
    passes: List[Pass] = [OrderPass(), BuildPass(), ReducePass()]
    if prune:
        passes.append(PrunePass())
    if multiway and scheme != "outputs-first":
        passes.append(MultiwayPass(min_targets=multiway_threshold))
    if copy_elimination:
        passes.append(CopyEliminationPass())
    return passes


def synthesis_pass_manager(
    scheme: str,
    multiway: bool = True,
    multiway_threshold: int = 2,
    prune: bool = True,
    copy_elimination: bool = False,
) -> PassManager:
    """A :class:`PassManager` over :func:`synthesis_passes`."""
    return PassManager(
        synthesis_passes(
            scheme,
            multiway=multiway,
            multiway_threshold=multiway_threshold,
            prune=prune,
            copy_elimination=copy_elimination,
        )
    )
