"""S-graph synthesis and optimization (Sec. III).

High-level entry point::

    from repro.sgraph import synthesize

    result = synthesize(cfsm, scheme="sift")
    result.sgraph        # the optimized s-graph
    result.reactive      # the underlying reactive function
    result.order         # the variable order used

Schemes (Sec. III-B3):

* ``"naive"``        — declaration order, outputs last, no reordering;
* ``"sift-strict"``  — sifting, all outputs kept after all inputs;
* ``"sift"``         — sifting, each output only after its own support
  (the paper's default and best performer);
* ``"outputs-first"``— scheme (ii): TEST-free ASSIGN-chain s-graph;
* ``"mixed"``        — scheme (iii): a reproducible interleaving.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..cfsm.machine import Cfsm
from ..obs import SiftProfile
from ..pipeline.trace import PASS, BuildTrace, staged
from ..synthesis.reactive import ReactiveFunction, synthesize_reactive
from .build import build_sgraph, default_order, reduce_sgraph
from .dataflow import vars_needing_copy
from .freeform import build_free_sgraph, free_synthesize
from .graph import ASSIGN, BEGIN, END, EvalResult, SGraph, TEST, Vertex
from .optimize import collapse_tests, merge_multiway, prune_zero_assigns
from .orderings import (
    mixed_order,
    naive_order,
    outputs_first_order,
    sifted_order,
)

__all__ = [
    "SGraph",
    "Vertex",
    "EvalResult",
    "BEGIN",
    "END",
    "TEST",
    "ASSIGN",
    "build_sgraph",
    "reduce_sgraph",
    "default_order",
    "prune_zero_assigns",
    "merge_multiway",
    "collapse_tests",
    "vars_needing_copy",
    "build_free_sgraph",
    "free_synthesize",
    "naive_order",
    "sifted_order",
    "outputs_first_order",
    "mixed_order",
    "SynthesisResult",
    "synthesize",
]

SCHEMES = ("naive", "sift", "sift-strict", "outputs-first", "mixed")

#: The most condition evaluations ``reachability_dontcares`` explores for.
_MAX_EXPLORATION_WORK = 65_536
#: ``ReachabilityAnalysis``'s default ``value_enum_limit``: beyond this many
#: valuations of the valued inputs it havocs them instead.
_VALUE_ENUM_LIMIT = 1024


def _exploration_work(cfsm: Cfsm) -> int:
    """The condition evaluations exploring ``cfsm``'s whole state space takes.

    :class:`repro.verify.ReachabilityAnalysis` evaluates every condition
    for each state, each non-empty set of present inputs and each sample of
    the valued inputs' values: all of them, or one when there are more
    than it enumerates and it havocs instead.
    """
    space = 1
    for var in cfsm.state_vars:
        space *= var.num_values
    samples = 1
    for event in cfsm.inputs:
        if event.is_valued:
            samples <<= event.width
            if samples > _VALUE_ENUM_LIMIT:
                samples = 1
                break
    return space * ((1 << len(cfsm.inputs)) - 1) * samples


@dataclass
class SynthesisResult:
    """Everything produced by one CFSM -> s-graph run.

    ``copy_vars`` is the set of state variables whose on-entry copy is
    required (``None`` = conservatively copy everything; the default unless
    the pipeline ran with ``copy_elimination=True``).
    """

    reactive: ReactiveFunction
    sgraph: SGraph
    order: List[int]
    scheme: str
    copy_vars: Optional[set] = None

    def copied_state_vars(self) -> List[str]:
        """Names of the state variables the generated code must copy."""
        names = [v.name for v in self.reactive.cfsm.state_vars]
        if self.copy_vars is None:
            return names
        return [name for name in names if name in self.copy_vars]


def synthesize(
    cfsm: Cfsm,
    scheme: str = "sift",
    fold_state_tests: bool = True,
    multiway: bool = True,
    prune: bool = True,
    multiway_threshold: int = 2,
    check: bool = True,
    copy_elimination: bool = False,
    reachability_dontcares: bool = False,
    mixed_seed: int = 0,
    trace: Optional[BuildTrace] = None,
) -> SynthesisResult:
    """Full pipeline: CFSM -> reactive function -> ordered, optimized s-graph.

    ``copy_elimination=True`` runs the write-before-read data-flow analysis
    (the Sec. V-B extension) so code generation copies only the state
    variables that actually need buffering.  ``reachability_dontcares=True``
    explores the CFSM's state space first and treats unreachable state
    codes as don't-cares — classical sequential-synthesis flexibility —
    when the exploration takes at most 65,536 condition evaluations
    (:func:`_exploration_work`); larger ones are skipped.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    reachable = None
    if (
        reachability_dontcares
        and cfsm.state_vars
        and _exploration_work(cfsm) <= _MAX_EXPLORATION_WORK
    ):
        from ..verify import ReachabilityAnalysis

        reachable = ReachabilityAnalysis(cfsm).reachable_states
    rf = synthesize_reactive(
        cfsm,
        fold_state_tests=fold_state_tests,
        check=check,
        reachable_states=reachable,
    )
    return synthesize_from_reactive(
        rf,
        scheme=scheme,
        multiway=multiway,
        multiway_threshold=multiway_threshold,
        prune=prune,
        copy_elimination=copy_elimination,
        mixed_seed=mixed_seed,
        trace=trace,
    )


def _order(
    rf: ReactiveFunction, scheme: str, mixed_seed: int, profile
) -> List[int]:
    """The TEST-variable order of ``scheme`` (Sec. III-B3)."""
    if scheme == "naive":
        return naive_order(rf)
    if scheme in ("sift", "sift-strict"):
        return sifted_order(rf, strict=scheme == "sift-strict", profile=profile)
    if scheme == "outputs-first":
        return outputs_first_order(rf)
    return mixed_order(rf, seed=mixed_seed)


def _order_metrics(rf: ReactiveFunction, scheme: str, profile) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {
        "scheme": scheme,
        "chi_nodes": rf.chi.size(),
        # The manager's store: the C kernel, or the Python one when no
        # compiler could build it.
        "bdd_engine": "native" if rf.manager._native else "python",
    }
    if profile is not None:
        metrics.update(profile.summary())
        # Per-sample curve (size, swaps, ITE hit rate, live nodes) over the
        # reordering run; wall-clock-free so identical builds trace
        # identically.
        metrics["sift_timeline"] = profile.timeline()
        # The kernel's view of the same run: swap fast-path hits,
        # collections and cache effectiveness.
        counters = rf.manager.counters()
        for key in ("swaps", "swap_skips", "collects", "ite_cache_hits",
                    "ite_cache_misses"):
            metrics[f"bdd_{key}"] = counters[key]
    return metrics


def _sgraph_metrics(sg: SGraph) -> Dict[str, Any]:
    counts = sg.counts()
    return {
        "sgraph_vertices": len(sg.reachable()),
        "tests": counts["TEST"],
        "assigns": counts["ASSIGN"],
    }


def synthesize_from_reactive(
    rf: ReactiveFunction,
    scheme: str = "sift",
    multiway: bool = True,
    multiway_threshold: int = 2,
    prune: bool = True,
    copy_elimination: bool = False,
    mixed_seed: int = 0,
    trace: Optional[BuildTrace] = None,
) -> SynthesisResult:
    """Pipeline tail starting from an existing reactive function.

    The steps run in the paper's order: order → build → reduce → prune
    (``prune``) → multiway (``multiway``, not for ``outputs-first``, which
    has no state tests to merge) → copy-elim (``copy_elimination``).  A
    :class:`BuildTrace` passed via ``trace`` receives one timed ``pass``
    event per step that ran, with its metrics (BDD sizes after ordering,
    s-graph vertex counts after each rewrite); untraced, no metric is
    computed and sifting runs without a profile.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    name = rf.cfsm.name
    # Profile the reordering loop only when a trace will carry the summary.
    profile = None
    if trace is not None and scheme in ("sift", "sift-strict"):
        profile = SiftProfile()
    order = staged(
        trace, name, "order", lambda: _order(rf, scheme, mixed_seed, profile),
        lambda _: _order_metrics(rf, scheme, profile), PASS,
    )
    sg = staged(
        trace, name, "build", lambda: build_sgraph(rf, order),
        _sgraph_metrics, PASS,
    )

    def rewrite(step: str, fn) -> None:
        staged(trace, name, step, fn, lambda _: _sgraph_metrics(sg), PASS)

    def prune_zero() -> None:
        # ``x := 0`` assigns are redundant in the zero-initialized frame.
        prune_zero_assigns(sg)
        reduce_sgraph(sg)

    rewrite("reduce", lambda: reduce_sgraph(sg))
    if prune:
        rewrite("prune", prune_zero)
    if multiway and scheme != "outputs-first":

        def merge() -> bool:
            # Binary state-bit tests into multiway switches (footnote 3).
            merged = merge_multiway(sg, rf.encoding, min_targets=multiway_threshold)
            if merged:
                reduce_sgraph(sg)
            return bool(merged)

        staged(
            trace, name, "multiway", merge,
            lambda merged: dict(_sgraph_metrics(sg), merged=merged), PASS,
        )
    copy_vars = None
    if copy_elimination:
        # Write-before-read data flow (the Sec. V-B extension).
        copy_vars = staged(
            trace, name, "copy-elim", lambda: vars_needing_copy(sg, rf.encoding),
            lambda found: {"copied_vars": len(found)}, PASS,
        )
    return SynthesisResult(
        reactive=rf, sgraph=sg, order=order, scheme=scheme, copy_vars=copy_vars,
    )
