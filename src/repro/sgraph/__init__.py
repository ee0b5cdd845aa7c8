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
from typing import List, Optional

from ..cfsm.machine import Cfsm
from ..pipeline.passes import PassContext, PassManager
from ..pipeline.trace import BuildTrace
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
from .passes import SynthesisState, synthesis_passes

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
    "SynthesisState",
    "synthesis_passes",
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

    The stages run as the declared pass sequence of
    :func:`repro.sgraph.passes.synthesis_passes` (order → build → reduce →
    prune → multiway → copy-elim); a :class:`BuildTrace` passed via
    ``trace`` receives one timed, metric-carrying event per pass.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    manager = PassManager(
        synthesis_passes(
            scheme,
            multiway=multiway,
            multiway_threshold=multiway_threshold,
            prune=prune,
            copy_elimination=copy_elimination,
        )
    )
    state = SynthesisState(rf=rf, scheme=scheme, mixed_seed=mixed_seed)
    ctx = PassContext(module=rf.cfsm.name, trace=trace)
    manager.run(state, ctx)
    assert state.sgraph is not None
    return SynthesisResult(
        reactive=rf,
        sgraph=state.sgraph,
        order=state.order,
        scheme=scheme,
        copy_vars=state.copy_vars,
    )
