"""Initial s-graph construction from the characteristic function.

This is the paper's procedure ``build`` (Sec. III-B2) together with the
``reduce`` step: the characteristic function chi is Shannon-decomposed along
a variable order; input variables yield TEST vertices, output variables
yield ASSIGN vertices whose value function is derived from the cofactors,
and output variables are *smoothed* away before recursing.  Theorem 1
guarantees the resulting s-graph computes exactly the multioutput function
chi represents.

Relations (incompletely specified functions) are supported: where both
cofactors of an output are satisfiable the value is a don't-care, resolved
to 0 — "the cheapest option of no assignment".

With each output ordered after its own support (ordering scheme (i)), the
construction degenerates to a decoration of the chi BDD itself, which the
test-suite verifies ("the structure of the s-graph corresponds exactly to
that of a BDD representing [the] CFSM's reactive function").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd import Function
from ..synthesis.reactive import ReactiveFunction
from .graph import ASSIGN, BEGIN, END, SGraph, TEST

__all__ = ["build_sgraph", "reduce_sgraph", "default_order"]


def default_order(rf: ReactiveFunction) -> List[int]:
    """The reactive function's variables in current BDD-order."""
    mine = set(rf.input_vars) | set(rf.output_vars)
    return [v for v in rf.manager.current_order() if v in mine]


def build_sgraph(
    rf: ReactiveFunction,
    order: Optional[Sequence[int]] = None,
    name: Optional[str] = None,
) -> SGraph:
    """Build the initial s-graph of ``rf`` along ``order``.

    ``order`` must contain every input and output variable of the reactive
    function exactly once; it defaults to the manager's current variable
    order (i.e. whatever sifting produced).
    """
    manager = rf.manager
    if order is None:
        order = default_order(rf)
    order = list(order)
    expected = set(rf.input_vars) | set(rf.output_vars)
    if set(order) != expected or len(order) != len(expected):
        raise ValueError("order must be a permutation of the reactive variables")
    outputs = set(rf.output_vars)

    sg = SGraph(rf.input_vars, rf.output_vars, name=name or f"{rf.cfsm.name}_sg")
    # Outputs still unprocessed after each position (for label smoothing).
    later_outputs: List[List[int]] = []
    seen_later: List[int] = []
    for var in reversed(order):
        later_outputs.append(list(seen_later))
        if var in outputs:
            seen_later.append(var)
    later_outputs.reverse()
    # One smoothing cube per output position, built once and reused across
    # every vertex at that depth: the quantification below is the hot loop
    # of the whole construction (it runs twice per ASSIGN vertex), and a
    # shared cube keeps the manager's quantification cache keyed on the
    # same (node, cube) pairs throughout.  The Function handles keep the
    # cubes referenced for the duration of the build.
    smooth_cubes: Dict[int, Function] = {}
    smooth_cube_ids: Dict[int, int] = {}
    for k, var in enumerate(order):
        if var in outputs and later_outputs[k]:
            cube_fn = manager.cube({v: True for v in later_outputs[k]})
            smooth_cubes[k] = cube_fn
            smooth_cube_ids[k] = cube_fn.id

    # The recursion below runs on raw int edges: one Function handle is
    # created per ASSIGN vertex (the stored label) instead of ~10 transient
    # handles per vertex, which kept the manager's weakref/death-queue
    # machinery in the construction's inner loop.  Every edge memoized as a
    # key is protected for the duration of the build so a mid-build
    # collection could never recycle a slot out from under the memo.
    memo: Dict[Tuple[int, int], int] = {}
    protected: List[int] = []
    protect = manager.protect
    test_step = manager._test_step
    assign_step = manager._assign_step
    false_id = manager.false.id
    n_order = len(order)

    def rec(chi: int, k: int) -> int:
        if chi == false_id:
            # Outside the care set: this path can never execute.
            return sg.end
        if k == n_order:
            return sg.end
        key = (chi, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        var = order[k]
        if var in outputs:
            # ASSIGN vertex, one manager step: the label is 1 exactly where
            # assigning 1 is valid and assigning 0 is not, *for some
            # completion of the remaining outputs* — hence the smoothing S
            # over the outputs not yet assigned (the paper's boxed
            # condition).  Don't-cares (both assignments completable)
            # resolve to 0, "the cheapest option of no assignment".
            # Inputs with no valid completion never reach this vertex, so
            # the label only has to be right on the valid inputs; a label
            # constant there becomes a constant vertex (e.g. when only a
            # care-set correlation kept it symbolic).
            kind, label, child_chi = assign_step(
                chi, var, smooth_cube_ids.get(k, -1)
            )
            if kind == 1:
                label_fn = manager.true
            elif kind == 0:
                label_fn = manager.false
            else:
                label_fn = manager.wrap(label)
            child = rec(child_chi, k + 1)
            vid = sg.add_assign(var, label_fn, child)
        else:
            c0, c1 = test_step(chi, var)
            if c0 == c1:
                vid = rec(c0, k + 1)  # chi independent of var: skip the TEST
            else:
                lo = rec(c0, k + 1)
                hi = rec(c1, k + 1)
                vid = sg.add_test(
                    var, [lo, hi], infeasible=[c0 == false_id, c1 == false_id]
                )
        memo[key] = vid
        protected.append(protect(chi))
        return vid

    try:
        root = rec(rf.chi.id, 0)
    finally:
        unprotect = manager.unprotect
        for edge in protected:
            unprotect(edge)
        # rec refers to itself through its closure; break the cycle so the
        # manager it reaches is freed by reference counting, not left to
        # the cyclic collector.
        del rec
    sg.set_begin(root)
    return sg


def reduce_sgraph(sg: SGraph) -> int:
    """Merge isomorphic subgraphs, in place; returns vertices removed.

    "We assume that the reduce function ... ensures that a graph with root
    has no isomorphic subgraphs, exactly as in BDD construction"
    (Sec. III-B2).  Vertices are canonicalized bottom-up by structural key.
    """
    order = sg.topo_order()
    canon: Dict[Tuple, int] = {}
    replace: Dict[int, int] = {}

    def resolve(vid: int) -> int:
        while vid in replace:
            vid = replace[vid]
        return vid

    removed = 0
    for vid in reversed(order):
        vertex = sg.vertex(vid)
        vertex.children = [resolve(c) for c in vertex.children]
        if vertex.kind == BEGIN:
            continue
        if vertex.kind == TEST:
            # A test whose branches all merged is itself redundant.
            if len(set(vertex.children)) == 1:
                replace[vid] = vertex.children[0]
                removed += 1
                continue
            key: Tuple = (
                TEST,
                vertex.var,
                vertex.switch_state,
                tuple(vertex.switch_bits or ()),
                tuple(vertex.children),
                tuple(vertex.infeasible),
            )
        elif vertex.kind == ASSIGN:
            label_id = vertex.label.id if vertex.label is not None else None
            key = (ASSIGN, vertex.var, label_id, tuple(vertex.children))
        else:  # END
            key = (END,)
        existing = canon.get(key)
        if existing is None:
            canon[key] = vid
        else:
            replace[vid] = existing
            removed += 1
    begin = sg.vertex(sg.begin)
    begin.children = [resolve(c) for c in begin.children]
    sg.drop_unreachable()
    return removed
