"""S-graph level cost and performance estimation (Sec. III-C).

"Cost estimation can ... be done with a simple traversal of the s-graph.
Costs are assigned to every vertex ... The minimum execution cycles can be
calculated by finding a minimum-cost path based on Dijkstra's shortest path
algorithm ... The maximum execution cycles can be calculated by finding a
maximum-cost path based on the PERT longest path algorithm.  The code size
... can be calculated simply by summing the code size parameters for all
the vertices."

Edges carry the true/false-case costs explicitly, as in the paper; false
(infeasible) paths may optionally be excluded from the worst-case analysis
("false paths can be determined with a good degree of accuracy from the
structure of the CFSM network").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..bdd import Function
from ..cfsm.expr import BinOp, Cond, Const, Expr, UnOp
from ..cfsm.machine import AssignState, Emit, ExprTest, PresenceTest
from ..sgraph import ASSIGN, BEGIN, END, SGraph, TEST
from ..synthesis.encoding import FireFlag, ReactiveEncoding
from .params import CostParams

__all__ = ["Estimate", "estimate", "edge_cost_graph", "expr_time", "expr_size"]


@dataclass
class Estimate:
    """S-graph-level cost/performance figures for one CFSM."""

    code_size: int
    min_cycles: int
    max_cycles: int

    def __str__(self) -> str:
        return (
            f"size={self.code_size}B cycles=[{self.min_cycles},{self.max_cycles}]"
        )


def expr_time(expr: Expr, params: CostParams) -> float:
    """Estimated cycles to evaluate an expression.

    Each leaf is one operand load/store pair; each operator one library
    call; each *non-root* operator result needs an extra temporary store
    (roughly half a load/store pair).
    """
    ops = list(expr.operators())
    leaves = max(1, sum(1 for _ in expr.variables()) + _const_leaves(expr))
    cost = leaves * params.timing.t_expr_load
    for op in ops:
        cost += params.lib_time_of(op)
    if len(ops) > 1:
        cost += (len(ops) - 1) * 0.5 * params.timing.t_expr_load
    return cost


def expr_size(expr: Expr, params: CostParams) -> float:
    ops = list(expr.operators())
    leaves = max(1, sum(1 for _ in expr.variables()) + _const_leaves(expr))
    cost = leaves * params.size.s_expr_load
    for op in ops:
        cost += params.lib_size_of(op)
    if len(ops) > 1:
        cost += (len(ops) - 1) * 0.5 * params.size.s_expr_load
    return cost


def _wrap_cost(action: AssignState, params: CostParams) -> Tuple[float, float]:
    """(cycles, bytes) of the domain wrap around a state assignment.

    Mirrors the compiler: constants in domain fold away, power-of-two
    domains mask, others pay a Euclidean double-modulo.
    """
    n = action.var.num_values
    if isinstance(action.value, Const) and 0 <= action.value.value < n:
        return 0.0, 0.0
    t, s = params.timing, params.size
    if n & (n - 1) == 0:
        return (
            params.lib_time_of("BAND") + 1.5 * t.t_expr_load,
            params.lib_size_of("BAND") + 1.5 * s.s_expr_load,
        )
    return (
        2 * params.lib_time_of("MOD")
        + params.lib_time_of("ADD")
        + 3.5 * t.t_expr_load,
        2 * params.lib_size_of("MOD")
        + params.lib_size_of("ADD")
        + 3.5 * s.s_expr_load,
    )


def _const_leaves(expr: Expr) -> int:
    if isinstance(expr, Const):
        return 1
    if isinstance(expr, BinOp):
        return _const_leaves(expr.left) + _const_leaves(expr.right)
    if isinstance(expr, UnOp):
        return _const_leaves(expr.operand)
    if isinstance(expr, Cond):
        return (
            _const_leaves(expr.cond)
            + _const_leaves(expr.then)
            + _const_leaves(expr.otherwise)
        )
    return 0


def _label_guard_cost(
    label: Function, params: CostParams, var_cost: _VarCost
) -> Tuple[float, float]:
    """(cycles, bytes) of evaluating a non-constant ASSIGN label BDD."""
    var_arr, lo_arr, hi_arr = label.manager._node_arrays()
    seen = set()
    stack = [label.id]
    nodes = 0
    cycles = 0.0
    size = 0.0
    while stack:
        edge = stack.pop()
        if edge in seen:
            continue
        seen.add(edge)
        if edge < 2:
            continue
        nodes += 1
        nid = edge >> 1
        cycles_here, size_here = var_cost(var_arr[nid])
        cycles += cycles_here + params.timing.t_test_true
        size += size_here + params.size.s_test
        stack.append(lo_arr[nid] ^ (edge & 1))
        stack.append(hi_arr[nid] ^ (edge & 1))
    # Execution touches at most the BDD depth, approximated as half the nodes.
    return cycles / 2.0 if nodes else 0.0, size


def _input_var_cost(var: int, params: CostParams, encoding: ReactiveEncoding) -> Tuple[float, float]:
    """(cycles, bytes) of computing one input variable's value."""
    test = encoding.test_of_var(var)
    if isinstance(test, PresenceTest):
        return 0.0, params.size.s_detect  # timing priced on edges
    if isinstance(test, ExprTest):
        return expr_time(test.expr, params), expr_size(test.expr, params) + params.size.s_test
    return params.timing.t_testbit, params.size.s_testbit + params.size.s_test


_VarCost = Callable[[int], Tuple[float, float]]


def _var_costs(params: CostParams, encoding: ReactiveEncoding) -> _VarCost:
    """:func:`_input_var_cost`, computed once per variable of one call."""
    costs: Dict[int, Tuple[float, float]] = {}

    def var_cost(var: int) -> Tuple[float, float]:
        cost = costs.get(var)
        if cost is None:
            cost = costs[var] = _input_var_cost(var, params, encoding)
        return cost

    return var_cost


def _n_copies(
    encoding: ReactiveEncoding, copy_vars: Optional[Set[str]]
) -> int:
    if copy_vars is None:
        return len(encoding.cfsm.state_vars)
    return len([v for v in encoding.cfsm.state_vars if v.name in copy_vars])


def edge_cost_graph(
    sg: SGraph,
    encoding: ReactiveEncoding,
    params: CostParams,
    exclude_infeasible: bool = False,
    copy_vars: Optional[Set[str]] = None,
) -> Tuple[Dict[int, List[Tuple[int, float]]], float, float]:
    """The priced s-graph the path analyses run over.

    Returns ``(edges, begin_cost, end_cost)`` where ``edges`` maps each
    reachable vertex to its ``(child, cycles)`` out-edges.  Public so the
    static verifier can recompute the Table-I bounds with an independent
    path algorithm over the *same* per-edge cost model.
    """
    return _priced_edges(
        sg, encoding, params, exclude_infeasible, copy_vars,
        _var_costs(params, encoding),
    )


def _priced_edges(
    sg: SGraph,
    encoding: ReactiveEncoding,
    params: CostParams,
    exclude_infeasible: bool,
    copy_vars: Optional[Set[str]],
    var_cost: _VarCost,
) -> Tuple[Dict[int, List[Tuple[int, float]]], float, float]:
    """:func:`edge_cost_graph`, pricing variables by ``var_cost``."""
    reach = sg.reachable()
    parents = _parent_counts(sg, reach)
    edges: Dict[int, List[Tuple[int, float]]] = {vid: [] for vid in reach}
    for vid in reach:
        vertex = sg.vertex(vid)
        for index, child in enumerate(vertex.children):
            if (
                exclude_infeasible
                and vertex.kind == TEST
                and vertex.infeasible
                and vertex.infeasible[index]
            ):
                continue
            cost = _edge_time(vertex, index, params, encoding, var_cost)
            # Shared targets need a branch to reach (layout approximation);
            # switch-table entries already encode their target.
            if parents.get(child, 0) > 1 and not vertex.is_switch:
                cost += params.timing.t_goto
            edges[vid].append((child, cost))
    n_copies = _n_copies(encoding, copy_vars)
    begin_cost = params.timing.t_frame + n_copies * params.timing.t_local_init
    end_cost = params.timing.t_return
    return edges, begin_cost, end_cost


def _parent_counts(sg: SGraph, reach) -> Dict[int, int]:
    parents: Dict[int, int] = {vid: 0 for vid in reach}
    for vid in reach:
        # Distinct children only: a switch table routing many codes to one
        # target is a single shared edge, not many gotos.
        for child in set(sg.vertex(vid).children):
            parents[child] = parents.get(child, 0) + 1
    return parents


def estimate(
    sg: SGraph,
    encoding: ReactiveEncoding,
    params: CostParams,
    exclude_infeasible: bool = False,
    copy_vars: Optional[Set[str]] = None,
) -> Estimate:
    """Estimate code size and min/max reaction cycles of an s-graph.

    ``copy_vars`` restricts the priced on-entry state copies to the given
    variable names (the data-flow extension); ``None`` prices a copy for
    every state variable, the conservative default.
    """
    n_copies = _n_copies(encoding, copy_vars)
    reach = sg.reachable()
    parents = _parent_counts(sg, reach)
    var_cost = _var_costs(params, encoding)

    # ----- code size: sum over vertices ---------------------------------
    size = 0.0
    for vid in reach:
        vertex = sg.vertex(vid)
        size += _vertex_size(vertex, params, encoding, n_copies, var_cost)
        # Linearization: each extra parent of a shared vertex costs a goto.
        if parents.get(vid, 0) > 1:
            size += (parents[vid] - 1) * params.size.s_goto

    edges, begin_cost, end_cost = _priced_edges(
        sg, encoding, params, exclude_infeasible, copy_vars, var_cost
    )

    min_cycles = _dijkstra(sg, edges, begin_cost, end_cost)
    max_cycles = _pert(sg, edges, begin_cost, end_cost)
    return Estimate(
        code_size=int(round(size)),
        min_cycles=int(round(min_cycles)),
        max_cycles=int(round(max_cycles)),
    )


def _vertex_size(
    vertex,
    params: CostParams,
    encoding: ReactiveEncoding,
    n_copies: int,
    var_cost: _VarCost,
) -> float:
    t, s = params.timing, params.size
    if vertex.kind == BEGIN:
        return s.s_frame + n_copies * s.s_local_init
    if vertex.kind == END:
        return s.s_return
    if vertex.kind == TEST:
        collapsed = getattr(vertex, "collapsed_predicates", None)
        if collapsed is not None:
            total = 0.0
            for pred in collapsed:
                total += _label_guard_cost(pred, params, var_cost)[1]
            return total
        if vertex.is_switch:
            return s.s_switch_base + len(vertex.children) * s.s_switch_edge
        return var_cost(vertex.var)[1]
    # ASSIGN
    action = encoding.action_of_var(vertex.var)
    base = 0.0
    if vertex.label is not None and not vertex.label.is_constant:
        base += _label_guard_cost(vertex.label, params, var_cost)[1]
    if isinstance(action, Emit):
        if action.event.is_pure:
            return base + s.s_emit_pure
        return base + s.s_emit_valued + expr_size(action.value, params)
    if isinstance(action, AssignState):
        return (
            base
            + s.s_assign_state
            + expr_size(action.value, params)
            + _wrap_cost(action, params)[1]
        )
    if isinstance(action, FireFlag):
        return base + s.s_set_fire
    raise TypeError(f"unknown action {action!r}")  # pragma: no cover


def _edge_time(
    vertex,
    index: int,
    params: CostParams,
    encoding: ReactiveEncoding,
    var_cost: _VarCost,
) -> float:
    t = params.timing
    if vertex.kind == BEGIN:
        return 0.0
    if vertex.kind == TEST:
        collapsed = getattr(vertex, "collapsed_predicates", None)
        if collapsed is not None:
            # If-cascade: reaching branch i evaluates predicates 0..i.
            cost = 0.0
            for pred in collapsed[: index + 1]:
                cost += _label_guard_cost(pred, params, var_cost)[0] + t.t_test_true
            return cost
        if vertex.is_switch:
            return t.t_switch_base + index * t.t_switch_edge
        body, _ = var_cost(vertex.var)
        test = encoding.test_of_var(vertex.var)
        if isinstance(test, PresenceTest):
            return t.t_detect_true if index == 1 else t.t_detect_false
        edge = t.t_test_true if index == 1 else t.t_test_false
        return body + edge
    # ASSIGN
    action = encoding.action_of_var(vertex.var)
    base = 0.0
    if vertex.label is not None and not vertex.label.is_constant:
        base += _label_guard_cost(vertex.label, params, var_cost)[0]
    if isinstance(action, Emit):
        if action.event.is_pure:
            return base + t.t_emit_pure
        return base + t.t_emit_valued + expr_time(action.value, params)
    if isinstance(action, AssignState):
        return (
            base
            + t.t_assign_state
            + expr_time(action.value, params)
            + _wrap_cost(action, params)[0]
        )
    if isinstance(action, FireFlag):
        return base + t.t_set_fire
    raise TypeError(f"unknown action {action!r}")  # pragma: no cover


def _dijkstra(
    sg: SGraph,
    edges: Dict[int, List[Tuple[int, float]]],
    begin_cost: float,
    end_cost: float,
) -> float:
    """Minimum-cost BEGIN -> END path (Dijkstra, non-negative costs)."""
    assert sg.begin is not None
    dist: Dict[int, float] = {sg.begin: begin_cost}
    heap: List[Tuple[float, int]] = [(begin_cost, sg.begin)]
    visited = set()
    while heap:
        d, vid = heapq.heappop(heap)
        if vid in visited:
            continue
        visited.add(vid)
        if vid == sg.end:
            return d + end_cost
        for child, cost in edges.get(vid, ()):
            nd = d + cost
            if nd < dist.get(child, float("inf")):
                dist[child] = nd
                heapq.heappush(heap, (nd, child))
    raise ValueError("END not reachable from BEGIN")


def _pert(
    sg: SGraph,
    edges: Dict[int, List[Tuple[int, float]]],
    begin_cost: float,
    end_cost: float,
) -> float:
    """Maximum-cost BEGIN -> END path (longest path on the DAG, PERT-style)."""
    order = sg.topo_order()
    best: Dict[int, float] = {sg.begin: begin_cost}
    for vid in order:
        if vid not in best:
            continue  # unreachable via feasible edges
        d = best[vid]
        for child, cost in edges.get(vid, ()):
            if d + cost > best.get(child, float("-inf")):
                best[child] = d + cost
    if sg.end not in best:
        raise ValueError("END not reachable from BEGIN")
    return best[sg.end] + end_cost
