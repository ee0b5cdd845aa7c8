"""Generic monotone dataflow framework (worklist fixpoint).

The engine is the classic formulation: a join-semilattice of abstract
values, a directed graph whose edges carry annotations, and a monotone
transfer function applied per edge.  ``solve`` iterates a worklist in
reverse postorder from the seeds until the least fixpoint is reached.
Backward problems are solved by running forward over :func:`reverse_edges`.

This package is the repository's first ``mypy --strict`` typed island:
it imports nothing outside the standard library, so every concrete
analysis adapts repo objects (s-graphs, ISA programs, parsed C) into
plain node/edge structures before calling in.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

__all__ = ["DataflowDivergence", "Dataflow", "reverse_edges"]

N = TypeVar("N", bound=Hashable)  # node identity
E = TypeVar("E")  # edge annotation
V = TypeVar("V")  # abstract lattice value

#: Adjacency with annotated edges: node -> [(successor, annotation), ...].
EdgeMap = Mapping[N, Sequence[Tuple[N, E]]]


class DataflowDivergence(RuntimeError):
    """The worklist exceeded its step budget (unbounded ascending chain)."""


class Dataflow(Generic[N, E, V]):
    """A monotone framework instance: lattice operations + edge transfer.

    ``join`` must be commutative/associative/idempotent and ``transfer``
    monotone in its value argument, or the fixpoint (and termination) is
    forfeit.  ``bottom`` produces the lattice's least element for nodes
    not yet reached.  ``equal`` defaults to ``==``.
    """

    def __init__(
        self,
        bottom: Callable[[], V],
        join: Callable[[V, V], V],
        transfer: Callable[[N, N, E, V], V],
        equal: Optional[Callable[[V, V], bool]] = None,
    ) -> None:
        self.bottom = bottom
        self.join = join
        self.transfer = transfer
        self.equal = equal if equal is not None else lambda a, b: bool(a == b)

    def solve(
        self,
        edges: EdgeMap[N, E],
        init: Mapping[N, V],
        max_steps: Optional[int] = None,
    ) -> Dict[N, V]:
        """Least fixpoint of the dataflow equations seeded by ``init``.

        Returns the value attached to every *reached* node; nodes the
        seeds cannot flow into are absent (their value is bottom).  The
        worklist pops the queued node earliest in reverse postorder, so
        on a DAG every node is visited once, after all its predecessors,
        and each edge is transferred once; any fair order reaches the
        same least fixpoint.  The default step budget is generous for
        any finite-height lattice on a DAG; exceeding it raises
        :class:`DataflowDivergence` rather than spinning, so callers can
        degrade the analysis to a finding.
        """
        n_edges = sum(len(out) for out in edges.values())
        if max_steps is None:
            max_steps = 16 * (len(edges) + 1) * (n_edges + 1) + 1024
        order = _reverse_postorder(edges, init)
        rank = {node: index for index, node in enumerate(order)}
        values: Dict[N, V] = dict(init)
        work: List[int] = [rank[node] for node in init]
        heapq.heapify(work)
        queued = set(work)
        steps = 0
        while work:
            steps += 1
            if steps > max_steps:
                raise DataflowDivergence(
                    f"no fixpoint after {max_steps} worklist steps"
                )
            index = heapq.heappop(work)
            queued.discard(index)
            node = order[index]
            value = values[node]
            for succ, annotation in edges.get(node, ()):
                out = self.transfer(node, succ, annotation, value)
                old = values.get(succ)
                new = out if old is None else self.join(old, out)
                if old is None or not self.equal(old, new):
                    values[succ] = new
                    succ_index = rank[succ]
                    if succ_index not in queued:
                        queued.add(succ_index)
                        heapq.heappush(work, succ_index)
        return values


def _reverse_postorder(edges: EdgeMap[N, E], seeds: Iterable[N]) -> List[N]:
    """Every node reachable from ``seeds``, in reverse DFS postorder.

    On a DAG this is a topological order.  The depth-first search is
    iterative, so deep graphs cannot exhaust the recursion limit.
    """
    postorder: List[N] = []
    visited: Set[N] = set()
    for seed in seeds:
        if seed in visited:
            continue
        visited.add(seed)
        stack: List[Tuple[N, Iterator[Tuple[N, E]]]] = [
            (seed, iter(edges.get(seed, ())))
        ]
        while stack:
            node, succs = stack[-1]
            for succ, _ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(edges.get(succ, ()))))
                    break
            else:
                stack.pop()
                postorder.append(node)
    postorder.reverse()
    return postorder


def reverse_edges(edges: EdgeMap[N, E]) -> Dict[N, List[Tuple[N, E]]]:
    """Flip every edge, preserving annotations (for backward problems)."""
    out: Dict[N, List[Tuple[N, E]]] = {node: [] for node in edges}
    for node, succs in edges.items():
        for succ, annotation in succs:
            out.setdefault(succ, []).append((node, annotation))
    return out
