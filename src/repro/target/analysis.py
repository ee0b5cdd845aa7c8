"""Instruction-level path analysis of target programs (Sec. III-C2).

Where the estimator prices the *s-graph*, this module measures the
*compiled program*: it assembles the instruction list for exact code size
and runs shortest/longest path analyses over the instruction-level control
flow graph for exact best/worst-case reaction cycles.  Table I compares
the two.

Programs produced by the s-graph compiler are acyclic (a reaction runs
each instruction at most once), so the longest path is well defined; a
control-flow cycle raises :class:`ValueError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .isa import Program
from .profiles import ISAProfile

__all__ = ["PathAnalysis", "analyze_program", "successors"]


@dataclass
class PathAnalysis:
    """Measured figures for one compiled reaction."""

    code_size: int
    min_cycles: int
    max_cycles: int

    def __str__(self) -> str:
        return (
            f"size={self.code_size}B cycles=[{self.min_cycles},{self.max_cycles}]"
        )


def successors(
    program: Program, profile: ISAProfile
) -> List[List[Tuple[int, int]]]:
    """Per-instruction ``(target, cycles)`` edges; target ``n`` is the exit.

    This is the instruction-level CFG both :func:`analyze_program` and
    the static verifier (``repro verify``) price paths over; exposing it
    lets the verifier recompute the bounds with an independent algorithm
    against the same edge costs.
    """
    labels = program.labels
    n = len(program.instructions)

    def land(index: int) -> int:
        return min(index, n)

    succs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, (op, args) in enumerate(program.instructions):
        if op == "RET":
            succs[i].append((n, profile.instr_cycles(op, args)))
        elif op == "JMP":
            succs[i].append((land(labels[args[0]]), profile.instr_cycles(op, args)))
        elif op in ("BNZ", "BZ"):
            succs[i].append((land(i + 1), profile.instr_cycles(op, args, taken=False)))
            succs[i].append(
                (land(labels[args[0]]), profile.instr_cycles(op, args, taken=True))
            )
        elif op == "JTAB":
            cost = profile.instr_cycles(op, args)
            targets = {labels[t] for t in list(args[1]) + [args[2]]}
            for t in sorted(targets):
                succs[i].append((land(t), cost))
        else:
            succs[i].append((land(i + 1), profile.instr_cycles(op, args)))
    return succs


def analyze_program(program: Program, profile: ISAProfile) -> PathAnalysis:
    """Assemble ``program`` and measure exact size and min/max cycles."""
    size = program.assemble(profile)
    n = len(program.instructions)
    if n == 0:
        return PathAnalysis(code_size=size, min_cycles=0, max_cycles=0)
    succs = successors(program, profile)

    # Reachable subgraph from the entry point.
    reachable = {0}
    work = deque([0])
    while work:
        i = work.popleft()
        if i == n:
            continue
        for j, _ in succs[i]:
            if j not in reachable:
                reachable.add(j)
                work.append(j)

    # Topological order (Kahn); a leftover node means a control-flow cycle.
    indeg: Dict[int, int] = {i: 0 for i in reachable}
    for i in reachable:
        if i == n:
            continue
        for j, _ in succs[i]:
            indeg[j] += 1
    queue = deque(i for i in reachable if indeg[i] == 0)
    order: List[int] = []
    while queue:
        i = queue.popleft()
        order.append(i)
        if i == n:
            continue
        for j, _ in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) != len(reachable):
        raise ValueError(
            f"program {program.name!r} has a control-flow cycle; "
            "min/max cycles are undefined"
        )

    inf = float("inf")
    best: Dict[int, float] = {i: inf for i in reachable}
    worst: Dict[int, float] = {i: -inf for i in reachable}
    best[0] = worst[0] = 0.0
    for i in order:
        if i == n or best[i] == inf:
            continue
        for j, cost in succs[i]:
            if best[i] + cost < best[j]:
                best[j] = best[i] + cost
            if worst[i] + cost > worst[j]:
                worst[j] = worst[i] + cost
    if n not in best or best[n] == inf:
        raise ValueError(f"program {program.name!r} never reaches RET")
    return PathAnalysis(
        code_size=int(size),
        min_cycles=int(best[n]),
        max_cycles=int(worst[n]),
    )
