"""State-space exploration and invariant checking for CFSMs.

The paper motivates the FSM foundation with "abundant theoretical and
practical results concerning their manipulation (minimization, encoding,
formal verification of properties, etc.)" (Sec. I-G); POLIS shipped formal
verification alongside synthesis.  This module provides the part a software
engineer reaches for first: exhaustive reachability over a CFSM's state
variables with invariant checking and counterexample traces.

Inputs are abstracted per reaction:

* presence flags range over all subsets of the input events;
* opaque data tests take both outcomes, constrained by the encoding's care
  set (so mutually exclusive predicates never hold together);
* event values read inside *actions* are enumerated when the declared
  widths are small, and **havocked** (replaced by every domain value of the
  assigned variable) otherwise — a sound over-approximation: every real
  behaviour is explored, plus possibly some spurious ones.

A violated invariant therefore comes with a concrete trace; a verified one
holds for every real execution.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..cfsm.machine import AssignState, Cfsm
from ..synthesis.encoding import ReactiveEncoding
from ..synthesis.reactive import ReactiveFunction, synthesize_reactive

__all__ = ["Counterexample", "ReachabilityAnalysis", "check_invariant"]

StateTuple = Tuple[int, ...]


class Counterexample:
    """A concrete trace from the initial state to an invariant violation."""

    def __init__(self, steps: List[Tuple[Dict[str, int], str]], final: Dict[str, int]):
        self.steps = steps  # (state, transition description) pairs
        self.final = final

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        lines = ["counterexample trace:"]
        for state, how in self.steps:
            lines.append(f"  {state}  --[{how}]-->")
        lines.append(f"  {self.final}  (violates the invariant)")
        return "\n".join(lines)


class ReachabilityAnalysis:
    """Exhaustive exploration of one CFSM's state space."""

    def __init__(
        self,
        cfsm: Cfsm,
        value_enum_limit: int = 1024,
        max_states: int = 200_000,
        max_work: int = 2_000_000,
    ):
        self.cfsm = cfsm
        self.value_enum_limit = value_enum_limit
        self.max_states = max_states
        self.max_work = max_work  # successor evaluations before giving up
        self.rf: ReactiveFunction = synthesize_reactive(cfsm, check=False)
        self.encoding: ReactiveEncoding = self.rf.encoding
        self._state_names = [v.name for v in cfsm.state_vars]
        self._domains = [v.num_values for v in cfsm.state_vars]
        self._explored: Optional[Dict[StateTuple, Optional[Tuple[StateTuple, str]]]] = None

    # ------------------------------------------------------------------
    # Input abstraction
    # ------------------------------------------------------------------

    def _value_samples(self) -> List[Dict[str, int]]:
        """Concrete valuations of the valued-input buffers to try."""
        valued = [e for e in self.cfsm.inputs if e.is_valued]
        if not valued:
            return [{}]
        total = 1
        for event in valued:
            total *= 1 << event.width
            if total > self.value_enum_limit:
                return []  # too big: havoc instead
        names = [e.name for e in valued]
        spaces = [range(1 << e.width) for e in valued]
        return [dict(zip(names, combo)) for combo in product(*spaces)]

    def _successors(
        self, state: Dict[str, int]
    ) -> Iterator[Tuple[Dict[str, int], str]]:
        """All possible (next state, description) pairs from ``state``."""
        events = [e.name for e in self.cfsm.inputs]
        value_samples = self._value_samples()
        havoc = not value_samples
        if havoc:
            value_samples = [{}]

        seen: Set[Tuple[StateTuple, str]] = set()
        # Every output's condition, evaluated in one manager call per input.
        output_vars = self.rf.output_vars
        conditions = [self.rf.conditions_by_var(var).id for var in output_vars]
        evaluate = self.rf.manager._evaluate_ids
        for mask in range(1, 1 << len(events)):
            present = {events[i] for i in range(len(events)) if (mask >> i) & 1}
            for values in value_samples:
                bits = self.encoding.evaluate_inputs(state, present, values)
                actions = self.rf.selected_actions(
                    dict(zip(output_vars, evaluate(conditions, bits)))
                )
                assigns = [a for a in actions if isinstance(a, AssignState)]
                if not assigns:
                    continue
                env: Dict[str, int] = dict(state)
                for event in self.cfsm.inputs:
                    if event.is_valued:
                        env[f"?{event.name}"] = values.get(event.name, 0)
                label = "+".join(sorted(present))
                if havoc and any(
                    name.startswith("?")
                    for a in assigns
                    for name in a.value.variables()
                ):
                    # Data-dependent updates with unenumerable inputs:
                    # havoc every written variable over its full domain.
                    written = [a.var for a in assigns]
                    fixed = {
                        a.var.name: a.value.evaluate(env) % a.var.num_values
                        for a in assigns
                        if not any(
                            n.startswith("?") for n in a.value.variables()
                        )
                    }
                    free = [
                        v for v in written if v.name not in fixed
                    ]
                    for combo in product(*(range(v.num_values) for v in free)):
                        nxt = dict(state)
                        nxt.update(fixed)
                        nxt.update(
                            {v.name: value for v, value in zip(free, combo)}
                        )
                        key = (self._tuple(nxt), label)
                        if key not in seen:
                            seen.add(key)
                            yield nxt, label + " (havoc)"
                else:
                    nxt = dict(state)
                    for a in assigns:
                        nxt[a.var.name] = a.value.evaluate(env) % a.var.num_values
                    key = (self._tuple(nxt), label)
                    if key not in seen:
                        seen.add(key)
                        yield nxt, label

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------

    def _tuple(self, state: Dict[str, int]) -> StateTuple:
        return tuple(state[name] for name in self._state_names)

    def _dict(self, state: StateTuple) -> Dict[str, int]:
        return dict(zip(self._state_names, state))

    def explore(self) -> Dict[StateTuple, Optional[Tuple[StateTuple, str]]]:
        """BFS over reachable states; returns state -> (parent, how)."""
        if self._explored is not None:
            return self._explored
        initial = self._tuple(self.cfsm.initial_state())
        parents: Dict[StateTuple, Optional[Tuple[StateTuple, str]]] = {
            initial: None
        }
        frontier = [initial]
        work = 0
        while frontier:
            if len(parents) > self.max_states:
                raise RuntimeError(
                    f"{self.cfsm.name}: state space exceeds {self.max_states}"
                )
            next_frontier: List[StateTuple] = []
            for state in frontier:
                for nxt, how in self._successors(self._dict(state)):
                    work += 1
                    if work > self.max_work:
                        raise RuntimeError(
                            f"{self.cfsm.name}: exploration exceeded "
                            f"{self.max_work} successor evaluations"
                        )
                    key = self._tuple(nxt)
                    if key not in parents:
                        parents[key] = (state, how)
                        next_frontier.append(key)
            frontier = next_frontier
        self._explored = parents
        return parents

    @property
    def reachable_states(self) -> Set[StateTuple]:
        return set(self.explore().keys())

    def reachable_count(self) -> int:
        return len(self.explore())

    def trace_to(self, target: StateTuple) -> Counterexample:
        parents = self.explore()
        steps: List[Tuple[Dict[str, int], str]] = []
        cursor: Optional[StateTuple] = target
        while cursor is not None:
            parent = parents[cursor]
            if parent is None:
                break
            steps.append((self._dict(parent[0]), parent[1]))
            cursor = parent[0]
        steps.reverse()
        return Counterexample(steps, self._dict(target))

    def check_invariant(
        self, predicate: Callable[[Dict[str, int]], bool]
    ) -> Optional[Counterexample]:
        """None if ``predicate`` holds on every reachable state, else a trace."""
        for state in self.explore():
            as_dict = self._dict(state)
            if not predicate(as_dict):
                return self.trace_to(state)
        return None


def check_invariant(
    cfsm: Cfsm,
    predicate: Callable[[Dict[str, int]], bool],
    value_enum_limit: int = 1024,
) -> Optional[Counterexample]:
    """Convenience wrapper: check one invariant on a fresh analysis."""
    analysis = ReachabilityAnalysis(cfsm, value_enum_limit=value_enum_limit)
    return analysis.check_invariant(predicate)
