"""Characteristic-function construction for a CFSM's reactive function.

Sec. III-B1: "The reactive function is just a Boolean function, for which we
construct an s-graph."  For action output variables ``o_j`` with firing
conditions ``cond_j`` (disjunction of the guard cubes of the transitions
containing the action), the characteristic function is

    chi(i, o) = care(i) -> AND_j ( o_j <-> cond_j(i) )

The ``care`` set (impossible test combinations removed) makes ``chi`` a
*relation*: outside ``care`` every output is free, and the s-graph builder
resolves that freedom to the cheapest option, "no assignment"
(Sec. III-B2).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set, Tuple

from ..bdd import (
    BddManager,
    Function,
    PrecedenceConstraints,
    SizeProbe,
    sift_to_convergence,
)
from ..cfsm.machine import Action, AssignState, Cfsm, Emit
from .encoding import FireFlag, ReactiveEncoding

__all__ = ["ReactiveFunction", "ConsistencyError", "synthesize_reactive"]


class ConsistencyError(Exception):
    """The CFSM can simultaneously demand conflicting actions."""


class ReactiveFunction:
    """The Boolean heart of one CFSM, ready for s-graph construction."""

    def __init__(self, encoding: ReactiveEncoding):
        self.encoding = encoding
        self.cfsm = encoding.cfsm
        self.manager: BddManager = encoding.manager

        # Each condition is one balanced OR of the guard cubes of the
        # transitions carrying the action, and fire_condition one of every
        # guard: a balanced tree keeps the intermediate BDDs small.
        guards = [encoding.guard_function(t.guard) for t in self.cfsm.transitions]
        cubes_of: Dict[Tuple, List[Function]] = {
            action.key(): [] for action in encoding.actions
        }
        for transition, cube in zip(self.cfsm.transitions, guards):
            for action in transition.actions:
                cubes_of[action.key()].append(cube)
        self.conditions: Dict[Tuple, Function] = {
            key: self.manager.disjoin(cubes) for key, cubes in cubes_of.items()
        }
        self.fire_condition = self.manager.disjoin(guards)

        self.care: Function = encoding.care
        # A transition that is enabled without executing any visible action
        # must still report "fired" so the RTOS consumes the events it
        # detected (Sec. IV-D).  When such inputs exist, synthesize a
        # virtual FIRE output covering them.
        visible = self.manager.disjoin(self.conditions.values())
        if not (self.fire_condition & ~visible & self.care).is_false:
            encoding.add_virtual_output(FireFlag(), "act_fire")
            self.conditions[FireFlag().key()] = self.fire_condition

    # spec and chi are built at their first read: the s-graph flow reads
    # chi at once, while the fleet kernels and the reachability analysis
    # read only the conditions and never pay for either.

    @functools.cached_property
    def spec(self) -> Function:
        """AND_j (o_j <-> cond_j), one balanced AND over the actions."""
        return self.manager.conjoin(
            self.manager.var(self.encoding.action_vars[action.key()]).iff(
                self.conditions[action.key()]
            )
            for action in self.encoding.actions
        )

    @functools.cached_property
    def chi(self) -> Function:
        """The characteristic function ``care & spec``.

        Inputs outside the care set make chi unsatisfiable, so the s-graph
        builder routes them to END through *infeasible* edges — the
        paper's false paths, excludable from worst-case timing analysis
        (Sec. III-C).  The don't-care output flexibility stays: an
        infeasible input demands no action at all.
        """
        return self.care & self.spec

    # -- views ---------------------------------------------------------------

    @property
    def input_vars(self) -> List[int]:
        return list(self.encoding.input_vars)

    @property
    def output_vars(self) -> List[int]:
        return list(self.encoding.output_vars)

    def condition_of(self, action: Action) -> Function:
        return self.conditions[action.key()]

    def conditions_by_var(self, var: int) -> Function:
        return self.conditions[self.encoding.action_of_var(var).key()]

    def fires(self) -> Function:
        """Inputs for which at least one transition is enabled."""
        return self.fire_condition

    # -- ordering constraints --------------------------------------------------

    def support_constraints(self) -> PrecedenceConstraints:
        """Each output must stay below its own support (Sec. III-B3b).

        Condition BDDs share most of their structure, so the per-action
        support queries here lean on the manager's per-node support memo:
        each shared subgraph is traversed once across the whole loop, not
        once per action.
        """
        pc = PrecedenceConstraints()
        outputs = set(self.output_vars)
        for action in self.encoding.actions:
            out = self.encoding.action_vars[action.key()]
            support = self.manager.support(self.conditions[action.key()])
            pc.add_output_support(out, support - outputs)
        return pc

    def strict_constraints(self) -> PrecedenceConstraints:
        """All outputs below all inputs (the stricter Table II variant)."""
        pc = PrecedenceConstraints()
        for out in self.output_vars:
            pc.add_output_support(out, self.input_vars)
        return pc

    def sift(self, strict: bool = False, max_passes: int = 8, profile=None) -> int:
        """Dynamically reorder to minimize the characteristic-function BDD.

        "We heuristically optimize the size of this BDD by dynamic variable
        reordering, using the sift algorithm" — the metric is the size of
        chi itself, which the s-graph mirrors, read after every move by a
        :class:`~repro.bdd.SizeProbe` that recounts only the swapped
        levels.  ``profile`` (a :class:`repro.obs.SiftProfile`) records the
        reorder trajectory.
        """
        constraints = self.strict_constraints() if strict else self.support_constraints()
        return sift_to_convergence(
            self.manager,
            constraints=constraints,
            groups=self.encoding.sifting_groups(),
            max_passes=max_passes,
            metric=SizeProbe(self.chi),
            profile=profile,
        )

    # -- consistency -------------------------------------------------------------

    def check_consistency(self) -> None:
        """Reject CFSMs whose simultaneously-enabled transitions conflict.

        Two actions conflict when they write the same state variable or emit
        the same event through *different* expressions; the check verifies
        their conditions are disjoint within the care set.
        """
        by_target: Dict[Tuple[str, str], List[Action]] = {}
        for action in self.encoding.actions:
            if isinstance(action, AssignState):
                by_target.setdefault(("state", action.var.name), []).append(action)
            elif isinstance(action, Emit):
                by_target.setdefault(("event", action.event.name), []).append(action)
        for (_, target), actions in by_target.items():
            for i, a in enumerate(actions):
                for b in actions[i + 1 :]:
                    overlap = (
                        self.conditions[a.key()]
                        & self.conditions[b.key()]
                        & self.care
                    )
                    if not overlap.is_false:
                        raise ConsistencyError(
                            f"{self.cfsm.name}: actions '{a.label()}' and "
                            f"'{b.label()}' can fire together on {target}"
                        )

    # -- reference evaluation ------------------------------------------------------

    def expected_outputs(
        self,
        state: Dict[str, int],
        present: Set[str],
        values: Optional[Dict[str, int]] = None,
    ) -> Dict[int, bool]:
        """Action bits the reactive function must produce for a snapshot.

        Cross-checked in the test-suite against the CFSM reference
        interpreter :func:`repro.cfsm.semantics.react`.
        """
        bits = self.encoding.evaluate_inputs(state, present, values)
        keys = [action.key() for action in self.encoding.actions]
        fired = self.manager._evaluate_ids(
            [self.conditions[key].id for key in keys], bits
        )
        action_vars = self.encoding.action_vars
        return {action_vars[key]: value for key, value in zip(keys, fired)}

    def selected_actions(self, output_bits: Dict[int, bool]) -> List[Action]:
        """Decode an output assignment into the actions to execute."""
        return [
            action
            for action in self.encoding.actions
            if output_bits.get(self.encoding.action_vars[action.key()], False)
        ]


def synthesize_reactive(
    cfsm: Cfsm,
    fold_state_tests: bool = True,
    check: bool = True,
    reachable_states=None,
) -> ReactiveFunction:
    """Build the reactive function of ``cfsm`` (encoding + characteristic BDD).

    ``reachable_states`` (a set of state tuples from
    :class:`repro.verify.ReachabilityAnalysis`) adds sequential
    don't-cares: unreachable state codes drop out of the care set.
    """
    encoding = ReactiveEncoding(
        cfsm,
        fold_state_tests=fold_state_tests,
        reachable_states=reachable_states,
    )
    rf = ReactiveFunction(encoding)
    if check:
        rf.check_consistency()
    return rf
