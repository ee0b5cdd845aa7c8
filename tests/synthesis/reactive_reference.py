"""Reference construction of the reactive function and its cross-check.

The library (:mod:`repro.synthesis.encoding`, :mod:`repro.synthesis.reactive`)
builds each BDD of the reactive function from its distinct parts, once.
Value sets (folded state tests, in-domain codes, a correlation
component's distinct test-outcome keys, reachable state codes) are built
bottom-up from their codes by ``_mk`` (``BddManager.assignments``); a
guard chains one part per single-variable literal and one value set per
folded state variable (``BddManager.conjoin_assignments``); conditions,
``fire_condition`` and ``spec`` are balanced ORs and ANDs.  The functions
below keep the direct construction it replaced: every value set ORs one
cube per value, code or enumerated joint assignment into an accumulator,
a guard ANDs one literal at a time (a folded literal being the OR of its
values' ``mvar.equals(v)`` cubes, negated for a negated literal), and
conditions, ``fire_condition`` and ``spec`` are left folds over the
transitions and actions.

Both run in the *same* manager at the same order, so equal functions are
equal edges: the cross-check compares ``Function.id``.  It compares them at
the naive order the library synthesizes at, then rebuilds the value sets,
the care set and the guards both ways after ``mixed_order`` (which can
split a state variable's bits and interleave the parts of a guard) and
after sifting (which moves state bits away from their allocation order).
The corpus is the sift corpus of :mod:`tests.bdd.sift_reference` (the 17
example modules, also without state-test folding, the first 300
``generate_case(7, i)`` machines and the 64 build-cold machines) plus,
with reachable-state don't-cares, the sparse-cycle machine of
``tests/sgraph/test_reachability_dontcares.py`` and eight example modules.
The tier-1 tests check a part of it; the whole of it runs as::

    PYTHONPATH=src python -m tests.synthesis.reactive_reference
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, List, Optional, Tuple

from repro.bdd import Function
from repro.sgraph import mixed_order, sifted_order
from repro.synthesis import ReactiveFunction, synthesize_reactive
from repro.synthesis.encoding import FireFlag, ReactiveEncoding
from repro.verify import ReachabilityAnalysis

from ..bdd.sift_reference import (
    BUILD_COLD_CASES,
    EXAMPLES,
    FUZZ_CASES,
    build_cold_machine,
    example_machine,
    fuzz_machine,
)
from ..sgraph.test_reachability_dontcares import make_sparse_cycle

# Example modules whose state space ``ReachabilityAnalysis`` explores in
# well under a second (speed_gauge, rpm_gauge, fuel_gauge and accel_filter
# take 1-2 s, road_classifier 8 s and abp_sender 85 s; the other three
# exceed the 4096-state bound ``repro.sgraph.synthesize`` explores).
REACHABLE_EXAMPLES = (
    "wheel_filter", "speedo", "odometer", "tacho",
    "belt_alarm", "actuator", "diagnostics", "abp_receiver",
)


# ----------------------------------------------------------------------
# The reference construction
# ----------------------------------------------------------------------


def reference_value_set(mvar, values) -> Function:
    """``mvar in values`` as an OR of one ``equals`` cube per value."""
    fn = mvar.manager.false
    for value in values:
        fn = fn | mvar.equals(value)
    return fn


def reference_folded_test(encoding: ReactiveEncoding, key: Tuple) -> Function:
    """A folded state test, from the values that satisfy it."""
    name = encoding.folded_tests[key][0]
    mvar = encoding.state_mvars[name]
    test = encoding.test_by_key[key]
    return reference_value_set(
        mvar,
        [v for v in range(mvar.num_values) if test.expr.evaluate({name: v})],
    )


def reference_folded_tests(encoding: ReactiveEncoding) -> Dict[Tuple, Function]:
    """Every folded state test, cube by cube."""
    return {key: reference_folded_test(encoding, key) for key in encoding.folded_tests}


def reference_guard(encoding: ReactiveEncoding, literals) -> Function:
    """A guard, AND-ed one literal at a time."""
    manager = encoding.manager
    guard = manager.true
    for literal in literals:
        test = literal.test
        key = test.key()
        if key in encoding.folded_tests:
            fn = reference_folded_test(encoding, key)
        elif key in encoding.opaque_var:
            fn = manager.var(encoding.opaque_var[key])
        else:
            fn = manager.var(encoding.presence_vars[test.event.name])
        guard = guard & (fn if literal.value else ~fn)
    return guard


def reference_component_constraint(
    encoding: ReactiveEncoding, tests
) -> Optional[Function]:
    """One component's care constraint, one cube OR-ed per joint assignment."""
    manager = encoding.manager
    names = set()
    for test in tests:
        names.update(test.expr.variables())
    domain = 1
    for name in names:
        size = (
            encoding.state_domains.get(name)
            if name in encoding.state_domains
            else encoding.value_domains.get(name, 0)
        )
        if not size:
            return None
        domain *= size
        if domain > encoding.enum_limit:
            return None
    ordered = sorted(names)
    sizes = [
        encoding.state_domains.get(n) or encoding.value_domains[n] for n in ordered
    ]
    allowed = encoding._allowed_state_combos(
        [n for n in ordered if n in encoding.state_domains]
    )
    constraint = manager.false
    for assignment in itertools.product(*(range(size) for size in sizes)):
        env = dict(zip(ordered, assignment))
        if allowed is not None:
            combo = tuple(env[n] for n in ordered if n in encoding.state_domains)
            if combo not in allowed:
                continue
        cube = manager.true
        for name, value in env.items():
            if name in encoding.state_mvars:
                cube = cube & encoding.state_mvars[name].equals(value)
        for test in tests:
            var = encoding.opaque_var[test.key()]
            lit = manager.var(var) if test.expr.evaluate(env) else manager.nvar(var)
            cube = cube & lit
        constraint = constraint | cube
    return constraint


def reference_reachability_constraint(
    encoding: ReactiveEncoding,
) -> Optional[Function]:
    """Reachable state codes, one cube OR-ed per projected combination."""
    if not encoding.reachable_states or not encoding.state_mvars:
        return None
    names = [v.name for v in encoding.cfsm.state_vars]
    encoded = [name for name in names if name in encoding.state_mvars]
    if not encoded:
        return None
    projected = {
        tuple(
            value
            for name, value in zip(names, state)
            if name in encoding.state_mvars
        )
        for state in encoding.reachable_states
    }
    constraint = encoding.manager.false
    for combo in projected:
        cube = encoding.manager.true
        for name, value in zip(encoded, combo):
            cube = cube & encoding.state_mvars[name].equals(value)
        constraint = constraint | cube
    return constraint


def reference_care(encoding: ReactiveEncoding) -> Function:
    """In-domain codes, component constraints and reachable codes, AND-ed."""
    care = encoding.manager.true
    for mvar in encoding.state_mvars.values():
        if mvar.num_values != (1 << mvar.num_bits):
            care = care & reference_value_set(mvar, range(mvar.num_values))
    for component in encoding._correlation_components():
        constraint = reference_component_constraint(encoding, component)
        if constraint is not None:
            care = care & constraint
    reachability = reference_reachability_constraint(encoding)
    if reachability is not None:
        care = care & reachability
    return care


def reference_functions(rf: ReactiveFunction) -> Dict[str, Function]:
    """Every live root of ``rf``, rebuilt by the reference construction.

    Keys: ``care``, ``folded:<test key>``, ``guard:<transition index>``,
    ``cond:<action key>``, ``fire_condition``, ``spec`` and ``chi``.  The virtual FIRE output is
    the library's variable; whether the reference would add it is checked
    against whether the library did.
    """
    encoding, manager = rf.encoding, rf.manager
    functions: Dict[str, Function] = {"care": reference_care(encoding)}
    for key, fn in reference_folded_tests(encoding).items():
        functions[f"folded:{key}"] = fn
    fire = FireFlag().key()
    conditions = {
        action.key(): manager.false
        for action in encoding.actions
        if action.key() != fire
    }
    fire_condition = manager.false
    for index, transition in enumerate(rf.cfsm.transitions):
        cube = reference_guard(encoding, transition.guard)
        functions[f"guard:{index}"] = cube
        fire_condition = fire_condition | cube
        for action in transition.actions:
            key = action.key()
            conditions[key] = conditions[key] | cube
    visible = manager.false
    for condition in conditions.values():
        visible = visible | condition
    needs_fire = not (fire_condition & ~visible & functions["care"]).is_false
    assert needs_fire == (fire in rf.conditions), (rf.cfsm.name, needs_fire)
    if needs_fire:
        conditions[fire] = fire_condition
    spec = manager.true
    for action in encoding.actions:
        out = manager.var(encoding.action_vars[action.key()])
        spec = spec & out.iff(conditions[action.key()])
    for key, condition in conditions.items():
        functions[f"cond:{key}"] = condition
    functions["fire_condition"] = fire_condition
    functions["spec"] = spec
    functions["chi"] = functions["care"] & spec
    return functions


def library_functions(rf: ReactiveFunction) -> Dict[str, Function]:
    """The same functions, as the library built them (keys as above).

    The guards are not kept by the library, so they are built again.
    """
    functions: Dict[str, Function] = {"care": rf.care}
    for key, (_, fn) in rf.encoding.folded_tests.items():
        functions[f"folded:{key}"] = fn
    for index, transition in enumerate(rf.cfsm.transitions):
        functions[f"guard:{index}"] = rf.encoding.guard_function(transition.guard)
    for key, condition in rf.conditions.items():
        functions[f"cond:{key}"] = condition
    functions["fire_condition"] = rf.fire_condition
    functions["spec"] = rf.spec
    functions["chi"] = rf.chi
    return functions


def rebuilt_library_functions(rf: ReactiveFunction) -> Dict[str, Function]:
    """The library's value sets, care set and guards, built again at the
    manager's current order (keys as above)."""
    encoding = rf.encoding
    functions: Dict[str, Function] = {"care": encoding._build_care()}
    for key, (name, _) in encoding.folded_tests.items():
        mvar = encoding.state_mvars[name]
        functions[f"folded:{key}"] = mvar.in_set(encoding.folded_values[key])
    for index, transition in enumerate(rf.cfsm.transitions):
        functions[f"guard:{index}"] = encoding.guard_function(transition.guard)
    return functions


def rebuilt_reference_functions(rf: ReactiveFunction) -> Dict[str, Function]:
    """The same functions by the reference construction, at the current
    order."""
    encoding = rf.encoding
    functions: Dict[str, Function] = {"care": reference_care(encoding)}
    for key, fn in reference_folded_tests(encoding).items():
        functions[f"folded:{key}"] = fn
    for index, transition in enumerate(rf.cfsm.transitions):
        functions[f"guard:{index}"] = reference_guard(encoding, transition.guard)
    return functions


# ----------------------------------------------------------------------
# Cross-check
# ----------------------------------------------------------------------

#: The orders the value sets, care set and guards are rebuilt at after
#: the naive order: a random interleaving that can split a state
#: variable's bits, and the sifted order of the build flow.
REORDERS = {
    "mixed": lambda rf: mixed_order(rf, seed=0),
    "sifted": lambda rf: sifted_order(rf),
}


def crosscheck_machine(
    cfsm, fold_state_tests: bool = True, reachable_states=None
) -> int:
    """Assert the library's functions are the reference's edges.

    Synthesizes ``cfsm`` at the naive order, rebuilds every function with
    the reference construction in the same manager and compares edges;
    then, at each order of :data:`REORDERS`, rebuilds the value sets, the
    care set and the guards both ways and compares them again (and the
    care set with the one synthesized).  Returns the number of functions
    compared.
    """
    rf = synthesize_reactive(
        cfsm, fold_state_tests=fold_state_tests, reachable_states=reachable_states
    )
    library = library_functions(rf)
    reference = reference_functions(rf)
    assert sorted(library) == sorted(reference), cfsm.name
    for name, fn in library.items():
        assert fn.id == reference[name].id, (cfsm.name, fold_state_tests, name)
    compared = len(library)
    for order, reorder in REORDERS.items():
        reorder(rf)
        library = rebuilt_library_functions(rf)
        reference = rebuilt_reference_functions(rf)
        assert library["care"].id == rf.care.id, (cfsm.name, order)
        for name, fn in library.items():
            assert fn.id == reference[name].id, (
                cfsm.name, fold_state_tests, order, name,
            )
        compared += len(library)
    return compared


def reachable_states_of(cfsm):
    """The reachable-state set ``synthesize(reachability_dontcares=True)`` uses."""
    return ReachabilityAnalysis(cfsm).reachable_states


def reachability_machines() -> List:
    """The sparse cycle and the quickly explored example modules."""
    return [make_sparse_cycle()] + [
        example_machine(name) for name in REACHABLE_EXAMPLES
    ]


def crosscheck_corpus() -> Dict[str, int]:
    """Cross-check the whole corpus; machines checked per part."""
    parts: Dict[str, List[Tuple]] = {
        "examples": [(example_machine(name), True, None) for name in EXAMPLES],
        "examples-unfolded": [
            (example_machine(name), False, None) for name in EXAMPLES
        ],
        "fuzz": [(fuzz_machine(i), True, None) for i in range(FUZZ_CASES)],
        "build-cold": [
            (build_cold_machine(i), True, None) for i in range(BUILD_COLD_CASES)
        ],
        "reachable": [
            (cfsm, fold, reachable_states_of(cfsm))
            for cfsm in reachability_machines()
            for fold in (True, False)
        ],
    }
    summary = {}
    for part, cases in parts.items():
        for cfsm, fold, reachable in cases:
            crosscheck_machine(cfsm, fold, reachable)
        summary[part] = len(cases)
    return summary


def main() -> int:
    """Cross-check the whole corpus; exit 0 when every edge is identical."""
    summary = crosscheck_corpus()
    for part, count in summary.items():
        print(f"{part}: {count} machines, identical edges")
    return 0


if __name__ == "__main__":
    sys.exit(main())
