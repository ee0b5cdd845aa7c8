"""The CFSM: tests, actions, transitions, state variables.

Following Sec. III-B1, a CFSM transition function is represented as a
composition of:

* a set of **tests** on input and state variables;
* a set of **actions** — output emissions or state-variable assignments;
* the purely Boolean **reactive function** mapping test outcomes to the
  subset of actions to execute.

Here we keep the *symbolic* transition table (guard cubes over tests ->
action sets); :mod:`repro.synthesis` lowers it to the characteristic-function
BDD from which the s-graph is built.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .events import EventDef
from .expr import CachedKey, Expr

__all__ = [
    "StateVar",
    "Test",
    "PresenceTest",
    "ExprTest",
    "Action",
    "Emit",
    "AssignState",
    "TestLiteral",
    "Transition",
    "Cfsm",
]


class StateVar:
    """A finite-domain state variable (values ``0 .. num_values - 1``)."""

    __slots__ = ("name", "num_values", "init")

    def __init__(self, name: str, num_values: int, init: int = 0):
        if not name.isidentifier():
            raise ValueError(f"state variable name {name!r} is not an identifier")
        if num_values < 2:
            raise ValueError(f"state variable {name!r} needs >= 2 values")
        if not 0 <= init < num_values:
            raise ValueError(f"state variable {name!r}: init {init} out of domain")
        self.name = name
        self.num_values = num_values
        self.init = init

    def __repr__(self) -> str:
        return f"<StateVar {self.name}[0..{self.num_values - 1}]={self.init}>"


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class Test(CachedKey):
    """A Boolean observation of the CFSM inputs/state.

    Each distinct test becomes one binary input variable of the reactive
    function, and one TEST vertex family in the s-graph.
    """

    __test__ = False  # not a pytest test class despite the name

    def evaluate(self, env: Dict[str, int], present: Set[str]) -> bool:
        raise NotImplementedError

    def render_c(self) -> str:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Test) and other.key() == self.key()

    __hash__ = CachedKey.__hash__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"


class PresenceTest(Test):
    """``present_e`` — is event ``e`` in the current input snapshot?

    Translates to an RTOS detection call in the generated code, which the
    estimator prices separately from expression tests (Sec. III-C1).
    """

    def __init__(self, event: EventDef):
        self.event = event

    def _make_key(self) -> Tuple:
        return ("presence", self.event.name)

    def evaluate(self, env: Dict[str, int], present: Set[str]) -> bool:
        return self.event.name in present

    def render_c(self) -> str:
        return f"DETECT_{self.event.name}()"

    def label(self) -> str:
        return f"present_{self.event.name}"


class ExprTest(Test):
    """A relational/arithmetic predicate over state vars and event values."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def _make_key(self) -> Tuple:
        return ("expr", self.expr.key())

    def evaluate(self, env: Dict[str, int], present: Set[str]) -> bool:
        return bool(self.expr.evaluate(env))

    def render_c(self) -> str:
        return self.expr.render_c()

    def label(self) -> str:
        return self.expr.render_c()


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class Action(CachedKey):
    """An effect selected by the reactive function (one output variable)."""

    def label(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Action) and other.key() == self.key()

    __hash__ = CachedKey.__hash__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"


class Emit(Action):
    """Emit an output event, optionally with a value expression."""

    def __init__(self, event: EventDef, value: Optional[Expr] = None):
        if event.is_pure and value is not None:
            raise ValueError(f"pure event {event.name} cannot carry a value")
        if event.is_valued and value is None:
            raise ValueError(f"valued event {event.name} needs a value expression")
        self.event = event
        self.value = value

    def _make_key(self) -> Tuple:
        return ("emit", self.event.name, None if self.value is None else self.value.key())

    def label(self) -> str:
        if self.value is None:
            return f"emit {self.event.name}"
        return f"emit {self.event.name}({self.value.render_c()})"


class AssignState(Action):
    """Assign an expression to a state variable (takes effect next reaction)."""

    def __init__(self, var: StateVar, value: Expr):
        self.var = var
        self.value = value

    def _make_key(self) -> Tuple:
        return ("assign", self.var.name, self.value.key())

    def label(self) -> str:
        return f"{self.var.name} := {self.value.render_c()}"


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------


class TestLiteral:
    """A test required to be true or false in a transition guard."""

    __test__ = False  # not a pytest test class despite the name
    __slots__ = ("test", "value")

    def __init__(self, test: Test, value: bool = True):
        self.test = test
        self.value = bool(value)

    def __repr__(self) -> str:
        sign = "" if self.value else "!"
        return f"{sign}{self.test.label()}"


class Transition:
    """A guarded command: conjunction of test literals -> set of actions.

    ``source`` optionally records where the transition came from (e.g.
    ``"belt_alarm.rsl:14"``); code generation threads it into the emitted C
    as the paper's source-level-debugging directives.
    """

    def __init__(
        self,
        guard: Sequence[TestLiteral],
        actions: Sequence[Action],
        source: Optional[str] = None,
    ):
        self.guard = list(guard)
        seen: Set[Test] = set()  # tests are equal when their keys are
        for lit in self.guard:
            if lit.test in seen:
                raise ValueError(f"guard repeats test {lit.test.label()}")
            seen.add(lit.test)
        self.actions = list(actions)
        self.source = source

    def tests(self) -> Iterator[Test]:
        for lit in self.guard:
            yield lit.test

    def enabled(self, env: Dict[str, int], present: Set[str]) -> bool:
        return all(lit.test.evaluate(env, present) == lit.value for lit in self.guard)

    def __repr__(self) -> str:
        guard = " & ".join(repr(lit) for lit in self.guard) or "true"
        actions = "; ".join(a.label() for a in self.actions) or "skip"
        return f"<Transition {guard} -> {actions}>"


# ---------------------------------------------------------------------------
# CFSM
# ---------------------------------------------------------------------------


class Cfsm:
    """A single Co-design FSM.

    The machine is *synchronous inside*: a reaction atomically reads the
    input snapshot, evaluates all transition guards against the pre-state,
    and executes the actions of every enabled transition (Sec. II-D).  The
    asynchrony lives in the network around it.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[EventDef],
        outputs: Sequence[EventDef],
        state_vars: Sequence[StateVar] = (),
        transitions: Sequence[Transition] = (),
    ):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.state_vars = list(state_vars)
        self.transitions = list(transitions)
        self._validate()

    def _validate(self) -> None:
        input_names = {e.name for e in self.inputs}
        output_names = {e.name for e in self.outputs}
        if len(input_names) != len(self.inputs):
            raise ValueError(f"{self.name}: duplicate input event")
        if len(output_names) != len(self.outputs):
            raise ValueError(f"{self.name}: duplicate output event")
        state_names = {v.name for v in self.state_vars}
        if len(state_names) != len(self.state_vars):
            raise ValueError(f"{self.name}: duplicate state variable")
        valued_inputs = {e.name for e in self.inputs if e.is_valued}
        # A test, action or expression shared by several transitions (the
        # RSL frontend shares them) is checked once.
        checked: Set[int] = set()

        def check(expr: Expr) -> None:
            if id(expr) not in checked:
                checked.add(id(expr))
                self._check_expr_names(expr, state_names, valued_inputs)

        for t in self.transitions:
            for lit in t.guard:
                test = lit.test
                if id(test) in checked:
                    continue
                checked.add(id(test))
                if isinstance(test, PresenceTest):
                    if test.event.name not in input_names:
                        raise ValueError(
                            f"{self.name}: guard tests presence of non-input "
                            f"{test.event.name}"
                        )
                elif isinstance(test, ExprTest):
                    check(test.expr)
            for action in t.actions:
                if id(action) in checked:
                    continue
                checked.add(id(action))
                if isinstance(action, Emit):
                    if action.event.name not in output_names:
                        raise ValueError(
                            f"{self.name}: emits non-output {action.event.name}"
                        )
                    if action.value is not None:
                        check(action.value)
                elif isinstance(action, AssignState):
                    if action.var.name not in state_names:
                        raise ValueError(
                            f"{self.name}: assigns unknown state var "
                            f"{action.var.name}"
                        )
                    check(action.value)

    def _check_expr_names(
        self, expr: Expr, state_names: Set[str], valued_inputs: Set[str]
    ) -> None:
        for name in expr.variables():
            if name.startswith("?"):
                if name[1:] not in valued_inputs:
                    raise ValueError(
                        f"{self.name}: expression reads value of non-input "
                        f"event {name[1:]}"
                    )
            elif name not in state_names:
                raise ValueError(
                    f"{self.name}: expression reads unknown variable {name}"
                )

    # -- derived views ----------------------------------------------------

    def input_event(self, name: str) -> EventDef:
        for e in self.inputs:
            if e.name == name:
                return e
        raise KeyError(f"{self.name}: no input event {name}")

    def output_event(self, name: str) -> EventDef:
        for e in self.outputs:
            if e.name == name:
                return e
        raise KeyError(f"{self.name}: no output event {name}")

    def state_var(self, name: str) -> StateVar:
        for v in self.state_vars:
            if v.name == name:
                return v
        raise KeyError(f"{self.name}: no state variable {name}")

    def all_tests(self) -> List[Test]:
        """Distinct tests in guard order of first occurrence."""
        result: List[Test] = []
        seen: Set[Tuple] = set()
        for t in self.transitions:
            for test in t.tests():
                if test.key() not in seen:
                    seen.add(test.key())
                    result.append(test)
        return result

    def all_actions(self) -> List[Action]:
        """Distinct actions in order of first occurrence."""
        result: List[Action] = []
        seen: Set[Tuple] = set()
        for t in self.transitions:
            for action in t.actions:
                if action.key() not in seen:
                    seen.add(action.key())
                    result.append(action)
        return result

    def initial_state(self) -> Dict[str, int]:
        return {v.name: v.init for v in self.state_vars}

    def sensitivity(self) -> Set[str]:
        """Names of input events whose occurrence enables this machine."""
        return {e.name for e in self.inputs}

    def __repr__(self) -> str:
        return (
            f"<Cfsm {self.name}: {len(self.inputs)} in, {len(self.outputs)} out, "
            f"{len(self.state_vars)} vars, {len(self.transitions)} transitions>"
        )
