"""RSL -> CFSM compilation.

Each ``await`` in the loop body is a control point; the statements between
consecutive awaits (cyclically) form the *reaction segment* executed when
one of the awaited events arrives.  Segments are straight-line/conditional
code with Esterel-like sequential semantics; they are compiled into the
CFSM's snapshot-parallel transition actions by **symbolic substitution**:
along each path, every assignment updates a symbolic environment, and all
conditions, emission values, and final assignments are expressed over the
*pre*-state.

With more than one await a hidden program counter variable ``_pc`` is
introduced (one value per control point), tested by every guard and
advanced by every transition.

Each piece is built once: a condition's test once per distinct condition,
a path's guard literals and actions once per path, for every event its
segment awaits, and each test, literal and action is one object wherever
it recurs, so that the checks and the fingerprint after the compile meet
each of them once too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfsm.events import EventDef
from ..cfsm.expr import BinOp, Cond, Const, EventValue, Expr, UnOp, Var
from ..cfsm.machine import (
    Action,
    AssignState,
    Cfsm,
    Emit,
    ExprTest,
    PresenceTest,
    StateVar,
    Test,
    TestLiteral,
    Transition,
)
from .rsl import (
    Assign,
    Await,
    EmitStmt,
    If,
    Module,
    PresenceExpr,
    Stmt,
    parse_module,
)

__all__ = ["compile_module", "compile_source", "CompileError"]

PC_VAR = "_pc"


class CompileError(Exception):
    pass


def _substitute(expr: Expr, env: Dict[str, Expr]) -> Expr:
    """``expr`` over the pre-state: ``env``'s value for each variable it
    binds.  A node nothing under which is bound comes back as itself, so
    an unchanged condition or value stays one object on every path."""
    if isinstance(expr, Var):
        return env.get(expr.name, expr)
    if isinstance(expr, BinOp):
        left = _substitute(expr.left, env)
        right = _substitute(expr.right, env)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnOp):
        operand = _substitute(expr.operand, env)
        return expr if operand is expr.operand else UnOp(expr.op, operand)
    if isinstance(expr, Cond):
        parts = (expr.cond, expr.then, expr.otherwise)
        new = [_substitute(part, env) for part in parts]
        if all(a is b for a, b in zip(new, parts)):
            return expr
        return Cond(*new)
    if isinstance(expr, (Const, EventValue, PresenceExpr)):
        return expr
    raise CompileError(f"cannot substitute in {expr!r}")


@dataclass
class _Path:
    """One control path through a reaction segment.

    A statement replaces ``env`` or ``emissions`` instead of changing it,
    so the paths an ``if`` forks share them until one of them assigns or
    emits.
    """

    conditions: List[Tuple[Expr, bool]]
    env: Dict[str, Expr]
    emissions: List[Tuple[str, Optional[Expr]]]


def _enumerate_paths(
    stmts: Sequence[Stmt], base: _Path
) -> List[_Path]:
    paths = [base]
    for stmt in stmts:
        if isinstance(stmt, Await):
            raise CompileError(
                f"line {stmt.line}: await may only appear at the top level "
                f"of the loop"
            )
        if isinstance(stmt, Assign):
            for path in paths:
                value = _substitute(stmt.value, path.env) if path.env else stmt.value
                path.env = dict(path.env)
                path.env[stmt.name] = value
        elif isinstance(stmt, EmitStmt):
            for path in paths:
                value = stmt.value
                if value is not None and path.env:
                    value = _substitute(value, path.env)
                path.emissions = path.emissions + [(stmt.name, value)]
        elif isinstance(stmt, If):
            new_paths: List[_Path] = []
            for path in paths:
                arm_conditions: List[Tuple[Expr, bool]] = []
                has_else = False
                for cond, body in stmt.arms:
                    conditions = path.conditions + arm_conditions
                    if cond is None:
                        has_else = True
                    else:
                        if path.env:
                            cond = _substitute(cond, path.env)
                        conditions.append((cond, True))
                        arm_conditions.append((cond, False))
                    branch = _Path(conditions, path.env, path.emissions)
                    new_paths.extend(_enumerate_paths(body, branch))
                if not has_else:
                    # Fall through with all conditions false.
                    new_paths.append(
                        _Path(
                            path.conditions + arm_conditions,
                            path.env,
                            path.emissions,
                        )
                    )
            paths = new_paths
        else:  # pragma: no cover - defensive
            raise CompileError(f"unknown statement {stmt!r}")
    return paths


#: A path's guard ends at a contradiction: it never fires.
_INFEASIBLE = object()

_NESTED_PRESENCE = (
    "present-conditions cannot be combined with data expressions; split the if"
)


def _has_presence(expr: Expr) -> bool:
    """Whether ``expr`` is or holds a ``present e``, which may only be a
    whole condition, not a sub-expression."""
    if isinstance(expr, BinOp):
        return _has_presence(expr.left) or _has_presence(expr.right)
    if isinstance(expr, UnOp):
        return _has_presence(expr.operand)
    if isinstance(expr, Cond):
        return (
            _has_presence(expr.cond) or _has_presence(expr.then)
            or _has_presence(expr.otherwise)
        )
    return isinstance(expr, PresenceExpr)


class _Parts:
    """The tests, literals and actions of one module, each built once.

    A condition is normalized, presence-checked and turned into its test
    once per condition object (one nothing on a path rebinds is one object
    on every path), and equal conditions share one test, so one test object
    stands for each test key.  A check that fails becomes the condition's
    error message, raised only when a path reaches it.  An action is one
    object per target and value object.  The memos are keyed by ``id`` and
    hold what they key.
    """

    def __init__(self, events: Dict[str, EventDef], state_vars: Dict[str, StateVar]):
        self.events = events
        self.state_vars = state_vars
        self._conditions: Dict[int, Tuple[Expr, bool, Union[Test, str]]] = {}
        self._presence: Dict[str, PresenceTest] = {}
        self._exprs: Dict[Expr, Union[Test, str]] = {}
        self._literals: Dict[int, Tuple[TestLiteral, TestLiteral]] = {}
        self._actions: Dict[Tuple[bool, str, int], Tuple[Optional[Expr], Action]] = {}

    def presence(self, event_name: str) -> PresenceTest:
        test = self._presence.get(event_name)
        if test is None:
            test = self._presence[event_name] = PresenceTest(self.events[event_name])
        return test

    def literals(self, test: Test) -> Tuple[TestLiteral, TestLiteral]:
        """The test's negative and positive literal."""
        pair = self._literals.get(id(test))
        if pair is None:
            pair = self._literals[id(test)] = (
                TestLiteral(test, False), TestLiteral(test, True)
            )
        return pair

    def condition(self, cond: Expr) -> Tuple[Expr, bool, Union[Test, str]]:
        """``(cond, negated, test or error message)``."""
        entry = self._conditions.get(id(cond))
        if entry is None:
            expr, negated = cond, False
            # Leading logical negations become the literal's polarity.
            while isinstance(expr, UnOp) and expr.op == "!":
                expr, negated = expr.operand, not negated
            if isinstance(expr, PresenceExpr):
                if expr.event_name in self.events:
                    test: Union[Test, str] = self.presence(expr.event_name)
                else:
                    test = (
                        f"present-condition on undeclared event "
                        f"{expr.event_name}"
                    )
            else:
                test = self._exprs.get(expr)
                if test is None:
                    test = self._exprs[expr] = (
                        _NESTED_PRESENCE if _has_presence(expr) else ExprTest(expr)
                    )
            entry = self._conditions[id(cond)] = (cond, negated, test)
        return entry

    def guard(self, path: _Path):
        """A path's literals, each test once, in the order the path first
        tests it; the polarity of each test's first literal, by the test's
        id; and what ends the guard early: None, :data:`_INFEASIBLE` or an
        error message."""
        seen: Dict[int, bool] = {}
        literals: List[TestLiteral] = []
        conditions, pairs = self._conditions, self._literals
        for cond, polarity in path.conditions:
            entry = conditions.get(id(cond)) or self.condition(cond)
            test = entry[2]
            if isinstance(test, str):
                return literals, seen, test
            if entry[1]:
                polarity = not polarity
            first = seen.get(id(test))
            if first is None:
                seen[id(test)] = polarity
                pair = pairs.get(id(test)) or self.literals(test)
                literals.append(pair[polarity])
            elif first != polarity:
                return literals, seen, _INFEASIBLE
        return literals, seen, None

    def actions(self, path: _Path) -> List[Action]:
        """A path's assignments, in the order its variables were first
        assigned, then its emissions."""
        return [self._action(True, name, value) for name, value in path.env.items()] + [
            self._action(False, name, value) for name, value in path.emissions
        ]

    def _action(self, assign: bool, name: str, value: Optional[Expr]) -> Action:
        entry = self._actions.get((assign, name, id(value)))
        if entry is None:
            action = (
                AssignState(self.state_vars[name], value) if assign
                else Emit(self.events[name], value)
            )
            entry = self._actions[(assign, name, id(value))] = (value, action)
        return entry[1]


def compile_module(module: Module) -> Cfsm:
    """Compile a parsed RSL module into a CFSM.

    Each path's guard and actions are built once, for all the events its
    segment awaits: an awaited event's literal comes first and drops the
    path's own literal on it, and a path that requires the event absent
    is infeasible for it.
    """
    inputs = [EventDef(decl.name, decl.width) for decl in module.inputs]
    outputs = [EventDef(decl.name, decl.width) for decl in module.outputs]
    events: Dict[str, EventDef] = {event.name: event for event in inputs}
    events.update((event.name, event) for event in outputs)
    state_vars: Dict[str, StateVar] = {}
    for decl in module.variables:
        if decl.name == PC_VAR:
            raise CompileError(f"variable name {PC_VAR} is reserved")
        state_vars[decl.name] = StateVar(
            decl.name, num_values=decl.high + 1, init=decl.init
        )
    variables = list(state_vars.values())

    # Split the loop body at top-level awaits.
    segments: List[Tuple[Await, List[Stmt]]] = []
    current_await: Optional[Await] = None
    current_body: List[Stmt] = []
    leading: List[Stmt] = []
    for stmt in module.body:
        if isinstance(stmt, Await):
            if current_await is not None:
                segments.append((current_await, current_body))
            else:
                leading = current_body
            current_await = stmt
            current_body = []
        else:
            current_body.append(stmt)
    if current_await is None:
        raise CompileError(f"module {module.name}: the loop needs an await")
    segments.append((current_await, current_body))
    if leading:
        # The loop is cyclic: code before the first await runs at the end
        # of the last segment.
        await_stmt, body = segments[-1]
        segments[-1] = (await_stmt, body + leading)

    head: List[TestLiteral] = []
    tail: List[Action] = []
    multi = len(segments) > 1
    if multi:
        pc = StateVar(PC_VAR, num_values=max(2, len(segments)))
        variables.append(pc)
    parts = _Parts(events, state_vars)
    transitions: List[Transition] = []

    for index, (await_stmt, body) in enumerate(segments):
        paths = _enumerate_paths(body, _Path([], {}, []))
        guards: List[Optional[tuple]] = [None] * len(paths)
        actions: List[Optional[List[Action]]] = [None] * len(paths)
        if multi:
            head = [TestLiteral(ExprTest(BinOp("==", Var(PC_VAR), Const(index))))]
            tail = [AssignState(pc, Const((index + 1) % len(segments)))]
        source = f"{module.name}.rsl:{await_stmt.line}"
        for event_name in await_stmt.events:
            if event_name not in events:
                raise CompileError(
                    f"line {await_stmt.line}: await of undeclared event "
                    f"{event_name}"
                )
            awaited = parts.presence(event_name)
            lead = head + [parts.literals(awaited)[True]]
            for n, path in enumerate(paths):
                if guards[n] is None:
                    guards[n] = parts.guard(path)
                path_literals, seen, stop = guards[n]
                first = seen.get(id(awaited))
                if first is False:
                    continue  # the path requires the awaited event absent
                if stop is _INFEASIBLE:
                    continue  # contradictory path
                if stop is not None:
                    raise CompileError(stop)
                if first:
                    path_literals = [
                        lit for lit in path_literals if lit.test is not awaited
                    ]
                if actions[n] is None:
                    actions[n] = parts.actions(path) + tail
                transitions.append(
                    Transition(lead + path_literals, actions[n], source=source)
                )
    return Cfsm(module.name, inputs, outputs, variables, transitions)


def compile_source(source: str) -> Cfsm:
    """Parse and compile one RSL module."""
    return compile_module(parse_module(source))
