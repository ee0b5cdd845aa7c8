"""CFSM <-> JSON serialization for replayable conformance repros.

A shrunk failing case must survive the process that found it: the fuzzer
writes a ``repro-difftest-repro/v1`` document containing the *complete*
CFSM specification (events, state variables, transitions, expressions)
plus the failing input snapshots, and the replayer rebuilds the machine
from that document alone — no seed or generator version dependence.

The expression encoding mirrors :mod:`repro.cfsm.expr` one node class per
``op`` tag; unknown tags fail loudly so stale corpora surface as errors,
not silently-passing replays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..cfsm.events import EventDef
from ..cfsm.expr import BinOp, Cond, Const, EventValue, Expr, UnOp, Var
from ..cfsm.machine import (
    AssignState,
    Cfsm,
    Emit,
    ExprTest,
    PresenceTest,
    StateVar,
    TestLiteral,
    Transition,
)
from ..obs import DIFFTEST_REPRO_FORMAT as REPRO_FORMAT

__all__ = [
    "REPRO_FORMAT",
    "expr_to_dict",
    "expr_from_dict",
    "cfsm_to_spec",
    "cfsm_from_spec",
    "snapshot_to_dict",
    "snapshot_from_dict",
    "case_to_repro_doc",
]

#: One reaction's inputs: (state, present, values).
Snapshot = Tuple[Dict[str, int], set, Dict[str, int]]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def expr_to_dict(expr: Expr) -> Dict[str, Any]:
    if isinstance(expr, Const):
        return {"op": "const", "value": expr.value}
    if isinstance(expr, Var):
        return {"op": "var", "name": expr.name}
    if isinstance(expr, EventValue):
        return {"op": "event_value", "event": expr.event_name}
    if isinstance(expr, BinOp):
        return {
            "op": "bin",
            "fn": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, UnOp):
        return {"op": "un", "fn": expr.op, "operand": expr_to_dict(expr.operand)}
    if isinstance(expr, Cond):
        return {
            "op": "cond",
            "cond": expr_to_dict(expr.cond),
            "then": expr_to_dict(expr.then),
            "otherwise": expr_to_dict(expr.otherwise),
        }
    raise TypeError(f"unserializable expression {expr!r}")


def expr_from_dict(doc: Dict[str, Any]) -> Expr:
    op = doc.get("op")
    if op == "const":
        return Const(int(doc["value"]))
    if op == "var":
        return Var(str(doc["name"]))
    if op == "event_value":
        return EventValue(str(doc["event"]))
    if op == "bin":
        return BinOp(
            doc["fn"], expr_from_dict(doc["left"]), expr_from_dict(doc["right"])
        )
    if op == "un":
        return UnOp(doc["fn"], expr_from_dict(doc["operand"]))
    if op == "cond":
        return Cond(
            expr_from_dict(doc["cond"]),
            expr_from_dict(doc["then"]),
            expr_from_dict(doc["otherwise"]),
        )
    raise ValueError(f"unknown expression op {op!r}")


# ----------------------------------------------------------------------
# Machines
# ----------------------------------------------------------------------


def _event_to_dict(event: EventDef) -> Dict[str, Any]:
    return {"name": event.name, "width": event.width}


def cfsm_to_spec(cfsm: Cfsm) -> Dict[str, Any]:
    """Complete, JSON-ready description of ``cfsm``."""
    transitions: List[Dict[str, Any]] = []
    for t in cfsm.transitions:
        guard = []
        for lit in t.guard:
            if isinstance(lit.test, PresenceTest):
                entry: Dict[str, Any] = {
                    "test": "presence",
                    "event": lit.test.event.name,
                }
            elif isinstance(lit.test, ExprTest):
                entry = {"test": "expr", "expr": expr_to_dict(lit.test.expr)}
            else:  # pragma: no cover - defensive
                raise TypeError(f"unserializable test {lit.test!r}")
            entry["value"] = lit.value
            guard.append(entry)
        actions = []
        for action in t.actions:
            if isinstance(action, Emit):
                actions.append(
                    {
                        "do": "emit",
                        "event": action.event.name,
                        "value": None
                        if action.value is None
                        else expr_to_dict(action.value),
                    }
                )
            elif isinstance(action, AssignState):
                actions.append(
                    {
                        "do": "assign",
                        "var": action.var.name,
                        "value": expr_to_dict(action.value),
                    }
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unserializable action {action!r}")
        transitions.append(
            {"guard": guard, "actions": actions, "source": t.source}
        )
    return {
        "name": cfsm.name,
        "inputs": [_event_to_dict(e) for e in cfsm.inputs],
        "outputs": [_event_to_dict(e) for e in cfsm.outputs],
        "state_vars": [
            {"name": v.name, "num_values": v.num_values, "init": v.init}
            for v in cfsm.state_vars
        ],
        "transitions": transitions,
    }


def cfsm_from_spec(spec: Dict[str, Any]) -> Cfsm:
    """Rebuild a :class:`Cfsm` from :func:`cfsm_to_spec` output."""
    inputs = {
        e["name"]: EventDef(e["name"], e.get("width"))
        for e in spec.get("inputs", [])
    }
    outputs = {
        e["name"]: EventDef(e["name"], e.get("width"))
        for e in spec.get("outputs", [])
    }
    state_vars = {
        v["name"]: StateVar(v["name"], v["num_values"], v.get("init", 0))
        for v in spec.get("state_vars", [])
    }
    transitions: List[Transition] = []
    for t in spec.get("transitions", []):
        guard: List[TestLiteral] = []
        for entry in t.get("guard", []):
            if entry["test"] == "presence":
                test = PresenceTest(inputs[entry["event"]])
            elif entry["test"] == "expr":
                test = ExprTest(expr_from_dict(entry["expr"]))
            else:
                raise ValueError(f"unknown test kind {entry['test']!r}")
            guard.append(TestLiteral(test, entry.get("value", True)))
        actions = []
        for entry in t.get("actions", []):
            if entry["do"] == "emit":
                value = entry.get("value")
                actions.append(
                    Emit(
                        outputs[entry["event"]],
                        None if value is None else expr_from_dict(value),
                    )
                )
            elif entry["do"] == "assign":
                actions.append(
                    AssignState(
                        state_vars[entry["var"]],
                        expr_from_dict(entry["value"]),
                    )
                )
            else:
                raise ValueError(f"unknown action kind {entry['do']!r}")
        transitions.append(
            Transition(guard, actions, source=t.get("source"))
        )
    return Cfsm(
        spec["name"],
        inputs=list(inputs.values()),
        outputs=list(outputs.values()),
        state_vars=list(state_vars.values()),
        transitions=transitions,
    )


# ----------------------------------------------------------------------
# Snapshots and repro documents
# ----------------------------------------------------------------------


def snapshot_to_dict(snapshot: Snapshot) -> Dict[str, Any]:
    state, present, values = snapshot
    return {
        "state": dict(state),
        "present": sorted(present),
        "values": dict(values),
    }


def snapshot_from_dict(doc: Dict[str, Any]) -> Snapshot:
    return (
        {k: int(v) for k, v in doc.get("state", {}).items()},
        set(doc.get("present", [])),
        {k: int(v) for k, v in doc.get("values", {}).items()},
    )


def case_to_repro_doc(
    cfsm: Cfsm,
    snapshots: List[Snapshot],
    failure: Dict[str, Any],
    origin: Dict[str, Any],
) -> Dict[str, Any]:
    """The replay file: spec + failing snapshots + provenance."""
    return {
        "format": REPRO_FORMAT,
        "cfsm": cfsm_to_spec(cfsm),
        "snapshots": [snapshot_to_dict(s) for s in snapshots],
        "failure": failure,
        "origin": origin,
    }
