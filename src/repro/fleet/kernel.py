"""Compile synthesized reactive functions into bit-sliced reaction kernels.

One :class:`CompiledMachine` holds a straight-line tape of plane ops
evaluating a whole CFSM reaction for every fleet lane at once:

* guard/action selection comes from the **condition BDDs** of
  :func:`repro.synthesis.reactive.synthesize_reactive` — each BDD node
  becomes one lane-mux (``select``) over its variable's plane, shared
  across all conditions through the traversal memo, exactly mirroring the
  s-graph evaluation the paper generates code from;
* expression tests and action right-hand sides go through the bit-sliced
  ALU (:mod:`repro.fleet.alu`), replicating
  :func:`repro.cfsm.semantics.react` arithmetic bit-for-bit (state writes
  wrap with Python's floor-mod, safe division, &c.);
* ``check=True`` synthesis proves enabled actions never conflict inside
  the care set, so the kernel needs no runtime conflict planes — the same
  argument that lets the generated C of Sec. V skip the check.

A compile builds only what the kernel reads, once.  Synthesis builds
the care set, the folded tests and guards (value sets built bottom-up by
``_mk``, no ITE) and the conditions; the specification and χ are built
only when read, which a compile never does.  Each machine lowers every
distinct subexpression once (one ``build_expr`` memo per machine), and
nothing is kept from one :func:`compile_network` call to the next.

The per-lane scheduling (who reacts this step) lives in
:mod:`repro.fleet.sim`; a kernel only sees a ``RUN`` plane masking the
lanes where its machine was picked.  Lanes outside ``RUN`` pass state,
flags and buffers through unchanged, which is what lets one fleet step
run every machine's kernel over disjoint lane sets.

Compiled objects are picklable (the tape plus layout metadata, no BDD
manager).  The native shard run (:mod:`repro.fleet.native`) interprets
the tape; :meth:`repro.fleet.FleetShard.step` calls the Python source
rendered from it, built with one ``exec`` per machine and process.
"""

from __future__ import annotations

import re
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from ..bdd.manager import FALSE_ID, TRUE_ID
from ..cfsm.expr import Expr
from ..cfsm.machine import AssignState, Cfsm, Emit
from ..cfsm.network import Network
from ..synthesis.reactive import synthesize_reactive
from .alu import Alu, BitVec, Circuit, FleetCompileError, ONES, ZERO, build_expr

__all__ = [
    "CompiledMachine",
    "CompiledNetwork",
    "compile_network",
    "compute_event_widths",
]

_MAX_WIDTH_PASSES = 64


def _ident(name: str) -> str:
    return re.sub(r"\W", "_", name)


def _machine_env(
    cfsm: Cfsm,
    state_planes: Dict[str, List[str]],
    buffer_planes: Dict[str, List[str]],
) -> Dict[str, BitVec]:
    """Expression environment: state vars (unsigned) + ``?event`` buffers."""
    env: Dict[str, BitVec] = {}
    for var in cfsm.state_vars:
        env[var.name] = BitVec(state_planes[var.name] + [ZERO])
    for event in cfsm.inputs:
        if event.is_valued:
            env[f"?{event.name}"] = BitVec(buffer_planes[event.name])
    return env


def _state_planes_for(cfsm: Cfsm, prefix: str = "s") -> Dict[str, List[str]]:
    return {
        var.name: [f"{prefix}{vi}_{b}" for b in range(_state_bits(var.num_values))]
        for vi, var in enumerate(cfsm.state_vars)
    }


def _state_bits(num_values: int) -> int:
    return max(1, (num_values - 1).bit_length())


def compute_event_widths(network: Network) -> Dict[str, int]:
    """Signed buffer width (in planes) of every valued event, by fixpoint.

    Environment inputs hold injected values in ``[0, 2**width)`` so they
    start (and stay) at ``width + 1`` planes; machine-produced events start
    at 1 plane and grow to cover every emitting expression, iterated until
    the widths stabilise.  Divergence (a feedback loop that widens its own
    buffer forever) is reported as a :class:`FleetCompileError` rather
    than looping.
    """
    widths: Dict[str, int] = {}
    env_inputs = {e.name for e in network.environment_inputs()}
    for event in network.events():
        if not event.is_valued:
            continue
        widths[event.name] = event.width + 1 if event.name in env_inputs else 1

    for _ in range(_MAX_WIDTH_PASSES):
        changed = False
        for cfsm in network.machines:
            state_planes = _state_planes_for(cfsm)
            buffer_planes = {
                e.name: [f"v_{_ident(e.name)}_{b}" for b in range(widths[e.name])]
                for e in cfsm.inputs
                if e.is_valued
            }
            alu = Alu(Circuit())
            env = _machine_env(cfsm, state_planes, buffer_planes)
            memo: Dict[Expr, BitVec] = {}
            for action in cfsm.all_actions():
                if isinstance(action, Emit) and action.value is not None:
                    width = build_expr(alu, action.value, env, memo).width
                    if width > widths[action.event.name]:
                        widths[action.event.name] = width
                        changed = True
        if not changed:
            return widths
    raise FleetCompileError(
        f"network {network.name}: event buffer widths do not converge"
    )


def _prune(
    ops: List[Tuple[str, str, str, str]], roots: List[str]
) -> List[Tuple[str, str, str, str]]:
    """Drop straight-line assignments whose results never reach ``roots``."""
    needed = set(roots)
    kept = []
    for op in reversed(ops):
        if op[0] in needed:
            kept.append(op)
            needed.add(op[1])
            needed.add(op[3])
    kept.reverse()
    return kept


#: Tape op codes, in the order ``_fleet_run.c`` decodes them.
_OPERATORS = ("&", "|", "^")
_OPCODE = {op: code for code, op in enumerate(_OPERATORS)}


class CompiledMachine:
    """Bit-sliced reaction kernel of one CFSM (picklable, manager-free).

    The kernel is stored as a *tape*, an ``array("i")``: four ints per
    plane op, ``(opcode, temp, a, b)``, then one operand per result.  An
    operand ``i >= 0`` is the result of op ``i``; ``~p`` is parameter
    ``p`` of the call layout below.  ``temp`` is the op's name in
    :attr:`source` (``t<temp>``), which is rendered from the tape.

    Call layout (all planes): ``fn(Z, M, RUN, *flags, *state, *buffers)``
    with flags in ``input_events`` order, state planes LSB-first per
    ``state_specs`` entry, buffers LSB-first per ``valued_inputs`` entry
    (``buffer_widths`` planes each).  Returns ``(fired, *state', *flags',
    *emissions)`` where emissions carry, per ``output_events`` entry, an
    emit plane followed by the event's value planes when it is valued.
    """

    def __init__(
        self,
        name: str,
        tape: "array[int]",
        input_events: List[str],
        valued_inputs: List[str],
        buffer_widths: List[int],
        state_specs: List[Tuple[str, int, int, int]],  # name, |D|, bits, init
        output_events: List[Tuple[str, bool]],  # name, is_valued
        op_count: int,
    ):
        self.name = name
        self.tape = tape
        self.input_events = input_events
        self.valued_inputs = valued_inputs
        self.buffer_widths = buffer_widths
        self.state_specs = state_specs
        self.output_events = output_events
        self.op_count = op_count
        self._fn: Optional[Callable] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_fn"] = None
        return state

    @property
    def fn_name(self) -> str:
        return f"kernel_{_ident(self.name)}"

    def _params(self) -> List[str]:
        """Parameter names of the kernel, in call order."""
        names = ["Z", "M", "RUN"]
        names += [f"f{i}" for i in range(len(self.input_events))]
        names += [
            f"s{vi}_{b}"
            for vi, (_, _, bits, _) in enumerate(self.state_specs)
            for b in range(bits)
        ]
        names += [
            f"v{j}_{b}"
            for j, width in enumerate(self.buffer_widths)
            for b in range(width)
        ]
        return names

    @property
    def source(self) -> str:
        """The kernel as straight-line Python, rendered from the tape."""
        tape, ops, params = self.tape, self.op_count, self._params()

        def operand(x: int) -> str:
            return params[~x] if x < 0 else f"t{tape[4 * x + 1]}"

        lines = [f"def {self.fn_name}({', '.join(params)}):"]
        for i in range(0, 4 * ops, 4):
            lines.append(
                f"    t{tape[i + 1]} = {operand(tape[i + 2])} "
                f"{_OPERATORS[tape[i]]} {operand(tape[i + 3])}"
            )
        lines.append(
            "    return ({},)".format(
                ", ".join(operand(x) for x in tape[4 * ops:])
            )
        )
        return "\n".join(lines)

    @property
    def fn(self) -> Callable:
        if self._fn is None:
            namespace: Dict[str, object] = {}
            exec(self.source, namespace)  # straight-line plane ops only
            self._fn = namespace[self.fn_name]
        return self._fn


class CompiledNetwork:
    """Every machine kernel plus the event wiring needed to route planes."""

    def __init__(self, network: Network):
        self.name = network.name
        self.event_widths = compute_event_widths(network)
        self.machines = [
            _compile_machine(m, self.event_widths) for m in network.machines
        ]
        self.machine_index = {m.name: i for i, m in enumerate(self.machines)}
        self.consumers: Dict[str, List[int]] = {
            e.name: [self.machine_index[m.name] for m in network.consumers(e.name)]
            for e in network.events()
        }
        self.env_inputs: List[Tuple[str, Optional[int]]] = [
            (e.name, e.width) for e in network.environment_inputs()
        ]
        self.env_outputs: List[str] = [
            e.name for e in network.environment_outputs()
        ]

    @property
    def op_count(self) -> int:
        return sum(m.op_count for m in self.machines)


def compile_network(network: Network) -> CompiledNetwork:
    return CompiledNetwork(network)


def _compile_machine(cfsm: Cfsm, event_widths: Dict[str, int]) -> CompiledMachine:
    rf = synthesize_reactive(cfsm, check=True)
    enc = rf.encoding
    circ = Circuit()
    alu = Alu(circ)

    input_events = [e.name for e in cfsm.inputs]
    valued_inputs = [e.name for e in cfsm.inputs if e.is_valued]
    state_specs = [
        (v.name, v.num_values, _state_bits(v.num_values), v.init)
        for v in cfsm.state_vars
    ]
    flag_planes = {name: f"f{i}" for i, name in enumerate(input_events)}
    state_planes = _state_planes_for(cfsm)
    buffer_planes = {
        name: [f"v{j}_{b}" for b in range(event_widths[name])]
        for j, name in enumerate(valued_inputs)
    }
    env = _machine_env(cfsm, state_planes, buffer_planes)
    memo: Dict[Expr, BitVec] = {}

    # Encoding input variable -> plane computing it.
    var_plane: Dict[int, str] = {}
    for name, var in enc.presence_vars.items():
        var_plane[var] = flag_planes[name]
    for name, mvar in enc.state_mvars.items():
        for i, var in enumerate(mvar.bits):
            var_plane[var] = state_planes[name][mvar.num_bits - 1 - i]
    for test in enc.opaque_tests:
        vec = build_expr(alu, test.expr, env, memo)
        var_plane[enc.opaque_var[test.key()]] = alu.nonzero(vec)

    # Condition BDDs -> plane circuits, one select per node, shared
    # across conditions through the regular-edge memo.
    lower = _ConditionPlanes(rf.manager, circ, var_plane)
    fired = circ.and_(lower.plane(rf.fire_condition.id), "RUN")
    selected: Dict[Tuple, str] = {
        action.key(): circ.and_(lower.plane(cond.id), "RUN")
        for action, cond in (
            (a, rf.conditions[a.key()]) for a in enc.actions
        )
    }

    results: List[str] = [fired]

    # New state: each writer folds a lane-select over the previous value;
    # check_consistency proved writers of one variable are never selected
    # together, so fold order is immaterial.
    not_fired = circ.not_(fired)
    for var in cfsm.state_vars:
        bits = _state_bits(var.num_values)
        current = list(state_planes[var.name])
        for action in enc.actions:
            if not (isinstance(action, AssignState) and action.var.name == var.name):
                continue
            rhs = build_expr(alu, action.value, env, memo)
            wrapped = alu.floormod(rhs, var.num_values)
            sel = selected[action.key()]
            current = [
                circ.select(sel, wrapped.plane(b), current[b]) for b in range(bits)
            ]
        results.extend(current)

    # New flags: a fired reaction consumes the whole snapshot.
    for name in input_events:
        results.append(circ.and_(flag_planes[name], not_fired))

    # Emissions, one (emit plane, value planes) group per declared output.
    output_events: List[Tuple[str, bool]] = []
    for event in cfsm.outputs:
        emitters = [
            a
            for a in enc.actions
            if isinstance(a, Emit) and a.event.name == event.name
        ]
        emit = circ.or_all(selected[a.key()] for a in emitters)
        output_events.append((event.name, event.is_valued))
        results.append(emit)
        if event.is_valued:
            width = event_widths[event.name]
            value = BitVec([ZERO] * width)
            for a in emitters:
                vec = build_expr(alu, a.value, env, memo)
                if vec.width > width:
                    raise FleetCompileError(
                        f"{cfsm.name}: emission of {event.name} is "
                        f"{vec.width} planes wide but its buffer has {width}"
                    )
                value = alu.select_vec(selected[a.key()], vec, value)
            results.extend(value.extended(width))

    params = (
        ["Z", "M", "RUN"]
        + [flag_planes[name] for name in input_events]
        + [p for name, _, bits, _ in state_specs for p in state_planes[name]]
        + [p for name in valued_inputs for p in buffer_planes[name]]
    )
    body = _prune(circ.ops, [r for r in results if r not in (ZERO, ONES)])
    operand = {name: ~p for p, name in enumerate(params)}
    tape = array("i")
    for i, (name, a, op, b) in enumerate(body):
        tape.extend((_OPCODE[op], int(name[1:]), operand[a], operand[b]))
        operand[name] = i
    tape.extend(operand[r] for r in results)
    return CompiledMachine(
        name=cfsm.name,
        tape=tape,
        input_events=input_events,
        valued_inputs=valued_inputs,
        buffer_widths=[event_widths[name] for name in valued_inputs],
        state_specs=state_specs,
        output_events=output_events,
        op_count=len(body),
    )


class _ConditionPlanes:
    """Lowers condition BDD edges to planes: one select per BDD node.

    A class rather than a recursive closure, so no reference cycle keeps
    the reactive function's manager alive after the compile.
    """

    def __init__(self, manager, circ: Circuit, var_plane: Dict[int, str]):
        # One read of the node store: lowering builds no BDD.
        self.var, self.lo, self.hi = manager._node_arrays()
        self.circ = circ
        self.var_plane = var_plane
        self.memo: Dict[int, str] = {}

    def plane(self, edge: int) -> str:
        if edge == TRUE_ID:
            return ONES
        if edge == FALSE_ID:
            return ZERO
        regular = edge & ~1
        plane = self.memo.get(regular)
        if plane is None:
            nid = regular >> 1
            plane = self.circ.select(
                self.var_plane[self.var[nid]],
                self.plane(self.hi[nid]),
                self.plane(self.lo[nid]),
            )
            self.memo[regular] = plane
        return self.circ.not_(plane) if edge & 1 else plane
