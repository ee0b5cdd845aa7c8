"""S-graph → target-ISA compiler (the measurement half of Sec. III-C).

The instruction sequences emitted here are, statement for statement, the
sequences the calibration benchmarks price: a TEST vertex becomes the
operand computation plus one conditional branch, a switch vertex the
``LD/ST/JTAB`` triple, an ASSIGN vertex the expression code plus the
``EMIT``/``EMITV``/``ST``+``SETF`` pair, and so on.  That one-to-one
correspondence is what makes the estimator's parameters transfer from the
benchmarks to whole reactions (Table I).

Linearization follows the C generator's depth-first layout: one child of
each vertex is placed immediately after it (fallthrough); every other
reference becomes an explicit branch.

``compile_two_level`` is the ESTEREL-style baseline of Table III: it skips
the s-graph entirely and evaluates every action condition BDD from
scratch, which shares no tests between outputs and is correspondingly much
larger.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..bdd import FALSE_ID, TRUE_ID
from ..cfsm.expr import BINARY_OPS, UNARY_OPS, BinOp, Cond, Const, EventValue, UnOp, Var
from ..cfsm.machine import AssignState, Emit, ExprTest, PresenceTest
from ..sgraph import ASSIGN, TEST
from ..synthesis.encoding import FireFlag
from .isa import Program
from .profiles import ISAProfile

__all__ = ["compile_sgraph", "compile_two_level"]

# A two-level program duplicates every shared test; past this many BDD
# nodes it is no longer worth materializing (the Table III baselines treat
# the failure as "n/a").
_TWO_LEVEL_NODE_LIMIT = 5000


class _Emitter:
    """Shared expression/BDD emission over a :class:`Program`."""

    def __init__(self, program: Program, encoding, copied: Set[str]):
        self.prog = program
        self.encoding = encoding
        self.cfsm = encoding.cfsm
        self.copied = copied
        self._tmp = 0
        self._branch = 0

    # -- names --------------------------------------------------------------

    def _state_ref(self, name: str) -> str:
        return f"L_{name}" if name in self.copied else name

    def _fresh_temp(self) -> str:
        self._tmp += 1
        return f"__t{self._tmp}"

    def prologue(self) -> None:
        self.prog.emit("FRAME")
        for var in self.cfsm.state_vars:
            if var.name in self.copied:
                self.prog.emit("LD", var.name)
                self.prog.emit("ST", f"L_{var.name}")

    def epilogue(self) -> None:
        prog = self.prog
        # The last block often ends with a jump to the epilogue it would
        # fall into anyway; drop it (unless something branches to it).
        if (
            prog.instructions
            and prog.instructions[-1] == ("JMP", ("__end",))
            and len(prog.instructions) - 1 not in prog.labels_at
        ):
            prog.instructions.pop()
        prog.label("__end")
        prog.emit("RET")

    # -- expressions ---------------------------------------------------------
    # Every leaf loads into the accumulator and parks in a temporary slot;
    # every non-root operator result parks as well.  This canonical shape is
    # exactly what expr_time/expr_size price.

    def emit_expr(self, expr) -> None:
        """Compute ``expr`` into the accumulator."""
        if isinstance(expr, Const):
            self.prog.emit("LDI", expr.value)
            self.prog.emit("ST", self._fresh_temp())
        elif isinstance(expr, Var):
            self.prog.emit("LD", self._state_ref(expr.name))
            self.prog.emit("ST", self._fresh_temp())
        elif isinstance(expr, EventValue):
            self.prog.emit("LD", f"V_{expr.event_name}")
            self.prog.emit("ST", self._fresh_temp())
        elif isinstance(expr, BinOp):
            left = self._expr_to_temp(expr.left)
            right = self._expr_to_temp(expr.right)
            self.prog.emit("LIB", BINARY_OPS[expr.op][0], left, right)
        elif isinstance(expr, UnOp):
            operand = self._expr_to_temp(expr.operand)
            self.prog.emit("LIB1", UNARY_OPS[expr.op][0], operand)
        elif isinstance(expr, Cond):
            cond = self._expr_to_temp(expr.cond)
            then = self._expr_to_temp(expr.then)
            otherwise = self._expr_to_temp(expr.otherwise)
            self.prog.emit("LIB3", "ITE", cond, then, otherwise)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown expression {expr!r}")

    def _expr_to_temp(self, expr) -> str:
        self.emit_expr(expr)
        op, args = self.prog.instructions[-1]
        if op == "ST":
            return args[0]  # leaf already parked
        name = self._fresh_temp()
        self.prog.emit("ST", name)
        return name

    # -- input variables -----------------------------------------------------

    def emit_input_var(self, var: int) -> None:
        """Compute the value of one BDD input variable into the accumulator."""
        test = self.encoding.test_of_var(var)
        if test is not None:
            if isinstance(test, PresenceTest):
                self.prog.emit("DETECT", test.event.name)
                return
            assert isinstance(test, ExprTest)
            self.emit_expr(test.expr)
            return
        owner = self.encoding.state_bit_owner(var)
        assert owner is not None, f"unknown input variable {var}"
        name, bit = owner
        self.prog.emit("TSTBIT", self._state_ref(name), bit)

    # -- BDD branching --------------------------------------------------------

    def emit_bdd_branch(self, fn, on_true: str, on_false: str) -> None:
        """Branch to ``on_true``/``on_false`` according to the label BDD."""
        if fn.is_true:
            self.prog.emit("JMP", on_true)
            return
        if fn.is_false:
            self.prog.emit("JMP", on_false)
            return
        self._branch += 1
        prefix = f"__b{self._branch}"
        node_labels: Dict[int, str] = {}

        def lab(edge: int) -> str:
            if edge == TRUE_ID:
                return on_true
            if edge == FALSE_ID:
                return on_false
            return node_labels.setdefault(edge, f"{prefix}_{edge}")

        # One read of the node store, then a walk over plain edges.
        var_arr, lo_arr, hi_arr = fn.manager._node_arrays()
        emitted: Set[int] = set()
        stack = [fn.id]
        first = True
        while stack:
            edge = stack.pop()
            if edge < 2 or edge in emitted:
                continue
            emitted.add(edge)
            if not first:
                self.prog.label(lab(edge))
            first = False
            nid = edge >> 1
            high = hi_arr[nid] ^ (edge & 1)
            low = lo_arr[nid] ^ (edge & 1)
            self.emit_input_var(var_arr[nid])
            self.prog.emit("BNZ", lab(high))
            self.prog.emit("JMP", lab(low))
            stack.append(high)
            stack.append(low)

    # -- actions --------------------------------------------------------------

    def emit_action(self, action) -> None:
        if isinstance(action, Emit):
            if action.event.is_pure:
                self.prog.emit("EMIT", action.event.name)
            else:
                self.emit_expr(action.value)
                self.prog.emit("EMITV", action.event.name)
            self.prog.emit("SETF")
        elif isinstance(action, AssignState):
            self.emit_expr(action.value)
            self._emit_wrap(action)
            self.prog.emit("ST", action.var.name)
            self.prog.emit("SETF")
        elif isinstance(action, FireFlag):
            self.prog.emit("SETF")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown action {action!r}")

    def _emit_wrap(self, action: AssignState) -> None:
        """Wrap the accumulator into the variable's domain (cgen-compatible)."""
        prog = self.prog
        n = action.var.num_values
        if isinstance(action.value, Const) and 0 <= action.value.value < n:
            return
        a, b = self._fresh_temp(), self._fresh_temp()
        if n & (n - 1) == 0:
            prog.emit("ST", a)
            prog.emit("LDI", n - 1)
            prog.emit("ST", b)
            prog.emit("LIB", "BAND", a, b)
            return
        # Euclidean wrap-around: ((x % n) + n) % n, naive leaf-per-use code.
        c = self._fresh_temp()
        prog.emit("ST", a)
        prog.emit("LDI", n)
        prog.emit("ST", b)
        prog.emit("LIB", "MOD", a, b)
        prog.emit("ST", a)
        prog.emit("LDI", n)
        prog.emit("ST", c)
        prog.emit("LIB", "ADD", a, c)
        prog.emit("ST", a)
        prog.emit("LIB", "MOD", a, b)


class _SGraphCompiler(_Emitter):
    """Depth-first linearization of an s-graph, mirroring the C generator."""

    def __init__(self, result, profile: ISAProfile):
        super().__init__(
            Program(result.reactive.cfsm.name),
            result.reactive.encoding,
            set(result.copied_state_vars()),
        )
        self.sgraph = result.sgraph
        self.profile = profile
        self._emitted_vertices: Set[int] = set()
        self._labelled: Set[int] = set()

    def compile(self) -> Program:
        self.prologue()
        begin = self.sgraph.vertex(self.sgraph.begin)
        self._emit_vertex(begin.children[0])
        self.epilogue()
        self.prog.assemble(self.profile)
        return self.prog

    def _label_of(self, vid: int) -> str:
        if vid == self.sgraph.end:
            return "__end"
        return f"_L{vid}"

    def _emit_vertex(self, vid: int) -> None:
        stack = [vid]
        pending: List[int] = []
        while stack or pending:
            if not stack:
                stack.append(pending.pop())
            vid = stack.pop()
            if vid in self._emitted_vertices or vid == self.sgraph.end:
                continue
            self._emitted_vertices.add(vid)
            vertex = self.sgraph.vertex(vid)
            self.prog.label(self._label_of(vid))
            if vertex.kind == ASSIGN:
                self._emit_assign(vertex)
                nxt = vertex.children[0]
                if nxt in self._emitted_vertices or nxt == self.sgraph.end:
                    self.prog.emit("JMP", self._label_of(nxt))
                else:
                    stack.append(nxt)
            elif vertex.kind == TEST:
                self._emit_test(vertex, stack, pending)
            else:  # pragma: no cover - BEGIN handled by caller
                raise AssertionError(f"unexpected vertex kind {vertex.kind}")

    def _emit_assign(self, vertex) -> None:
        action = self.encoding.action_of_var(vertex.var)
        label = vertex.label
        if label is not None and label.is_false:
            return
        if label is not None and not label.is_constant:
            self._branch += 1
            act = f"__act{self._branch}"
            skip = f"__skip{self._branch}"
            self.emit_bdd_branch(label, act, skip)
            self.prog.label(act)
            self.emit_action(action)
            self.prog.label(skip)
        else:
            self.emit_action(action)

    def _emit_test(self, vertex, stack: List[int], pending: List[int]) -> None:
        collapsed = getattr(vertex, "collapsed_predicates", None)
        if collapsed is not None:
            # If-cascade over the collapsed predicates: the first true
            # predicate selects its branch.
            for index, pred in enumerate(collapsed[:-1]):
                child = vertex.children[index]
                if pred.is_false:
                    continue
                if pred.is_true:
                    self.prog.emit("JMP", self._label_of(child))
                else:
                    self._branch += 1
                    cont = f"__skip{self._branch}"
                    self.emit_bdd_branch(pred, self._label_of(child), cont)
                    self.prog.label(cont)
                pending.append(child)
            last = vertex.children[-1]
            self.prog.emit("JMP", self._label_of(last))
            stack.append(last)
            return
        if vertex.is_switch:
            ref = self._state_ref(vertex.switch_state)
            self.prog.emit("LD", ref)
            self.prog.emit("ST", "__sw")
            table = []
            for code, child in enumerate(vertex.children):
                if vertex.infeasible[code]:
                    table.append("__end")
                else:
                    table.append(self._label_of(child))
                    pending.append(child)
            self.prog.emit("JTAB", "__sw", tuple(table), "__end")
            return
        lo, hi = vertex.children
        self.emit_input_var(vertex.var)
        self.prog.emit("BNZ", self._label_of(hi))
        pending.append(hi)
        if lo in self._emitted_vertices or lo == self.sgraph.end:
            self.prog.emit("JMP", self._label_of(lo))
        else:
            stack.append(lo)


def compile_sgraph(result, profile: ISAProfile) -> Program:
    """Compile a :class:`~repro.sgraph.SynthesisResult` to target code."""
    return _SGraphCompiler(result, profile).compile()


def compile_two_level(rf, profile: ISAProfile) -> Program:
    """ESTEREL-style baseline: evaluate every action condition from scratch.

    Raises :class:`ValueError` when the flattened condition BDDs are too
    large to materialize (reported as "n/a" in the Table III comparisons).
    """
    encoding = rf.encoding
    total_nodes = sum(
        rf.conditions[action.key()].size() for action in encoding.actions
    )
    if total_nodes > _TWO_LEVEL_NODE_LIMIT:
        raise ValueError(
            f"two-level structure too large ({total_nodes} BDD nodes)"
        )
    copied = {var.name for var in encoding.cfsm.state_vars}
    emitter = _Emitter(Program(encoding.cfsm.name), encoding, copied)
    emitter.prologue()
    for action in encoding.actions:
        condition = rf.conditions[action.key()]
        if condition.is_false:
            continue
        if condition.is_true:
            emitter.emit_action(action)
            continue
        emitter._branch += 1
        act = f"__act{emitter._branch}"
        skip = f"__skip{emitter._branch}"
        emitter.emit_bdd_branch(condition, act, skip)
        emitter.prog.label(act)
        emitter.emit_action(action)
        emitter.prog.label(skip)
    emitter.epilogue()
    emitter.prog.assemble(profile)
    return emitter.prog
