"""S-graph -> C translation (Sec. III-B4).

"The final translation of the s-graph into C ... is straightforward due to
the direct correspondence between s-graph node types and basic C primitives.
A TEST node is translated to a string of if or switch statements and an
appropriate number of gotos.  An ASSIGN node is translated to an
assignment."  The emitted code is the paper's "portable assembly": flat,
label/goto structured, one statement per vertex, with RTOS interaction
behind ``DETECT_*``/``EMIT_*`` macros so that any C compiler (and our target
ISA compiler) can consume it.

The generated module is self-contained C99: a state struct, the reaction
function ``<name>_react`` returning whether any transition fired, and a
default macro layer that can be overridden by a real RTOS.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..bdd import FALSE_ID, TRUE_ID, Function
from ..cfsm.machine import AssignState, Emit
from ..sgraph import ASSIGN, BEGIN, SGraph, TEST, SynthesisResult
from ..synthesis.encoding import FireFlag, ReactiveEncoding

__all__ = ["CodeGenerator", "generate_c"]

_RUNTIME_HEADER = """\
/* Generated by repro (POLIS-style software synthesis reproduction).
 * Portable-assembly style: do not edit; regenerate from the CFSM spec.
 */
#include <stdint.h>

#ifndef REPRO_RUNTIME
#define REPRO_RUNTIME
typedef int32_t rt_int;
#define SAFE_DIV(a, b) ((b) == 0 ? 0 : (a) / (b))
#define SAFE_MOD(a, b) ((b) == 0 ? 0 : (a) % (b))
#define ITE(c, t, e)   ((c) ? (t) : (e))
#define MIN(a, b)      ((a) < (b) ? (a) : (b))
#define MAX(a, b)      ((a) > (b) ? (a) : (b))
#endif /* REPRO_RUNTIME */
"""


class CodeGenerator:
    """Emit C for one synthesized CFSM."""

    def __init__(self, result: SynthesisResult):
        self.result = result
        self.sgraph: SGraph = result.sgraph
        self.encoding: ReactiveEncoding = result.reactive.encoding
        self.cfsm = result.reactive.cfsm
        # State variables that must be copied on entry (write-before-read);
        # the rest are read live (the Sec. V-B data-flow extension).
        self.copied = set(result.copied_state_vars())
        self._labels: Dict[int, str] = {}
        self._emitted: Set[int] = set()
        self._lines: List[str] = []

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def generate(self, include_harness: bool = False) -> str:
        parts = [_RUNTIME_HEADER, self._declarations(), self._react_function()]
        if include_harness:
            parts.append(self._harness())
        return "\n".join(parts)

    def _declarations(self) -> str:
        name = self.cfsm.name
        lines = [f"/* ---- CFSM {name} ---- */"]
        for var in self.cfsm.state_vars:
            lines.append(
                f"static rt_int {var.name} = {var.init}; "
                f"/* domain 0..{var.num_values - 1} */"
            )
        # Event flags/buffers are shared between modules when several CFSM
        # translation units are concatenated: declare each exactly once.
        def declare_once(symbol: str) -> None:
            lines.append(
                f"#ifndef DECLARED_{symbol}\n"
                f"#define DECLARED_{symbol}\n"
                f"static rt_int {symbol} = 0;\n"
                f"#endif"
            )

        for event in self.cfsm.inputs:
            declare_once(f"present_{event.name}")
            if event.is_valued:
                declare_once(f"value_{event.name}")
        for event in self.cfsm.outputs:
            declare_once(f"emitted_{event.name}")
            if event.is_valued:
                declare_once(f"emit_value_{event.name}")
        lines.append("")
        # Default RTOS macro layer (overridable before inclusion).
        for event in self.cfsm.inputs:
            lines.append(
                f"#ifndef DETECT_{event.name}\n"
                f"#define DETECT_{event.name}() (present_{event.name})\n"
                f"#endif"
            )
        for event in self.cfsm.outputs:
            if event.is_pure:
                lines.append(
                    f"#ifndef EMIT_{event.name}\n"
                    f"#define EMIT_{event.name}() (emitted_{event.name} = 1)\n"
                    f"#endif"
                )
            else:
                lines.append(
                    f"#ifndef EMIT_{event.name}\n"
                    f"#define EMIT_{event.name}(v) "
                    f"(emit_value_{event.name} = (v), emitted_{event.name} = 1)\n"
                    f"#endif"
                )
        lines.append("")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Expression rendering in the reaction's local context
    # ------------------------------------------------------------------

    def _render_expr(self, expr) -> str:
        """Render an expression over copied-in locals (write-before-read safe)."""
        text = expr.render_c()
        # Event values read the 1-place buffers.
        for event in self.cfsm.inputs:
            if event.is_valued:
                text = text.replace(f"VALUE_{event.name}", f"value_{event.name}")
        # Copied state variables read the entry copies; others read live.
        for var in self.cfsm.state_vars:
            if var.name in self.copied:
                text = _replace_ident(text, var.name, f"L_{var.name}")
        return text

    def _render_input_var(self, var: int) -> str:
        test = self.encoding.test_of_var(var)
        if test is not None:
            from ..cfsm.machine import ExprTest, PresenceTest

            if isinstance(test, PresenceTest):
                return f"DETECT_{test.event.name}()"
            assert isinstance(test, ExprTest)
            return self._render_expr(test.expr)
        owner = self.encoding.state_bit_owner(var)
        assert owner is not None, f"unknown input variable {var}"
        name, bit = owner
        ref = f"L_{name}" if name in self.copied else name
        return f"(({ref} >> {bit}) & 1)"

    def _render_label_fn(self, label: Function) -> str:
        """Render an ASSIGN label BDD as a nested ITE over input tests."""
        nodes = label.manager._node_arrays()
        return self._render_label_edge(label.id, *nodes)

    def _render_label_edge(self, edge: int, var_arr, lo_arr, hi_arr) -> str:
        if edge == TRUE_ID:
            return "1"
        if edge == FALSE_ID:
            return "0"
        nid = edge >> 1
        cond = self._render_input_var(var_arr[nid])
        high = self._render_label_edge(
            hi_arr[nid] ^ (edge & 1), var_arr, lo_arr, hi_arr
        )
        low = self._render_label_edge(
            lo_arr[nid] ^ (edge & 1), var_arr, lo_arr, hi_arr
        )
        return f"ITE({cond}, {high}, {low})"

    # ------------------------------------------------------------------
    # Reaction function body
    # ------------------------------------------------------------------

    def _react_function(self) -> str:
        name = self.cfsm.name
        self._lines = []
        self._labels = {}
        self._emitted = set()
        out = self._lines
        out.append(f"int {name}_react(void)")
        out.append("{")
        out.append("    int fired = 0;")
        for var in self.cfsm.state_vars:
            if var.name in self.copied:
                out.append(f"    rt_int L_{var.name} = {var.name};")
        self._emit_vertex(self.sgraph.vertex(self.sgraph.begin).children[0])
        out.append("_END_:")
        out.append("    return fired;")
        out.append("}")
        return "\n".join(out) + "\n"

    def _label_of(self, vid: int) -> str:
        if vid == self.sgraph.end:
            return "_END_"
        if vid not in self._labels:
            self._labels[vid] = f"_L{vid}_"
        return self._labels[vid]

    def _goto(self, vid: int) -> str:
        return f"    goto {self._label_of(vid)};"

    def _emit_vertex(self, vid: int) -> None:
        """Emit code for a vertex and, by fallthrough, its first child chain."""
        stack = [vid]
        pending: List[int] = []
        while stack or pending:
            if not stack:
                stack.append(pending.pop())
            vid = stack.pop()
            if vid in self._emitted or vid == self.sgraph.end:
                continue
            self._emitted.add(vid)
            vertex = self.sgraph.vertex(vid)
            out = self._lines
            if vid in self._labels or True:
                out.append(f"{self._label_of(vid)}:")
            if vertex.kind == ASSIGN:
                self._emit_assign(vertex, out)
                nxt = vertex.children[0]
                if nxt in self._emitted or nxt == self.sgraph.end:
                    out.append(self._goto(nxt))
                else:
                    stack.append(nxt)
            elif vertex.kind == TEST:
                self._emit_test(vertex, out, stack, pending)
            else:  # pragma: no cover - BEGIN handled by caller
                raise AssertionError(f"unexpected vertex kind {vertex.kind}")

    def _emit_assign(self, vertex, out: List[str]) -> None:
        action = self.encoding.action_of_var(vertex.var)
        # Source-level debugging directive (Sec. III-B4: "the generated C
        # code contains compiler directives that relate directly the object
        # code with the source language files").
        sources = self.encoding.action_sources.get(action.key())
        if sources:
            out.append(f"    /* src: {', '.join(sources)} */")
        label = vertex.label
        guard_open = False
        if label is not None and not label.is_constant:
            out.append(f"    if ({self._render_label_fn(label)}) {{")
            guard_open = True
        elif label is not None and label.is_false:
            out.append("    ; /* no action */")
            return
        indent = "        " if guard_open else "    "
        if isinstance(action, Emit):
            if action.event.is_pure:
                out.append(f"{indent}EMIT_{action.event.name}();")
            else:
                out.append(
                    f"{indent}EMIT_{action.event.name}"
                    f"({self._render_expr(action.value)});"
                )
            out.append(f"{indent}fired = 1;")
        elif isinstance(action, AssignState):
            rhs = self._render_expr(action.value)
            n = action.var.num_values
            from ..cfsm.expr import Const as _Const

            if isinstance(action.value, _Const) and 0 <= action.value.value < n:
                pass  # constant already in domain: no wrap needed
            elif n & (n - 1) == 0:
                rhs = f"({rhs}) & {n - 1}"
            else:
                # Euclidean wrap-around, matching the reference semantics.
                rhs = f"((({rhs}) % {n} + {n}) % {n})"
            out.append(f"{indent}{action.var.name} = {rhs};")
            out.append(f"{indent}fired = 1;")
        elif isinstance(action, FireFlag):
            out.append(f"{indent}fired = 1;")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown action {action!r}")
        if guard_open:
            out.append("    }")

    def _emit_test(self, vertex, out: List[str], stack: List[int], pending: List[int]) -> None:
        collapsed = getattr(vertex, "collapsed_predicates", None)
        if collapsed is not None:
            # If-then-else cascade over the collapsed predicates
            # (the "truth table" flavour of Sec. III-B3d).
            for index, pred in enumerate(collapsed[:-1]):
                out.append(
                    f"    if ({self._render_label_fn(pred)}) "
                    f"goto {self._label_of(vertex.children[index])};"
                )
                pending.append(vertex.children[index])
            out.append(self._goto(vertex.children[-1]))
            stack.append(vertex.children[-1])
            return
        if vertex.is_switch:
            ref = (
                f"L_{vertex.switch_state}"
                if vertex.switch_state in self.copied
                else vertex.switch_state
            )
            out.append(f"    switch ({ref}) {{")
            groups: Dict[int, List[int]] = {}
            for code, child in enumerate(vertex.children):
                if vertex.infeasible[code]:
                    continue
                groups.setdefault(child, []).append(code)
            for child, codes in groups.items():
                for code in codes:
                    out.append(f"    case {code}:")
                out.append(f"        goto {self._label_of(child)};")
                pending.append(child)
            out.append("    default: goto _END_; /* out of domain */")
            out.append("    }")
            return
        cond = self._render_input_var(vertex.var)
        lo, hi = vertex.children
        out.append(f"    if ({cond}) goto {self._label_of(hi)};")
        pending.append(hi)
        if lo in self._emitted or lo == self.sgraph.end:
            out.append(self._goto(lo))
        else:
            stack.append(lo)

    # ------------------------------------------------------------------
    # Optional simulation harness
    # ------------------------------------------------------------------

    def _harness(self) -> str:
        name = self.cfsm.name
        lines = [
            "#ifdef REPRO_HARNESS",
            "#include <stdio.h>",
            "int main(void)",
            "{",
            f"    int fired = {name}_react();",
            '    printf("fired=%d\\n", fired);',
            "    return 0;",
            "}",
            "#endif",
        ]
        return "\n".join(lines) + "\n"


def _replace_ident(text: str, name: str, replacement: str) -> str:
    """Replace whole-identifier occurrences of ``name`` in C text."""
    import re

    return re.sub(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", replacement, text)


def generate_c(result: SynthesisResult, include_harness: bool = False) -> str:
    """Convenience wrapper: C source for one synthesized CFSM."""
    return CodeGenerator(result).generate(include_harness=include_harness)
