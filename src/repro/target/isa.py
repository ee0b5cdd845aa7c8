"""The portable accumulator ISA the s-graph compiler targets.

The paper's back end emits "portable assembly" C; for cycle-accurate
measurement we also keep a tiny abstract instruction set, close in spirit
to the micro-controller targets of Table I.  One accumulator, named memory
cells, a fired flag and an emission queue — just enough structure that
every statement style generated from a TEST or ASSIGN vertex maps onto a
fixed instruction sequence that the calibration benchmarks can price.

Instructions (``op`` plus operands):

========  =======================================================
FRAME     reaction prologue
RET       reaction epilogue (terminates execution)
LD m      acc := memory[m] (absent cells read 0)
LDI k     acc := k
ST m      memory[m] := acc
DETECT e  acc := 1 if event ``e`` is present else 0 (RTOS call)
BNZ l     branch to label ``l`` when acc != 0
BZ l      branch to label ``l`` when acc == 0
TSTBIT m b  acc := bit ``b`` of memory[m]
JTAB m (l...) d  indexed jump through a table of labels; out-of-range
          indices go to the default label ``d``
JMP l     unconditional branch
EMIT e    queue the pure event ``e``
EMITV e   queue the valued event ``e`` carrying acc
SETF      set the reaction's fired flag
LIB f a b   acc := library routine ``f`` (memory[a], memory[b])
LIB1 f a    acc := library routine ``f`` (memory[a])
LIB3 ITE c t e  acc := memory[t] if memory[c] != 0 else memory[e]
========  =======================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .profiles import ISAProfile

__all__ = ["Program"]


class Program:
    """A linear instruction list with labels, sizes resolved per profile.

    :meth:`resolve` checks every branch target once and keeps the label
    table until the program changes: :meth:`emit` and :meth:`label` drop
    it, and so does a change in the number of instructions (the s-graph
    compiler's epilogue pops one directly).
    """

    #: ``len(instructions)`` when :meth:`resolve` last checked the
    #: targets, None since a change.  Never pickled, like a node's key.
    _resolved_at: Optional[int] = None

    def __init__(self, name: str):
        self.name = name
        self.instructions: List[Tuple[str, Tuple]] = []
        self.labels: Dict[str, int] = {}
        self.labels_at: Dict[int, List[str]] = {}
        self.total_size: Optional[int] = None
        self._pending_labels: List[str] = []

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_resolved_at", None)
        return state

    # -- construction -------------------------------------------------------

    def emit(self, op: str, *args) -> None:
        index = len(self.instructions)
        for name in self._pending_labels:
            self.labels[name] = index
            self.labels_at.setdefault(index, []).append(name)
        self._pending_labels.clear()
        self.instructions.append((op, args))
        self.total_size = None
        self._resolved_at = None

    def label(self, name: str) -> None:
        if name in self.labels or name in self._pending_labels:
            raise ValueError(f"duplicate label {name!r} in program {self.name!r}")
        self._pending_labels.append(name)
        self._resolved_at = None

    # -- resolution ---------------------------------------------------------

    def branch_targets(self, index: int) -> List[str]:
        """Label operands of the instruction at ``index`` (JTAB: table + default)."""
        op, args = self.instructions[index]
        if op in ("BNZ", "BZ", "JMP"):
            return [args[0]]
        if op == "JTAB":
            return list(args[1]) + [args[2]]
        return []

    def resolve(self) -> Dict[str, int]:
        """Label table, with every branch target checked to exist."""
        if self._resolved_at == len(self.instructions):
            return self.labels
        if self._pending_labels:
            # Trailing labels bind past the last instruction (fall off the end).
            index = len(self.instructions)
            for name in self._pending_labels:
                self.labels[name] = index
                self.labels_at.setdefault(index, []).append(name)
            self._pending_labels.clear()
        for index in range(len(self.instructions)):
            for target in self.branch_targets(index):
                if target not in self.labels:
                    raise ValueError(
                        f"undefined label {target!r} in program {self.name!r}"
                    )
        self._resolved_at = len(self.instructions)
        return self.labels

    def assemble(self, profile: ISAProfile) -> int:
        """Resolve labels and compute the program's code size in bytes."""
        self.resolve()
        total = 0
        for op, args in self.instructions:
            total += profile.instr_size(op, args)
        self.total_size = int(total)
        return self.total_size

    # -- inspection ---------------------------------------------------------

    def listing(self) -> str:
        """Human-readable assembly text (one instruction per line)."""
        self.resolve()
        lines = [f"; program {self.name}"]
        for index, (op, args) in enumerate(self.instructions):
            for name in self.labels_at.get(index, ()):
                lines.append(f"{name}:")
            rendered = []
            for arg in args:
                if isinstance(arg, tuple):
                    rendered.append("[" + " ".join(str(a) for a in arg) + "]")
                else:
                    rendered.append(str(arg))
            lines.append(("    " + " ".join([op] + rendered)).rstrip())
        for name in self.labels_at.get(len(self.instructions), ()):
            lines.append(f"{name}:")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<Program {self.name!r} {len(self.instructions)} instrs>"
