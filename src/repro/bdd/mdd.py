"""Multi-valued variables encoded over binary BDD variables.

CFSM state variables and test outcomes range over finite domains that are not
necessarily binary (Sec. III-B1 speaks of "Boolean (or symbolic multivalued)"
variables).  We encode a domain of size ``n`` onto ``ceil(log2 n)`` binary
BDD variables, most-significant bit first, and keep the bits together as a
sifting group so reordering treats the multi-valued variable atomically.

A value is its own code over the bits, so a set of values is built from
its codes bottom-up, one ``_mk`` per distinct code prefix, never as an
OR of one cube per value (the BDD set encodings of Bulancea, Nilsson and
Ozay build value sets from their encodings the same way).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .manager import BddManager, Function

__all__ = ["MultiValuedVar"]


def _bits_for(n: int) -> int:
    if n < 2:
        return 1
    return (n - 1).bit_length()


class MultiValuedVar:
    """A finite-domain variable encoded on a group of binary BDD variables."""

    def __init__(self, manager: BddManager, name: str, num_values: int):
        if num_values < 2:
            raise ValueError(f"domain of {name!r} needs at least 2 values")
        self.manager = manager
        self.name = name
        self.num_values = num_values
        self.num_bits = _bits_for(num_values)
        # MSB first so a top-down BDD walk reads the value high bit first.
        self.bits: List[int] = [
            manager.new_var(f"{name}.b{self.num_bits - 1 - i}")
            for i in range(self.num_bits)
        ]

    def __repr__(self) -> str:
        return f"<MultiValuedVar {self.name} |D|={self.num_values}>"

    def encode(self, value: int) -> Dict[int, bool]:
        """Bit assignment (BDD var -> bool) for ``value``."""
        if not 0 <= value < self.num_values:
            raise ValueError(f"{value} outside domain of {self.name}")
        assignment = {}
        for i, var in enumerate(self.bits):
            shift = self.num_bits - 1 - i
            assignment[var] = bool((value >> shift) & 1)
        return assignment

    def decode(self, assignment: Dict[int, bool]) -> int:
        """Value denoted by ``assignment`` (missing bits read as 0)."""
        value = 0
        for i, var in enumerate(self.bits):
            shift = self.num_bits - 1 - i
            if assignment.get(var, False):
                value |= 1 << shift
        return value

    def equals(self, value: int) -> Function:
        """Characteristic function of ``self == value``."""
        return self.manager.cube(self.encode(value))

    def in_set(self, values: Iterable[int]) -> Function:
        """Characteristic function of ``self in values``.

        A value is its own code over :attr:`bits`, so the set is built
        bottom-up from the codes by :meth:`BddManager.assignments`: one
        ``_mk`` per distinct code prefix, no ITE.
        """
        values = list(values)
        for value in values:
            if not 0 <= value < self.num_values:
                raise ValueError(f"{value} outside domain of {self.name}")
        return self.manager.assignments(self.bits, values)

    def valid(self) -> Function:
        """Characteristic function of the encodable, in-domain codes."""
        return self.manager.assignments(self.bits, range(self.num_values))

    def value_of(self, assignment: Dict[int, bool]) -> Optional[int]:
        """Like :meth:`decode` but ``None`` when the code is out of domain."""
        value = self.decode(assignment)
        return value if value < self.num_values else None

    def group(self) -> List[int]:
        """The bit variables, for use as a sifting group."""
        return list(self.bits)
