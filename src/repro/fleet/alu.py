"""Compile-time bit-sliced arithmetic over lane planes.

This module turns the integer expression language of
:mod:`repro.cfsm.expr` into *straight-line plane assignments* over
bit planes (one plane per bit position, one lane per fleet instance).
Values are two's-complement **bit vectors of planes** (LSB first, last
plane = sign): evaluating ``a + b`` for 4096 instances costs one ripple
of ``&``/``|``/``^`` passes over 4096-lane planes instead of 4096
interpreter dispatches.

Design points:

* :class:`Circuit` emits SSA-style assignments (``t7 = t3 & f2``) with a
  common-subexpression cache and constant folding against the two
  distinguished planes ``Z`` (all lanes 0) and ``M`` (all lanes 1), which
  the generated kernel receives as locals.  Folding keeps constant
  operands free: a :class:`BitVec` built from a literal consists purely
  of ``Z``/``M`` planes, so e.g. multiplication by a constant degrades
  gracefully into shift-adds without a special code path.
* Every operator replicates :data:`repro.cfsm.expr.BINARY_OPS` /
  ``UNARY_OPS`` semantics **exactly** — safe division truncating toward
  zero with ``b == 0 -> 0``, Python's arithmetic ``>>``, the
  ``0 <= b < 64`` guard on ``<<`` — because the fleet simulator is
  cross-checked bit-for-bit against the scalar interpreter.
* Intermediate widths are sized so no operation can overflow (addition
  widens by one, multiplication to ``wa + wb``, comparison through a
  widened subtraction).  Widths beyond :data:`MAX_WIDTH` raise
  :class:`FleetCompileError` rather than silently wrapping.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..cfsm.expr import (
    BINARY_OPS,
    UNARY_OPS,
    BinOp,
    Cond,
    Const,
    EventValue,
    Expr,
    UnOp,
    Var,
)

__all__ = [
    "FleetCompileError",
    "Circuit",
    "BitVec",
    "Alu",
    "build_expr",
    "MAX_WIDTH",
]

MAX_WIDTH = 128

ZERO = "Z"  # the all-zeroes plane, in scope in every generated kernel
ONES = "M"  # the all-ones (lane-mask) plane


class FleetCompileError(Exception):
    """A machine cannot be compiled to a bit-sliced kernel."""


class Circuit:
    """Accumulates straight-line plane assignments with CSE + folding.

    Plane handles are plain strings: ``Z``, ``M``, an input name, or a
    temp (``t12``).  The three primitive emitters fold identities so
    constant planes never reach the generated source.  Each assignment is
    kept as ``(name, a, op, b)``; :attr:`lines` renders them as source.
    """

    def __init__(self, prefix: str = "t"):
        self.prefix = prefix
        self.ops: List[Tuple[str, str, str, str]] = []
        self._cache: Dict[Tuple[str, str, str], str] = {}
        self._counter = 0

    @property
    def op_count(self) -> int:
        return len(self.ops)

    @property
    def lines(self) -> List[str]:
        return [f"{name} = {a} {op} {b}" for name, a, op, b in self.ops]

    def _emit(self, op: str, a: str, b: str) -> str:
        key = (op, a, b)
        name = self._cache.get(key)
        if name is None:
            name = f"{self.prefix}{self._counter}"
            self._counter += 1
            self.ops.append((name, a, op, b))
            self._cache[key] = name
        return name

    # -- primitive plane operators -----------------------------------------

    def and_(self, a: str, b: str) -> str:
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONES:
            return b
        if b == ONES:
            return a
        if a == b:
            return a
        a, b = sorted((a, b))
        return self._emit("&", a, b)

    def or_(self, a: str, b: str) -> str:
        if a == ONES or b == ONES:
            return ONES
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a == b:
            return a
        a, b = sorted((a, b))
        return self._emit("|", a, b)

    def xor_(self, a: str, b: str) -> str:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a == b:
            return ZERO
        a, b = sorted((a, b))
        return self._emit("^", a, b)

    def not_(self, a: str) -> str:
        return self.xor_(a, ONES)

    def select(self, cond: str, then: str, other: str) -> str:
        """Lane mux ``cond ? then : other`` built from the primitives."""
        if cond == ONES or then == other:
            return then
        if cond == ZERO:
            return other
        if other == ZERO:
            return self.and_(cond, then)
        if then == ZERO:
            return self.and_(self.not_(cond), other)
        if then == ONES:
            return self.or_(cond, other)
        if other == ONES:
            return self.or_(self.not_(cond), then)
        return self.xor_(other, self.and_(self.xor_(other, then), cond))

    def or_all(self, planes) -> str:
        acc = ZERO
        for p in planes:
            acc = self.or_(acc, p)
        return acc


class BitVec:
    """A two's-complement lane vector: plane handles LSB first.

    ``planes[-1]`` is the sign plane; reads past the top sign-extend.
    ``const`` is set when every lane provably holds the same value —
    which by construction is exactly when every plane is ``Z``/``M``.
    """

    __slots__ = ("planes", "const")

    def __init__(self, planes: List[str], const: Optional[int] = None):
        if not planes:
            raise ValueError("BitVec needs at least one plane")
        if len(planes) > MAX_WIDTH:
            raise FleetCompileError(
                f"bit-sliced value needs {len(planes)} planes (max {MAX_WIDTH});"
                " expression widths diverge"
            )
        self.planes = list(planes)
        if const is None and all(p in (ZERO, ONES) for p in planes):
            const = sum(1 << i for i, p in enumerate(planes) if p == ONES)
            if planes[-1] == ONES:
                const -= 1 << len(planes)
        self.const = const

    @property
    def width(self) -> int:
        return len(self.planes)

    @property
    def sign(self) -> str:
        return self.planes[-1]

    def plane(self, i: int) -> str:
        return self.planes[i] if i < len(self.planes) else self.planes[-1]

    def extended(self, width: int) -> List[str]:
        return [self.plane(i) for i in range(width)]


def const_vec(value: int) -> BitVec:
    """The literal ``value`` in every lane (minimal signed width)."""
    width = max(1, value.bit_length() + 1 if value >= 0 else (~value).bit_length() + 1)
    planes = [ONES if (value >> i) & 1 else ZERO for i in range(width)]
    return BitVec(planes, const=value)


class Alu:
    """Expression operators over :class:`BitVec` lane vectors."""

    def __init__(self, circuit: Circuit):
        self.c = circuit

    # -- generic helpers ----------------------------------------------------

    def const_vec(self, value: int) -> BitVec:
        return const_vec(value)

    def nonzero(self, a: BitVec) -> str:
        """Plane set in lanes where the value is non-zero (any bit set)."""
        return self.c.or_all(a.planes)

    def _bool(self, plane: str) -> BitVec:
        return BitVec([plane, ZERO])

    def select_vec(self, cond: str, then: BitVec, other: BitVec) -> BitVec:
        width = max(then.width, other.width)
        return BitVec(
            [self.c.select(cond, then.plane(i), other.plane(i)) for i in range(width)]
        )

    def truncate(self, a: BitVec, width: int) -> BitVec:
        """Drop high planes; only valid when the value is known to fit."""
        return BitVec(a.planes[:width]) if a.width > width else a

    # -- addition / subtraction --------------------------------------------

    def _ripple(
        self, a: BitVec, b: BitVec, width: int, carry: str, invert_b: bool
    ) -> BitVec:
        c = self.c
        planes = []
        for i in range(width):
            ai = a.plane(i)
            bi = c.not_(b.plane(i)) if invert_b else b.plane(i)
            axb = c.xor_(ai, bi)
            planes.append(c.xor_(axb, carry))
            if i + 1 < width:
                carry = c.or_(c.and_(ai, bi), c.and_(carry, axb))
        return BitVec(planes)

    def add(self, a: BitVec, b: BitVec) -> BitVec:
        return self._ripple(a, b, max(a.width, b.width) + 1, ZERO, False)

    def sub(self, a: BitVec, b: BitVec) -> BitVec:
        return self._ripple(a, b, max(a.width, b.width) + 1, ONES, True)

    def add_trunc(self, a: BitVec, b: BitVec, width: int) -> BitVec:
        return self._ripple(a, b, width, ZERO, False)

    def neg(self, a: BitVec) -> BitVec:
        if a.const is not None:
            return const_vec(-a.const)
        return self.sub(const_vec(0), a)

    # -- multiplication -----------------------------------------------------

    def mul(self, a: BitVec, b: BitVec) -> BitVec:
        if a.const is not None and b.const is None:
            a, b = b, a
        width = a.width + b.width
        if width > MAX_WIDTH:
            raise FleetCompileError(
                f"product width {width} exceeds {MAX_WIDTH} planes"
            )
        # Schoolbook shift-add mod 2**width; sign extension of both
        # operands to the full width makes two's-complement products come
        # out right without sign-specific partials.  Constant multiplier
        # planes are Z/M, so folding reduces this to shift-adds over the
        # set bits — no special case needed.
        acc = BitVec([ZERO] * width)
        for i in range(width):
            bi = b.plane(i)
            if bi == ZERO:
                continue
            partial = BitVec(
                [ZERO] * i + [self.c.and_(a.plane(k), bi) for k in range(width - i)]
            )
            acc = self.add_trunc(acc, partial, width)
        return acc

    # -- comparisons --------------------------------------------------------

    def lt(self, a: BitVec, b: BitVec) -> str:
        """Plane of ``a < b`` (signed; widened subtraction cannot overflow)."""
        return self.sub(a, b).sign

    def ne(self, a: BitVec, b: BitVec) -> str:
        width = max(a.width, b.width)
        return self.c.or_all(
            self.c.xor_(a.plane(i), b.plane(i)) for i in range(width)
        )

    # -- division / modulo --------------------------------------------------

    def _abs_u(self, a: BitVec) -> BitVec:
        """``|a|`` as an *unsigned* vector of the same width."""
        negv = self.neg(a)
        return BitVec(
            [self.c.select(a.sign, negv.plane(i), a.plane(i)) for i in range(a.width)]
        )

    def _divmod_u(self, ua: BitVec, ub: BitVec) -> Tuple[BitVec, BitVec]:
        """Restoring division of unsigned vectors: ``(ua // ub, ua % ub)``.

        Lanes where ``ub == 0`` produce garbage; callers mask them with
        the safe-division guard.
        """
        c = self.c
        wb = ub.width
        rem = [ZERO] * (wb + 1)
        quot = [ZERO] * ua.width
        ub_ext = BitVec(ub.planes + [ZERO, ZERO])
        for i in reversed(range(ua.width)):
            rem = [ua.planes[i]] + rem[:wb]
            diff = self._ripple(BitVec(rem + [ZERO]), ub_ext, wb + 2, ONES, True)
            geq = c.not_(diff.sign)
            quot[i] = geq
            rem = [c.select(geq, diff.plane(k), rem[k]) for k in range(wb + 1)]
        return BitVec(quot + [ZERO]), BitVec(rem[:wb] + [ZERO])

    def div(self, a: BitVec, b: BitVec) -> BitVec:
        if b.const is not None:
            k = abs(b.const)
            if k != 0 and k & (k - 1) == 0:
                q = self._div_pow2(a, k.bit_length() - 1)
                return self.neg(q) if b.const < 0 else q
            if b.const == 0:
                return const_vec(0)
        ua, ub = self._abs_u(a), self._abs_u(b)
        q, _ = self._divmod_u(ua, ub)
        qneg = self.neg(q)
        signed = self.select_vec(self.c.xor_(a.sign, b.sign), qneg, q)
        return self.select_vec(self.nonzero(b), signed, const_vec(0))

    def _div_pow2(self, a: BitVec, p: int) -> BitVec:
        """Truncating ``a / 2**p``: bias negative lanes by ``2**p - 1``."""
        if p == 0:
            return a
        biased = self.add(a, BitVec([a.sign] * p + [ZERO]))
        planes = biased.planes[p:]
        return BitVec(planes if planes else [biased.sign])

    def mod(self, a: BitVec, b: BitVec) -> BitVec:
        if b.const is not None:
            k = abs(b.const)
            if k != 0 and k & (k - 1) == 0:
                return self._mod_pow2(a, k.bit_length() - 1)
            if b.const == 0:
                return const_vec(0)
        ua, ub = self._abs_u(a), self._abs_u(b)
        _, rem = self._divmod_u(ua, ub)
        rneg = self.neg(rem)
        signed = self.select_vec(a.sign, rneg, rem)
        return self.select_vec(self.nonzero(b), signed, const_vec(0))

    def _mod_pow2(self, a: BitVec, p: int) -> BitVec:
        """Truncating ``a % 2**p`` (sign follows the dividend)."""
        if p == 0:
            return const_vec(0)
        low = [a.plane(i) for i in range(p)]
        # Low bits give the floor-mod; a negative dividend with a non-zero
        # floor-mod owes a correction of -2**p, which is exactly "set the
        # sign plane" at width p + 1.
        fix = self.c.and_(a.sign, self.c.or_all(low))
        return BitVec(low + [fix])

    def floormod(self, a: BitVec, k: int) -> BitVec:
        """Python's ``a % k`` for a constant ``k >= 1`` (state-var wrap)."""
        if k & (k - 1) == 0:
            p = k.bit_length() - 1
            if p == 0:
                return const_vec(0)
            return BitVec([a.plane(i) for i in range(p)] + [ZERO])
        t = self.mod(a, const_vec(k))
        fixed = self.add(t, const_vec(k))
        result = self.select_vec(t.sign, fixed, t)
        return self.truncate(result, (k - 1).bit_length() + 1)

    # -- shifts -------------------------------------------------------------

    def shl(self, a: BitVec, b: BitVec) -> BitVec:
        if b.const is not None:
            if 0 <= b.const < 64:
                return BitVec([ZERO] * b.const + a.planes)
            return a
        # Barrel shifter over the low bits of b; lanes where b is out of
        # the semantic range [0, 64) keep a unchanged.
        max_bits = min(6, b.width - 1)
        max_shift = (1 << max_bits) - 1
        cur = a
        for j in range(max_bits):
            shifted = BitVec([ZERO] * (1 << j) + cur.planes)
            cur = self.select_vec(b.plane(j), shifted, cur)
        cur = self.truncate(cur, a.width + max_shift)
        in_range = self.c.and_(
            self.c.not_(b.sign), self.c.not_(self.lt(const_vec(63), b))
        )
        return self.select_vec(in_range, cur, a)

    def _shr_const(self, a: BitVec, count: int) -> BitVec:
        planes = a.planes[count:]
        return BitVec(planes if planes else [a.sign])

    def shr(self, a: BitVec, b: BitVec) -> BitVec:
        if b.const is not None:
            return self._shr_const(a, b.const) if b.const >= 0 else a
        cur = a
        covered = 1  # shifts >= a.width all collapse to the sign fill
        for j in range(b.width - 1):
            if covered >= a.width:
                rest = self.c.or_all(b.planes[j : b.width - 1])
                cur = self.select_vec(rest, BitVec([cur.sign]), cur)
                break
            shifted = self._shr_const(cur, 1 << j)
            cur = self.select_vec(b.plane(j), shifted, cur)
            covered += 1 << j
        return self.select_vec(b.sign, a, cur)

    # -- operator dispatch --------------------------------------------------

    def binop(self, op: str, a: BitVec, b: BitVec) -> BitVec:
        if a.const is not None and b.const is not None:
            return const_vec(BINARY_OPS[op][2](a.const, b.const))
        if op == "+":
            return self.add(a, b)
        if op == "-":
            return self.sub(a, b)
        if op == "*":
            return self.mul(a, b)
        if op == "/":
            return self.div(a, b)
        if op == "%":
            return self.mod(a, b)
        if op == "<<":
            return self.shl(a, b)
        if op == ">>":
            return self.shr(a, b)
        if op == "<":
            return self._bool(self.lt(a, b))
        if op == ">":
            return self._bool(self.lt(b, a))
        if op == "<=":
            return self._bool(self.c.not_(self.lt(b, a)))
        if op == ">=":
            return self._bool(self.c.not_(self.lt(a, b)))
        if op == "==":
            return self._bool(self.c.not_(self.ne(a, b)))
        if op == "!=":
            return self._bool(self.ne(a, b))
        if op == "&":
            width = max(a.width, b.width)
            return BitVec(
                [self.c.and_(a.plane(i), b.plane(i)) for i in range(width)]
            )
        if op == "|":
            width = max(a.width, b.width)
            return BitVec(
                [self.c.or_(a.plane(i), b.plane(i)) for i in range(width)]
            )
        if op == "&&":
            return self._bool(self.c.and_(self.nonzero(a), self.nonzero(b)))
        if op == "||":
            return self._bool(self.c.or_(self.nonzero(a), self.nonzero(b)))
        if op == "min":
            return self.select_vec(self.lt(a, b), a, b)
        if op == "max":
            return self.select_vec(self.lt(a, b), b, a)
        raise FleetCompileError(f"unsupported binary operator {op!r}")

    def unop(self, op: str, a: BitVec) -> BitVec:
        if a.const is not None:
            return const_vec(UNARY_OPS[op][1](a.const))
        if op == "-":
            return self.neg(a)
        if op == "!":
            return self._bool(self.c.not_(self.nonzero(a)))
        raise FleetCompileError(f"unsupported unary operator {op!r}")


def build_expr(
    alu: Alu,
    expr: Expr,
    env: Mapping[str, BitVec],
    memo: Optional[Dict[Expr, BitVec]] = None,
) -> BitVec:
    """Lower a CFSM expression; ``env`` maps ``name`` / ``?event`` to vectors.

    ``memo`` (one dict per circuit and environment; a fresh one when
    omitted) holds every subexpression already lowered, so each distinct
    one is lowered once.  The circuit would emit no op for a repeat
    anyway; the memo saves the Python work of finding that out.
    """
    if isinstance(expr, Const):
        return const_vec(expr.value)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, EventValue):
        return env[expr.env_name]
    if memo is None:
        memo = {}
    vec = memo.get(expr)
    if vec is not None:
        return vec
    if isinstance(expr, BinOp):
        vec = alu.binop(
            expr.op,
            build_expr(alu, expr.left, env, memo),
            build_expr(alu, expr.right, env, memo),
        )
    elif isinstance(expr, UnOp):
        vec = alu.unop(expr.op, build_expr(alu, expr.operand, env, memo))
    elif isinstance(expr, Cond):
        cond = build_expr(alu, expr.cond, env, memo)
        if cond.const is not None:
            branch = expr.then if cond.const else expr.otherwise
            vec = build_expr(alu, branch, env, memo)
        else:
            vec = alu.select_vec(
                alu.nonzero(cond),
                build_expr(alu, expr.then, env, memo),
                build_expr(alu, expr.otherwise, env, memo),
            )
    else:
        raise FleetCompileError(
            f"cannot bit-slice expression node {type(expr).__name__}"
        )
    memo[expr] = vec
    return vec
