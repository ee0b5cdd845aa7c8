"""Arithmetic/relational/logical expressions of the extended-FSM data part.

CFSMs extend classical FSMs "with arithmetic and relational operators"
(Sec. II-D).  Expressions appear in two places:

* inside **tests** — boolean predicates on input values and state variables
  that feed the reactive function (e.g. ``a == ?c`` in Fig. 1);
* inside **actions** — right-hand sides of state assignments and values of
  emitted events (e.g. ``a + 1``).

Expressions are side-effect free (Sec. III-B1); division and modulo are
"implemented safely" (a zero divisor yields 0 instead of trapping), matching
the paper's safe-division assumption.

Each operator carries a library-function name (``ADD``, ``EQ``, ...) used by
the cost-estimation model, which prices "about 30 arithmetic, relational and
logical functions" per target (Sec. III-C1).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Expr",
    "Const",
    "Var",
    "EventValue",
    "BinOp",
    "UnOp",
    "Cond",
    "BINARY_OPS",
    "UNARY_OPS",
]


def _safe_div(a: int, b: int) -> int:
    """C-style truncating division; divisor 0 yields 0 (safe division)."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _safe_mod(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _safe_div(a, b) * b


# op symbol -> (library name, precedence, evaluator)
# Precedence values mirror C's binding order exactly: the rendered text is
# parsed by real C compilers (and the difftest C interpreter), so any
# divergence silently reassociates the emitted expression.  E.g. with + and
# << on one level, `(a << b) + c` rendered as `a << b + c` means
# `a << (b + c)` to a C compiler.
BINARY_OPS: Dict[str, Tuple[str, int, Callable[[int, int], int]]] = {
    "*": ("MUL", 12, lambda a, b: a * b),
    "/": ("DIV", 12, _safe_div),
    "%": ("MOD", 12, _safe_mod),
    "+": ("ADD", 11, lambda a, b: a + b),
    "-": ("SUB", 11, lambda a, b: a - b),
    "<<": ("SHL", 10, lambda a, b: a << b if 0 <= b < 64 else a),
    ">>": ("SHR", 10, lambda a, b: a >> b if b >= 0 else a),
    "<": ("LT", 9, lambda a, b: int(a < b)),
    "<=": ("LE", 9, lambda a, b: int(a <= b)),
    ">": ("GT", 9, lambda a, b: int(a > b)),
    ">=": ("GE", 9, lambda a, b: int(a >= b)),
    "==": ("EQ", 8, lambda a, b: int(a == b)),
    "!=": ("NE", 8, lambda a, b: int(a != b)),
    "&": ("BAND", 7, lambda a, b: a & b),
    "|": ("BOR", 5, lambda a, b: a | b),
    "&&": ("AND", 4, lambda a, b: int(bool(a) and bool(b))),
    "||": ("OR", 3, lambda a, b: int(bool(a) or bool(b))),
    "min": ("MIN", 13, min),
    "max": ("MAX", 13, max),
}

UNARY_OPS: Dict[str, Tuple[str, Callable[[int], int]]] = {
    "-": ("NEG", lambda a: -a),
    "!": ("NOT", lambda a: int(not a)),
}

_FUNCTION_STYLE = {"min", "max"}


class CachedKey:
    """An immutable node whose structural identity, :meth:`key`, is
    computed once, by :meth:`_make_key`.

    Expressions, tests and actions are keyed over and over (hashing,
    equality, lookups of BDD variables and kernel planes).  The cached key
    and hash are dropped when a node is pickled, so a pool task is no
    larger for them and no hash crosses a process.
    """

    _key: Optional[Tuple] = None
    _hash: Optional[int] = None

    def key(self) -> Tuple:
        if self._key is None:
            self._key = self._make_key()
        return self._key

    def _make_key(self) -> Tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_key", None)
        state.pop("_hash", None)
        return state


class Expr(CachedKey):
    """Base class of expression nodes."""

    def evaluate(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError

    def render_c(self) -> str:
        raise NotImplementedError

    def _precedence(self) -> int:
        return 100  # leaves and calls never need parentheses

    def variables(self) -> Iterator[str]:
        """Names read by this expression (state vars and ``?event`` values)."""
        raise NotImplementedError

    def operators(self) -> Iterator[str]:
        """Library-function names of every operator occurrence."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render_c()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self.key() == other.key()

    # __eq__ defined here would otherwise reset the inherited __hash__.
    __hash__ = CachedKey.__hash__


class Const(Expr):
    """Integer literal (booleans are 0/1)."""

    def __init__(self, value: int):
        self.value = int(value)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def render_c(self) -> str:
        return str(self.value)

    def variables(self) -> Iterator[str]:
        return iter(())

    def operators(self) -> Iterator[str]:
        return iter(())

    def _make_key(self) -> Tuple:
        return ("const", self.value)


class Var(Expr):
    """Current value of a state variable."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env: Mapping[str, int]) -> int:
        return env[self.name]

    def render_c(self) -> str:
        return self.name

    def variables(self) -> Iterator[str]:
        yield self.name

    def operators(self) -> Iterator[str]:
        return iter(())

    def _make_key(self) -> Tuple:
        return ("var", self.name)


class EventValue(Expr):
    """Value carried by an input event (the ``?c`` of Fig. 1).

    Reads the 1-place value buffer of the event; the buffer holds the most
    recently emitted value, which persists across reactions.
    """

    def __init__(self, event_name: str):
        self.event_name = event_name

    @property
    def env_name(self) -> str:
        return f"?{self.event_name}"

    def evaluate(self, env: Mapping[str, int]) -> int:
        return env[self.env_name]

    def render_c(self) -> str:
        return f"VALUE_{self.event_name}"

    def variables(self) -> Iterator[str]:
        yield self.env_name

    def operators(self) -> Iterator[str]:
        return iter(())

    def _make_key(self) -> Tuple:
        return ("event_value", self.event_name)


class BinOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env: Mapping[str, int]) -> int:
        _, _, fn = BINARY_OPS[self.op]
        return fn(self.left.evaluate(env), self.right.evaluate(env))

    def _precedence(self) -> int:
        return BINARY_OPS[self.op][1]

    def render_c(self) -> str:
        if self.op in _FUNCTION_STYLE:
            return f"{BINARY_OPS[self.op][0]}({self.left.render_c()}, {self.right.render_c()})"
        lhs = self.left.render_c()
        rhs = self.right.render_c()
        if self.left._precedence() < self._precedence():
            lhs = f"({lhs})"
        if self.right._precedence() <= self._precedence():
            rhs = f"({rhs})"
        if self.op in ("/", "%"):
            # Safe division: guarded by the runtime macro.
            name = BINARY_OPS[self.op][0]
            return f"SAFE_{name}({self.left.render_c()}, {self.right.render_c()})"
        return f"{lhs} {self.op} {rhs}"

    def variables(self) -> Iterator[str]:
        yield from self.left.variables()
        yield from self.right.variables()

    def operators(self) -> Iterator[str]:
        yield BINARY_OPS[self.op][0]
        yield from self.left.operators()
        yield from self.right.operators()

    def _make_key(self) -> Tuple:
        return ("bin", self.op, self.left.key(), self.right.key())


class UnOp(Expr):
    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, env: Mapping[str, int]) -> int:
        _, fn = UNARY_OPS[self.op]
        return fn(self.operand.evaluate(env))

    def _precedence(self) -> int:
        return 13  # C unary operators bind above every binary operator

    def render_c(self) -> str:
        inner = self.operand.render_c()
        if self.operand._precedence() < self._precedence():
            inner = f"({inner})"
        return f"{self.op}{inner}"

    def variables(self) -> Iterator[str]:
        yield from self.operand.variables()

    def operators(self) -> Iterator[str]:
        yield UNARY_OPS[self.op][0]
        yield from self.operand.operators()

    def _make_key(self) -> Tuple:
        return ("un", self.op, self.operand.key())


class Cond(Expr):
    """``ITE(c, t, f)`` — used by the outputs-before-support ordering scheme,
    where ASSIGN labels become full expressions (Sec. III-B3c)."""

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr):
        self.cond = cond
        self.then = then
        self.otherwise = otherwise

    def evaluate(self, env: Mapping[str, int]) -> int:
        if self.cond.evaluate(env):
            return self.then.evaluate(env)
        return self.otherwise.evaluate(env)

    def _precedence(self) -> int:
        return 1

    def render_c(self) -> str:
        return (
            f"ITE({self.cond.render_c()}, {self.then.render_c()}, "
            f"{self.otherwise.render_c()})"
        )

    def variables(self) -> Iterator[str]:
        yield from self.cond.variables()
        yield from self.then.variables()
        yield from self.otherwise.variables()

    def operators(self) -> Iterator[str]:
        yield "ITE"
        yield from self.cond.operators()
        yield from self.then.operators()
        yield from self.otherwise.operators()

    def _make_key(self) -> Tuple:
        return ("cond", self.cond.key(), self.then.key(), self.otherwise.key())
