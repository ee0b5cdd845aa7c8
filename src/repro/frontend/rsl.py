"""RSL — a small Esterel-flavoured reactive module language.

The paper's specifications enter as Esterel modules (Fig. 1); RSL is the
reproduction's equivalent front end.  One module compiles to one CFSM.
Example (the paper's ``simple``)::

    module simple:
      input c : int(8);
      output y;
      var a : 0..255 = 0;
      loop
        await c;
        if a == ?c then
          a := 0; emit y;
        else
          a := a + 1;
        end
      end
    end

Grammar (informal)::

    module   := "module" IDENT ":" decl* "loop" stmt* "end" "end"
    decl     := "input" IDENT [":" "int" "(" NUM ")"] ";"
              | "output" IDENT [":" "int" "(" NUM ")"] ";"
              | "var" IDENT ":" NUM ".." NUM "=" NUM ";"
    stmt     := "await" IDENT ("or" IDENT)* ";"
              | IDENT ":=" expr ";"
              | "emit" IDENT ["(" expr ")"] ";"
              | "if" expr "then" stmt* ("elif" expr "then" stmt*)*
                ["else" stmt*] "end"
    expr     := full arithmetic/relational/boolean expressions,
                with "?IDENT" reading an event value

``await`` statements may appear only at the top level of the loop; the code
between consecutive awaits is straight-line/conditional and becomes the
reaction fired by the awaited events (with sequential assignment semantics
compiled into snapshot-parallel CFSM actions by symbolic substitution).
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from ..cfsm.expr import BinOp, Const, EventValue, Expr, UnOp, Var

__all__ = [
    "RslSyntaxError",
    "Module",
    "InputDecl",
    "OutputDecl",
    "VarDecl",
    "Await",
    "Assign",
    "EmitStmt",
    "If",
    "parse_module",
    "parse_file",
    "MAX_NESTING",
]


class RslSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class InputDecl:
    name: str
    width: Optional[int]  # None = pure


@dataclass
class OutputDecl:
    name: str
    width: Optional[int]


@dataclass
class VarDecl:
    name: str
    low: int
    high: int
    init: int


@dataclass
class Await:
    events: List[str]
    line: int


@dataclass
class Assign:
    name: str
    value: Expr
    line: int


@dataclass
class EmitStmt:
    name: str
    value: Optional[Expr]
    line: int


@dataclass
class If:
    # (condition, body) arms; final arm with condition None is the else.
    arms: List[Tuple[Optional[Expr], List["Stmt"]]]
    line: int


Stmt = Union[Await, Assign, EmitStmt, If]


@dataclass
class Module:
    name: str
    inputs: List[InputDecl]
    outputs: List[OutputDecl]
    variables: List[VarDecl]
    body: List[Stmt]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match per token, on one line: the blanks and the comment before it
# are skipped inside the match, and a line ends in a match with no token.
# Any other character is a token of its own, found by the check below.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*(?:(?:\#|//)[^\n]*)?
    (
        [A-Za-z_][A-Za-z0-9_]*
      | \d+
      | :=|==|!=|<=|>=|\.\.|&&|\|\|
      | \?[A-Za-z_][A-Za-z0-9_]*
      | [-+*/%<>()=:;,?!]
      | .
    )?
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "module", "input", "output", "var", "loop", "await", "emit",
    "if", "then", "elif", "else", "end", "or", "and", "not",
    "true", "false", "int", "present",
}

_NAME_START = frozenset(string.ascii_letters + "_")
#: The one-character tokens: a longer token never holds a character RSL
#: rejects, and neither does one of these.
_SINGLE = frozenset(string.ascii_letters + string.digits + "_-+*/%<>()=:;,?!")


class PresenceExpr(Expr):
    """``present e`` — event-presence condition (guard-level only).

    Usable directly as an ``if`` condition (possibly under ``not``); it
    compiles to a presence literal in the transition guard, not to a data
    expression, so it cannot be nested inside arithmetic.
    """

    def __init__(self, event_name: str):
        self.event_name = event_name

    def evaluate(self, env):  # pragma: no cover - guard-level only
        raise TypeError("present-conditions are resolved at compile time")

    def render_c(self) -> str:
        return f"DETECT_{self.event_name}()"

    def variables(self):
        return iter(())

    def operators(self):
        return iter(())

    def _make_key(self):
        return ("presence-expr", self.event_name)


def _tokenize(source: str) -> Tuple[List[str], List[int]]:
    """The tokens' texts, ending in ``""`` for the end of the source, and
    each one's line.

    A token's kind is read off its text: a keyword is in
    :data:`KEYWORDS`, a name starts with a letter or ``_``, a number with
    a digit, an event value with ``?`` and a name character, and no token
    of another kind has an operator's text.
    """
    texts: List[str] = []
    lines: List[int] = []
    line = 0
    for line, text in enumerate(source.split("\n"), 1):
        found = _TOKEN_RE.findall(text)
        found.pop()  # the match at the end of the line
        if found and not found[-1]:
            found.pop()  # the line's trailing blanks and comment
        texts += found
        lines += [line] * len(found)
    if 1 in map(len, set(texts).difference(_SINGLE)):
        # A one-character token that is no operator, name or digit: a
        # character RSL rejects, or a digit outside ASCII.
        for token, at in zip(texts, lines):
            if len(token) == 1 and token not in _SINGLE and not token.isdecimal():
                raise RslSyntaxError(f"unexpected character {token!r}", at)
    texts.append("")
    lines.append(line)
    return texts, lines


# ---------------------------------------------------------------------------
# Parser (recursive descent, one loop for the binary operators)
# ---------------------------------------------------------------------------

#: Binary operator token -> (operator, precedence).  ``not`` sits at 3,
#: between ``and`` and the comparisons, which do not chain.
_BINARY = {
    "or": ("||", 1), "||": ("||", 1),
    "and": ("&&", 2), "&&": ("&&", 2),
    "==": ("==", 4), "!=": ("!=", 4), "<=": ("<=", 4), ">=": (">=", 4),
    "<": ("<", 4), ">": (">", 4),
    "+": ("+", 5), "-": ("-", 5),
    "*": ("*", 6), "/": ("/", 6), "%": ("%", 6),
}
_NOT = 3
_COMPARISON = 4
_ARM_END = frozenset(("elif", "else", "end"))
_LOOP_END = frozenset(("end",))
#: The deepest nesting of parentheses, unary operators and ``if``s (counted
#: together) a module may have.  Every level costs the parser and the later
#: passes stack frames; past this bound a module is a syntax error rather
#: than a ``RecursionError``.
MAX_NESTING = 200


def _is_name(text: str) -> bool:
    return text[:1] in _NAME_START and text not in KEYWORDS


class _Parser:
    __slots__ = ("texts", "lines", "index", "depth")

    def __init__(self, texts: List[str], lines: List[int]):
        self.texts = texts
        self.lines = lines
        self.index = 0
        self.depth = 0  # nesting levels open; see MAX_NESTING

    # -- token helpers ------------------------------------------------------

    def _error(self, message: str) -> RslSyntaxError:
        text = self.texts[self.index]
        return RslSyntaxError(message + f" (found {text!r})", self.lines[self.index])

    def _expect(self, text: str) -> None:
        """Consume the keyword or operator ``text``."""
        if self.texts[self.index] != text:
            raise self._error(f"expected {text!r}")
        self.index += 1

    def _accept(self, text: str) -> bool:
        if self.texts[self.index] == text:
            self.index += 1
            return True
        return False

    def _name(self) -> str:
        text = self.texts[self.index]
        if not _is_name(text):
            raise self._error("expected 'id'")
        self.index += 1
        return text

    def _nest(self, line: int) -> None:
        """Open one nesting level; the caller closes it on success."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise RslSyntaxError(
                f"nested too deeply (more than {MAX_NESTING} levels)", line
            )

    def _number(self) -> int:
        text = self.texts[self.index]
        if not text[:1].isdecimal():
            raise self._error("expected 'num'")
        self.index += 1
        return int(text)

    # -- grammar -----------------------------------------------------------

    def parse_module(self) -> Module:
        self._expect("module")
        name = self._name()
        self._expect(":")
        inputs: List[InputDecl] = []
        outputs: List[OutputDecl] = []
        variables: List[VarDecl] = []
        texts = self.texts
        while True:
            text = texts[self.index]
            if text == "input":
                self.index += 1
                inputs.append(self._parse_io(InputDecl))
            elif text == "output":
                self.index += 1
                outputs.append(self._parse_io(OutputDecl))
            elif text == "var":
                self.index += 1
                variables.append(self._parse_var())
            else:
                break
        self._expect("loop")
        body = self._parse_stmts(_LOOP_END)
        self._expect("end")
        self._expect("end")
        if texts[self.index]:
            raise self._error("expected 'eof'")
        return Module(name, inputs, outputs, variables, body)

    def _parse_io(self, cls):
        name = self._name()
        width: Optional[int] = None
        if self._accept(":"):
            self._expect("int")
            self._expect("(")
            width = self._number()
            self._expect(")")
        self._expect(";")
        return cls(name, width)

    def _parse_var(self) -> VarDecl:
        name = self._name()
        self._expect(":")
        low = self._number()
        self._expect("..")
        high = self._number()
        init = 0
        if self._accept("="):
            init = self._number()
        self._expect(";")
        if low != 0:
            raise self._error("variable domains must start at 0")
        if high < 1:
            raise self._error("variable domain needs at least two values")
        return VarDecl(name, low, high, init)

    def _parse_stmts(self, terminators: FrozenSet[str]) -> List[Stmt]:
        stmts: List[Stmt] = []
        texts = self.texts
        while texts[self.index] not in terminators:
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> Stmt:
        texts = self.texts
        text = texts[self.index]
        line = self.lines[self.index]
        if text == "await":
            self.index += 1
            events = [self._name()]
            while texts[self.index] == "or":
                self.index += 1
                events.append(self._name())
            self._expect(";")
            return Await(events, line)
        if text == "emit":
            self.index += 1
            name = self._name()
            value: Optional[Expr] = None
            if self._accept("("):
                value = self._parse_expr(1)
                self._expect(")")
            self._expect(";")
            return EmitStmt(name, value, line)
        if text == "if":
            self.index += 1
            self._nest(line)
            stmt = self._parse_if(line)
            self.depth -= 1
            return stmt
        if _is_name(text):
            self.index += 1
            self._expect(":=")
            value = self._parse_expr(1)
            self._expect(";")
            return Assign(text, value, line)
        raise self._error("expected a statement")

    def _parse_if(self, line: int) -> If:
        arms: List[Tuple[Optional[Expr], List[Stmt]]] = []
        cond = self._parse_expr(1)
        self._expect("then")
        arms.append((cond, self._parse_stmts(_ARM_END)))
        while self._accept("elif"):
            cond = self._parse_expr(1)
            self._expect("then")
            arms.append((cond, self._parse_stmts(_ARM_END)))
        if self._accept("else"):
            arms.append((None, self._parse_stmts(_LOOP_END)))
        self._expect("end")
        return If(arms, line)

    # -- expressions (precedence climbing) -------------------------------------

    def _parse_expr(self, level: int) -> Expr:
        """An expression whose binary operators bind at ``level`` or above.

        After an operator of precedence p only one of precedence p or
        below may follow (of below p after a comparison, and of below
        ``not``'s after a negation): a tighter one would have been taken
        by the right operand, unless that stopped at a second comparison.
        """
        texts = self.texts
        text = texts[self.index]
        if level <= _NOT and (text == "not" or text == "!"):
            self._nest(self.lines[self.index])
            self.index += 1
            left: Expr = UnOp("!", self._parse_expr(_NOT))
            self.depth -= 1
            top = _NOT - 1
        else:
            left = self._parse_unary()
            top = 6
        while True:
            binary = _BINARY.get(texts[self.index])
            if binary is None:
                return left
            op, precedence = binary
            if not level <= precedence <= top:
                return left
            self.index += 1
            if precedence == 6:
                left = BinOp(op, left, self._parse_unary())
            else:
                left = BinOp(op, left, self._parse_expr(precedence + 1))
            top = precedence - 1 if precedence == _COMPARISON else precedence

    def _parse_unary(self) -> Expr:
        text = self.texts[self.index]
        self.index += 1
        first = text[:1]
        if first in _NAME_START:
            if text not in KEYWORDS:
                return Var(text)
            if text == "present":
                return PresenceExpr(self._name())
            if text == "true":
                return Const(1)
            if text == "false":
                return Const(0)
        elif first.isdecimal():
            return Const(int(text))
        elif first == "?" and len(text) > 1:
            return EventValue(text[1:])
        elif text == "-":
            self._nest(self.lines[self.index - 1])
            expr: Expr = UnOp("-", self._parse_unary())
            self.depth -= 1
            return expr
        elif text == "(":
            self._nest(self.lines[self.index - 1])
            expr = self._parse_expr(1)
            self._expect(")")
            self.depth -= 1
            return expr
        self.index -= 1
        raise self._error("expected an expression")


def parse_module(source: str) -> Module:
    """Parse one RSL module from source text."""
    return _Parser(*_tokenize(source)).parse_module()


def parse_file(path: str) -> Module:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_module(handle.read())
