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
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<nl>\n)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<qid>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|==|!=|<=|>=|\.\.|&&|\|\||[-+*/%<>()=:;,?!])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "module", "input", "output", "var", "loop", "await", "emit",
    "if", "then", "elif", "else", "end", "or", "and", "not",
    "true", "false", "int", "present",
}


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


@dataclass
class _Token:
    kind: str  # 'num' | 'id' | 'qid' | 'op' | 'kw' | 'eof'
    text: str
    line: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise RslSyntaxError(f"unexpected character {source[pos]!r}", line)
        pos = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "comment"):
            continue
        if kind == "nl":
            line += 1
            continue
        if kind == "id" and text in KEYWORDS:
            kind = "kw"
        tokens.append(_Token(kind, text, line))
    tokens.append(_Token("eof", "", line))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.index = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def _error(self, message: str) -> RslSyntaxError:
        return RslSyntaxError(message + f" (found {self.current.text!r})", self.current.line)

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise self._error(f"expected {wanted!r}")
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    # -- grammar -----------------------------------------------------------

    def parse_module(self) -> Module:
        self._expect("kw", "module")
        name = self._expect("id").text
        self._expect("op", ":")
        inputs: List[InputDecl] = []
        outputs: List[OutputDecl] = []
        variables: List[VarDecl] = []
        while True:
            if self._accept("kw", "input"):
                inputs.append(self._parse_io(InputDecl))
            elif self._accept("kw", "output"):
                outputs.append(self._parse_io(OutputDecl))
            elif self._accept("kw", "var"):
                variables.append(self._parse_var())
            else:
                break
        self._expect("kw", "loop")
        body = self._parse_stmts(terminators={"end"})
        self._expect("kw", "end")
        self._expect("kw", "end")
        self._expect("eof")
        return Module(name, inputs, outputs, variables, body)

    def _parse_io(self, cls):
        name = self._expect("id").text
        width: Optional[int] = None
        if self._accept("op", ":"):
            self._expect("kw", "int")
            self._expect("op", "(")
            width = int(self._expect("num").text)
            self._expect("op", ")")
        self._expect("op", ";")
        return cls(name, width)

    def _parse_var(self) -> VarDecl:
        name = self._expect("id").text
        self._expect("op", ":")
        low = int(self._expect("num").text)
        self._expect("op", "..")
        high = int(self._expect("num").text)
        init = 0
        if self._accept("op", "="):
            init = int(self._expect("num").text)
        self._expect("op", ";")
        if low != 0:
            raise self._error("variable domains must start at 0")
        if high < 1:
            raise self._error("variable domain needs at least two values")
        return VarDecl(name, low, high, init)

    def _parse_stmts(self, terminators) -> List[Stmt]:
        stmts: List[Stmt] = []
        while not (self.current.kind == "kw" and self.current.text in terminators):
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> Stmt:
        token = self.current
        if self._accept("kw", "await"):
            events = [self._expect("id").text]
            while self._accept("kw", "or"):
                events.append(self._expect("id").text)
            self._expect("op", ";")
            return Await(events, token.line)
        if self._accept("kw", "emit"):
            name = self._expect("id").text
            value: Optional[Expr] = None
            if self._accept("op", "("):
                value = self._parse_expr()
                self._expect("op", ")")
            self._expect("op", ";")
            return EmitStmt(name, value, token.line)
        if self._accept("kw", "if"):
            return self._parse_if(token.line)
        if token.kind == "id":
            name = self._advance().text
            self._expect("op", ":=")
            value = self._parse_expr()
            self._expect("op", ";")
            return Assign(name, value, token.line)
        raise self._error("expected a statement")

    def _parse_if(self, line: int) -> If:
        arms: List[Tuple[Optional[Expr], List[Stmt]]] = []
        cond = self._parse_expr()
        self._expect("kw", "then")
        body = self._parse_stmts({"elif", "else", "end"})
        arms.append((cond, body))
        while self._accept("kw", "elif"):
            cond = self._parse_expr()
            self._expect("kw", "then")
            body = self._parse_stmts({"elif", "else", "end"})
            arms.append((cond, body))
        if self._accept("kw", "else"):
            body = self._parse_stmts({"end"})
            arms.append((None, body))
        self._expect("kw", "end")
        return If(arms, line)

    # -- expressions (precedence climbing) -------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while True:
            if self._accept("kw", "or") or self._accept("op", "||"):
                left = BinOp("||", left, self._parse_and())
            else:
                return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while True:
            if self._accept("kw", "and") or self._accept("op", "&&"):
                left = BinOp("&&", left, self._parse_not())
            else:
                return left

    def _parse_not(self) -> Expr:
        if self._accept("kw", "not") or self._accept("op", "!"):
            return UnOp("!", self._parse_not())
        return self._parse_comparison()

    _CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self.current.kind == "op" and self.current.text in self._CMP_OPS:
            op = self._advance().text
            return BinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.current.kind == "op" and self.current.text in ("+", "-"):
            op = self._advance().text
            left = BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self.current.kind == "op" and self.current.text in ("*", "/", "%"):
            op = self._advance().text
            left = BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self._accept("op", "-"):
            return UnOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.current
        if token.kind == "num":
            self._advance()
            return Const(int(token.text))
        if token.kind == "qid":
            self._advance()
            return EventValue(token.text[1:])
        if token.kind == "id":
            self._advance()
            return Var(token.text)
        if self._accept("kw", "present"):
            return PresenceExpr(self._expect("id").text)
        if self._accept("kw", "true"):
            return Const(1)
        if self._accept("kw", "false"):
            return Const(0)
        if self._accept("op", "("):
            expr = self._parse_expr()
            self._expect("op", ")")
            return expr
        raise self._error("expected an expression")


def parse_module(source: str) -> Module:
    """Parse one RSL module from source text."""
    return _Parser(_tokenize(source)).parse_module()


def parse_file(path: str) -> Module:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_module(handle.read())
