"""Reference RSL frontend and its cross-check.

The library's frontend (:mod:`repro.frontend`) handles each piece of a
module once: one regular-expression pass per line yields the tokens as
plain strings with their line numbers, the parser tests token text
directly and climbs the expression grammar's precedence levels in one
loop, and ``compile_module`` turns each distinct condition into its test
once and each path's conditions into its guard once, for every event it
awaits.  The code below is the frontend it replaced, kept as written: a
``_Token`` per token (blanks and comments included), one method per
precedence level, and a compile that normalizes, presence-checks and
builds every condition literal of every path once per awaited event.

It builds the library's AST classes, so the two parsers' modules compare
node for node (class, fields, line).  The cross-check runs both frontends
on one input and requires the same outcome: the same AST, or the same
``RslSyntaxError`` message and line; then the same machine, or the same
compile error (type and message).  A machine is the same when its events, state variables
and transitions (guards, actions and source tags, in order) are, and
when its ``cfsm_fingerprint`` is; the fingerprint must also equal the
hash of the ``cfsm/v1`` shape spelled out as a tuple and rendered by
``repr``.

The corpus is the 17 example modules, every string constant in ``tests/``
that mentions ``module`` (most are RSL sources or fragments of them), and
seeded random inputs: token soups, which mostly fail to parse, and
generated modules with several awaits, ``elif``/``else`` arms, nested ifs,
``present``/``not``/``and``/``or`` conditions and reassigned variables,
which mostly compile; a few hold a deliberate mistake.  Input nested so
deep that the reference's eight frames per grammar level exceed the
recursion limit is skipped.  The tier-1 tests check the examples, the
test sources, edge cases and a small seeded slice; the whole campaign
runs as::

    PYTHONPATH=src python -m tests.frontend.frontend_reference
"""

from __future__ import annotations

import ast
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.expr import BinOp, Cond, Const, EventValue, Expr, UnOp, Var
from repro.cfsm.machine import Action, Cfsm, TestLiteral
from repro.frontend import compile as library_compile
from repro.frontend import rsl as library_rsl
from repro.frontend.compile import PC_VAR, CompileError
from repro.frontend.rsl import (
    KEYWORDS,
    Assign,
    Await,
    EmitStmt,
    If,
    InputDecl,
    Module,
    OutputDecl,
    PresenceExpr,
    RslSyntaxError,
    Stmt,
    VarDecl,
)
from repro.pipeline.cache import _hash_text, cfsm_fingerprint

REPO = Path(__file__).resolve().parents[2]

# ----------------------------------------------------------------------
# The reference lexer
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# The reference parser (recursive descent, one method per level)
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# The reference compile (every literal built once per awaited event)
# ----------------------------------------------------------------------


def _substitute(expr: Expr, env: Dict[str, Expr]) -> Expr:
    if isinstance(expr, (Const, EventValue, PresenceExpr)):
        return expr
    if isinstance(expr, Var):
        return env.get(expr.name, expr)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _substitute(expr.left, env), _substitute(expr.right, env))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _substitute(expr.operand, env))
    if isinstance(expr, Cond):
        return Cond(
            _substitute(expr.cond, env),
            _substitute(expr.then, env),
            _substitute(expr.otherwise, env),
        )
    raise CompileError(f"cannot substitute in {expr!r}")


@dataclass
class _Path:
    """One control path through a reaction segment."""

    conditions: List[Tuple[Expr, bool]]
    env: Dict[str, Expr]
    emissions: List[Tuple[str, Optional[Expr]]]


def _enumerate_paths(
    stmts: Sequence[Stmt], base: _Path
) -> List[_Path]:
    paths = [base]
    for stmt in stmts:
        if isinstance(stmt, Await):
            raise CompileError(
                f"line {stmt.line}: await may only appear at the top level "
                f"of the loop"
            )
        if isinstance(stmt, Assign):
            for path in paths:
                value = _substitute(stmt.value, path.env)
                path.env = dict(path.env)
                path.env[stmt.name] = value
        elif isinstance(stmt, EmitStmt):
            for path in paths:
                value = (
                    None if stmt.value is None else _substitute(stmt.value, path.env)
                )
                path.emissions = path.emissions + [(stmt.name, value)]
        elif isinstance(stmt, If):
            new_paths: List[_Path] = []
            for path in paths:
                arm_conditions: List[Tuple[Expr, bool]] = []
                has_else = False
                for cond, body in stmt.arms:
                    if cond is None:
                        has_else = True
                        branch = _Path(
                            conditions=path.conditions + list(arm_conditions),
                            env=dict(path.env),
                            emissions=list(path.emissions),
                        )
                        new_paths.extend(_enumerate_paths(body, branch))
                    else:
                        substituted = _substitute(cond, path.env)
                        branch = _Path(
                            conditions=path.conditions
                            + list(arm_conditions)
                            + [(substituted, True)],
                            env=dict(path.env),
                            emissions=list(path.emissions),
                        )
                        new_paths.extend(_enumerate_paths(body, branch))
                        arm_conditions.append((substituted, False))
                if not has_else:
                    # Fall through with all conditions false.
                    new_paths.append(
                        _Path(
                            conditions=path.conditions + list(arm_conditions),
                            env=dict(path.env),
                            emissions=list(path.emissions),
                        )
                    )
            paths = new_paths
        else:  # pragma: no cover - defensive
            raise CompileError(f"unknown statement {stmt!r}")
    return paths


def compile_module(module: Module) -> Cfsm:
    """Compile a parsed RSL module into a CFSM."""
    builder = CfsmBuilder(module.name)
    events = {}
    for decl in module.inputs:
        if decl.width is None:
            events[decl.name] = builder.pure_input(decl.name)
        else:
            events[decl.name] = builder.value_input(decl.name, width=decl.width)
    for decl in module.outputs:
        if decl.width is None:
            events[decl.name] = builder.pure_output(decl.name)
        else:
            events[decl.name] = builder.value_output(decl.name, width=decl.width)
    state_vars = {}
    for decl in module.variables:
        if decl.name == PC_VAR:
            raise CompileError(f"variable name {PC_VAR} is reserved")
        state_vars[decl.name] = builder.state(
            decl.name, num_values=decl.high + 1, init=decl.init
        )

    # Split the loop body at top-level awaits.
    segments: List[Tuple[Await, List[Stmt]]] = []
    current_await: Optional[Await] = None
    current_body: List[Stmt] = []
    leading: List[Stmt] = []
    for stmt in module.body:
        if isinstance(stmt, Await):
            if current_await is not None:
                segments.append((current_await, current_body))
            else:
                leading = current_body
            current_await = stmt
            current_body = []
        else:
            current_body.append(stmt)
    if current_await is None:
        raise CompileError(f"module {module.name}: the loop needs an await")
    segments.append((current_await, current_body))
    if leading:
        # Statements before the first await execute after the last await
        # completes its cycle — prepend them to the last segment? No: the
        # loop is cyclic, so code before the first await belongs to the
        # final segment's tail.
        await_stmt, body = segments[-1]
        segments[-1] = (await_stmt, body + leading)

    multi = len(segments) > 1
    pc = builder.state(PC_VAR, num_values=max(2, len(segments))) if multi else None

    for index, (await_stmt, body) in enumerate(segments):
        next_index = (index + 1) % len(segments)
        base = _Path(conditions=[], env={}, emissions=[])
        paths = _enumerate_paths(body, base)
        for event_name in await_stmt.events:
            if event_name not in events:
                raise CompileError(
                    f"line {await_stmt.line}: await of undeclared event "
                    f"{event_name}"
                )
            for path in paths:
                guard: List[TestLiteral] = []
                if multi:
                    guard.append(
                        builder.expr_test(BinOp("==", Var(PC_VAR), Const(index)))
                    )
                awaited = builder.present(events[event_name])
                guard.append(awaited)
                infeasible = False
                seen: Dict[Tuple, bool] = {awaited.test.key(): True}
                for cond, polarity in path.conditions:
                    cond, polarity = _normalize_condition(cond, polarity)
                    if isinstance(cond, PresenceExpr):
                        if cond.event_name not in events:
                            raise CompileError(
                                f"present-condition on undeclared event "
                                f"{cond.event_name}"
                            )
                        literal = builder.present(
                            events[cond.event_name], polarity
                        )
                    else:
                        _reject_nested_presence(cond)
                        literal = builder.expr_test(cond, polarity)
                    key = literal.test.key()
                    if key in seen:
                        if seen[key] != polarity:
                            infeasible = True  # contradictory path
                            break
                        continue  # duplicate literal
                    seen[key] = polarity
                    guard.append(literal)
                if infeasible:
                    continue
                actions: List[Action] = []
                for name, value in path.env.items():
                    actions.append(builder.assign(state_vars[name], value))
                for name, value in path.emissions:
                    actions.append(builder.emit(events[name], value))
                if multi:
                    actions.append(builder.assign(pc, Const(next_index)))
                builder.transition(
                    when=guard,
                    do=actions,
                    source=f"{module.name}.rsl:{await_stmt.line}",
                )
    return builder.build()


def _normalize_condition(expr: Expr, polarity: bool) -> Tuple[Expr, bool]:
    """Strip leading logical negations into the literal polarity."""
    while isinstance(expr, UnOp) and expr.op == "!":
        expr = expr.operand
        polarity = not polarity
    return expr, polarity


def _reject_nested_presence(expr: Expr) -> None:
    """`present e` may only be a whole condition, not a sub-expression."""
    children: List[Expr] = []
    if isinstance(expr, BinOp):
        children = [expr.left, expr.right]
    elif isinstance(expr, UnOp):
        children = [expr.operand]
    elif isinstance(expr, Cond):
        children = [expr.cond, expr.then, expr.otherwise]
    for child in children:
        if isinstance(child, PresenceExpr):
            raise CompileError(
                "present-conditions cannot be combined with data expressions; "
                "split the if"
            )
        _reject_nested_presence(child)


def compile_source(source: str) -> Cfsm:
    """Parse and compile one RSL module."""
    return compile_module(parse_module(source))


# ----------------------------------------------------------------------
# Outcomes and the cross-check
# ----------------------------------------------------------------------


def spelled_out_fingerprint(cfsm: Cfsm) -> str:
    """``cfsm_fingerprint`` as the hash of the ``cfsm/v1`` shape's repr."""
    shape = (
        "cfsm/v1",
        cfsm.name,
        tuple(e.key() for e in cfsm.inputs),
        tuple(e.key() for e in cfsm.outputs),
        tuple((v.name, v.num_values, v.init) for v in cfsm.state_vars),
        tuple(
            (
                tuple((lit.test.key(), lit.value) for lit in t.guard),
                tuple(a.key() for a in t.actions),
                t.source,
            )
            for t in cfsm.transitions
        ),
    )
    return _hash_text(repr(shape))


def _dump(node: Any) -> Any:
    """An AST as nested tuples naming every node's class (``==`` on two
    dataclass trees would not tell ``Const(1)`` from ``true``'s)."""
    if isinstance(node, list):
        return [_dump(item) for item in node]
    if isinstance(node, tuple):
        return tuple(_dump(item) for item in node)
    if isinstance(node, Expr):
        return (type(node).__name__, node.key())
    if node is None or isinstance(node, (str, int)):
        return node
    return (type(node).__name__,) + tuple(
        (name, _dump(value)) for name, value in vars(node).items()
    )


def _error(exc: BaseException) -> Tuple[str, str, Optional[int]]:
    return (type(exc).__name__, str(exc), getattr(exc, "line", None))


def _machine(cfsm: Cfsm) -> Tuple:
    """Everything of a compiled machine the cross-check compares."""
    return (
        cfsm.name,
        [e.key() for e in cfsm.inputs],
        [e.key() for e in cfsm.outputs],
        [(v.name, v.num_values, v.init) for v in cfsm.state_vars],
        [
            (
                [(type(lit.test).__name__, lit.test.key(), lit.value) for lit in t.guard],
                [(type(a).__name__, a.key()) for a in t.actions],
                t.source,
            )
            for t in cfsm.transitions
        ],
    )


def outcome(source: str, parse, compile_parsed) -> Tuple:
    """What one frontend makes of ``source``: ``("syntax", error)``,
    ``("compile", ast, error)`` or ``("cfsm", ast, machine, fingerprint)``."""
    try:
        module = parse(source)
    except RslSyntaxError as exc:
        return ("syntax", _error(exc))
    tree = _dump(module)
    try:
        cfsm = compile_parsed(module)
    except (CompileError, KeyError, ValueError) as exc:
        return ("compile", tree, _error(exc))
    fingerprint = cfsm_fingerprint(cfsm)
    assert fingerprint == spelled_out_fingerprint(cfsm), cfsm.name
    return ("cfsm", tree, _machine(cfsm), fingerprint)


def crosscheck_source(source: str) -> str:
    """Both frontends make the same of ``source``; the outcome's kind."""
    try:
        expected = outcome(source, parse_module, compile_module)
    except RecursionError:
        return "too deep"  # nested past the reference's eight frames a level
    actual = outcome(
        source, library_rsl.parse_module, library_compile.compile_module
    )
    assert actual == expected, f"{source!r}:\n{actual}\n!=\n{expected}"
    return actual[0]


def example_sources() -> Dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((REPO / "examples" / "rsl").glob("*.rsl"))
    }


def sources_in_tests() -> List[str]:
    """Every string constant of ``tests/`` that mentions ``module``."""
    sources = []
    for path in sorted((REPO / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "module" in node.value
            ):
                sources.append(node.value)
    return sources


# ----------------------------------------------------------------------
# The seeded corpus
# ----------------------------------------------------------------------

#: Token-soup vocabulary: every keyword and operator, names, numbers,
#: event values, comments, blanks, line breaks and characters RSL rejects.
_SOUP = (
    sorted(KEYWORDS)
    + [":=", "==", "!=", "<=", ">=", "..", "&&", "||"]
    + list("-+*/%<>()=:;,?!")
    + ["a", "b", "x", "y", "_pc", "m", "?a", "?x", "? a", "0", "1", "7", "255"]
    + [" ", "  ", "\t", "\n", "\r\n", "# note", "// note", "/", "&", "|", "."]
    + ["$", "@", "é", "\x0c", "\u0663", "\u06634"]  # rejected; Arabic-Indic digits
)


def token_soup(rng: random.Random) -> str:
    """Random tokens, usually behind a well-formed module header."""
    words = [rng.choice(_SOUP) for _ in range(rng.randint(0, 40))]
    head = rng.choice([
        "",
        "module m: input a; input x : int(4); output y; var v : 0..3; loop await a; ",
        "module m:\n input a;\n var v : 0..9 = 2;\n loop\n  await a;\n  v := ",
        "module m: input a; output y; loop await a; if ",
    ])
    tail = rng.choice(["", " end end", " then emit y; end end end", "; end end"])
    sep = rng.choice([" ", "", "\n"])
    return head + sep.join(words) + tail


@dataclass
class _Design:
    """The declarations a generated module draws its names from."""

    inputs: List[Tuple[str, Optional[int]]]
    outputs: List[Tuple[str, Optional[int]]]
    variables: List[Tuple[str, int]]


def _expr(rng: random.Random, design: _Design, depth: int = 0) -> str:
    atoms = [str(rng.randint(0, 9))]
    atoms += [name for name, _ in design.variables]
    atoms += [f"?{name}" for name, width in design.inputs if width is not None]
    if depth >= 2 or rng.random() < 0.4:
        return rng.choice(atoms)
    form = rng.randrange(4)
    left, right = _expr(rng, design, depth + 1), _expr(rng, design, depth + 1)
    if form == 0:
        return f"{left} {rng.choice('+-*/%')} {right}"
    if form == 1:
        return f"({left} {rng.choice('+-')} {right})"
    if form == 2:
        return f"-{left}"
    return f"({left})"


def _condition(rng: random.Random, design: _Design, depth: int = 0) -> str:
    roll = rng.random()
    if (depth == 0 and roll < 0.3) or roll < 0.02:
        # A whole condition, mostly; now and then inside data (an error).
        names = [name for name, _ in design.inputs]
        if rng.random() < 0.05:
            names = [name for name, _ in design.outputs] + ["nowhere"]
        negations = rng.choice(["", "", "not ", "not not ", "!"])
        return f"{negations}present {rng.choice(names)}"
    if roll < 0.15:
        return f"not {_condition(rng, design, depth + 1)}"
    if roll < 0.4 and depth < 2:
        op = rng.choice(["and", "or", "&&", "||"])
        left = _condition(rng, design, depth + 1)
        right = _condition(rng, design, depth + 1)
        return f"{left} {op} {right}" if rng.random() < 0.7 else f"({left}) {op} {right}"
    op = rng.choice(["==", "!=", "<", ">", "<=", ">="])
    return f"{_expr(rng, design)} {op} {_expr(rng, design)}"


def _statements(
    rng: random.Random, design: _Design, depth: int, budget: List[int]
) -> List[str]:
    lines: List[str] = []
    for _ in range(rng.randint(1, 3)):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        kind = rng.random()
        if kind < 0.02:
            # A mistake the compile or the machine's checks reject.
            lines.append(rng.choice([
                "nowhere := 1;",
                f"emit {design.inputs[0][0]};",
                f"emit {design.outputs[0][0]}(1); emit {design.outputs[0][0]};",
                "_pc := 0;",
                "if _pc == 0 then end",
            ]))
        elif kind < 0.35 and design.variables:
            name, _ = rng.choice(design.variables)
            lines.append(f"{name} := {_expr(rng, design)};")
        elif kind < 0.55:
            name, width = rng.choice(design.outputs)
            if width is None:
                lines.append(f"emit {name};")
            else:
                lines.append(f"emit {name}({_expr(rng, design)});")
        elif depth < 3:
            arms = [f"if {_condition(rng, design)} then"]
            arms += _statements(rng, design, depth + 1, budget)
            for _ in range(rng.choice([0, 0, 1, 2])):
                arms.append(f"elif {_condition(rng, design)} then")
                arms += _statements(rng, design, depth + 1, budget)
            if rng.random() < 0.4:
                arms.append("else")
                arms += _statements(rng, design, depth + 1, budget)
            arms.append("end")
            lines += arms
    return lines


def generated_module(rng: random.Random, index: int) -> str:
    """A random, usually well-formed module."""
    design = _Design(
        inputs=[(f"i{k}", rng.choice([None, None, 2, 4])) for k in range(rng.randint(1, 3))],
        outputs=[(f"o{k}", rng.choice([None, 4])) for k in range(rng.randint(1, 2))],
        variables=[(f"v{k}", rng.choice([1, 3, 7, 15])) for k in range(rng.randint(0, 3))],
    )
    lines = [f"module g{index}:"]
    for kind, decls in (("input", design.inputs), ("output", design.outputs)):
        for name, width in decls:
            lines.append(f"  {kind} {name}" + ("" if width is None else f" : int({width})") + ";")
    for name, high in design.variables:
        lines.append(f"  var {name} : 0..{high} = {rng.randint(0, high)};")
    lines.append("  loop")
    budget = [rng.randint(2, 10)]
    if rng.random() < 0.2:
        lines += _statements(rng, design, 1, budget)  # before the first await
    for _ in range(rng.choice([1, 1, 2, 3])):
        awaited = rng.sample(
            [name for name, _ in design.inputs], rng.randint(1, len(design.inputs))
        )
        if rng.random() < 0.03:
            awaited.append("undeclared")
        lines.append(f"    await {' or '.join(awaited)};")
        lines += ["    " + line for line in _statements(rng, design, 1, budget)]
    lines += ["  end", "end"]
    return "\n".join(lines)


def seeded_corpus(seed: int, soups: int, modules: int) -> List[str]:
    rng = random.Random(seed)
    corpus = [token_soup(rng) for _ in range(soups)]
    corpus += [generated_module(rng, index) for index in range(modules)]
    return corpus


def crosscheck_corpus(sources: Sequence[str]) -> Dict[str, int]:
    """Cross-check every source; how many ended each way."""
    counts: Dict[str, int] = {}
    for source in sources:
        kind = crosscheck_source(source)
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def main() -> int:
    """Cross-check the whole corpus; exit 0 when every outcome is identical."""
    parts = {
        "examples": list(example_sources().values()),
        "tests": sources_in_tests(),
        "seeded": seeded_corpus(seed=2024, soups=20000, modules=10000),
    }
    for part, sources in parts.items():
        counts = crosscheck_corpus(sources)
        summary = ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))
        print(f"{part}: {len(sources)} inputs, identical outcomes ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
