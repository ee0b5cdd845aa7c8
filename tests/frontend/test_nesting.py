"""The parser bounds nesting: past ``MAX_NESTING`` a module is a syntax
error with its line, never a ``RecursionError``; at the bound it goes
through the whole flow."""

import pytest

from repro.codegen import generate_c
from repro.frontend import compile_source
from repro.frontend.rsl import MAX_NESTING, RslSyntaxError
from repro.sgraph import synthesize

HEAD = "module m: input a; var x : 0..3; loop await a;\n"


def parentheses(n):
    return HEAD + "x := " + "(" * n + "1" + ")" * n + "; end end"


def right_operands(n):
    return HEAD + "x := " + "(x + " * n + "1" + ")" * n + "; end end"


def negations(n):
    return HEAD + "x := " + "-" * n + "1; end end"


def nots(n):
    # The ``if`` holding the condition is one level itself.
    return HEAD + "if " + "not " * (n - 1) + "x == 1 then x := 1; end end end"


def ifs(n):
    return HEAD + "if x == 1 then\n" * n + "x := 2;\n" + "end\n" * n + "end end"


#: Each shape, and the line its first level past the bound is on.
SHAPES = [
    (parentheses, lambda n: 2),
    (right_operands, lambda n: 2),
    (negations, lambda n: 2),
    (nots, lambda n: 2),
    (ifs, lambda n: 2 + MAX_NESTING),
]


@pytest.mark.parametrize("shape, _", SHAPES, ids=lambda s: getattr(s, "__name__", ""))
def test_a_module_at_the_bound_goes_through_the_flow(shape, _):
    result = synthesize(compile_source(shape(MAX_NESTING)))
    assert "void" in generate_c(result)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 10_000])
@pytest.mark.parametrize("shape, line", SHAPES, ids=lambda s: getattr(s, "__name__", ""))
def test_deeper_nesting_is_a_syntax_error_with_its_line(shape, line, depth):
    with pytest.raises(RslSyntaxError, match="nested too deeply") as info:
        compile_source(shape(depth))
    assert info.value.line == line(depth)
