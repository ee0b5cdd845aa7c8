"""The library's frontend makes what the reference frontend makes.

See :mod:`tests.frontend.frontend_reference` for the reference and the
corpus.  Tier-1 checks the example modules, every RSL source in the tests
and a small seeded slice of random inputs; the whole corpus runs as
``python -m tests.frontend.frontend_reference`` in CI.
"""

import pytest

from repro.cfsm.machine import Cfsm
from repro.frontend import compile_source, parse_module
from repro.frontend.compile import _Path, _enumerate_paths
from repro.pipeline.cache import cfsm_fingerprint

from ..bdd.sift_reference import build_cold_machine, fuzz_machine
from .frontend_reference import (
    crosscheck_corpus,
    crosscheck_source,
    example_sources,
    seeded_corpus,
    sources_in_tests,
    spelled_out_fingerprint,
)

EXAMPLES = example_sources()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_module(name):
    assert crosscheck_source(EXAMPLES[name]) == "cfsm"


#: Inputs at the lexer's edges: digits outside ASCII (a number, so the
#: end-of-source line must still be the last line's), characters RSL
#: rejects inside and outside comments, CRLF, blank and comment-only lines.
LEXER_EDGES = [
    "module m: input a; var x : 0..\u0663; loop await a; end\n\n\n",
    "module m: input a; var x : 0..\u0663\u0664; loop await a; end\n\n\n",
    "module m: input a; loop await a; x := \u0663; end end\n\n  ",
    "module m: # \u00e9 $ @\r\n input a; // \u0663\r\n loop await a; end end",
    "module m:\n  input a;\n\n  # only a comment\n  loop await a; end\n end $",
    "module m: input a; loop await a; x := 1 .. 2; end end",
    "module m: input a; loop await a; if a & b | c then end end end",
    "\n\n", "", "   # nothing", "module", "?", "?x", "??x", "a//b", "a/ /b",
]

#: Expressions at the grammar's edges: comparisons do not chain, ``not``
#: binds between ``and`` and the comparisons, unary minus binds tightest.
EXPRESSIONS = [
    "1 < 2 < 3", "1 == 2 == 3", "1 < 2 and 3 > 4 or 5 != 6", "not 1 < 2",
    "not not x", "not x == 1 and y == 2 or x == 3", "1 < not 2", "1 + not 2",
    "x and not y == 1 or not x", "(x or y) and x", "x * -y", "x - - y", "--x",
    "- x * y + x % y / 2", "1 < 2 < 3 and x", "not (x < y) < 1", "x or",
    "(1 < 2) < 3", "! x", "!x == 1", "1 <= 2 >= 3", "true and false",
]

#: Modules the compile or the machine's checks reject, where the first
#: action, test or expression of each kind is sound and a later one is not.
REJECTED = [
    "module m: input a; output y; loop await a; emit y; emit a; end end",
    "module m: input a; input b; output y; loop await a; if present b then end"
    " if present y then end end end",
    "module m: input a; var x : 0..3; loop await a; x := x + 1; x := nope; end end",
    "module m: input a; input c : int(4); var x : 0..3; loop await a;"
    " x := ?c; x := ?a; end end",
    "module m: input a; output y; loop await a; await y; end end",
    "module m: input a; input b; output y; var x : 0..3; loop await a or b;"
    " if not present a then if x == 1 and present b then emit y; end end end end",
    "module m: input a; input b; output y; var x : 0..3; loop await a or b;"
    " if present a then else if x == 1 and present b then emit y; end end end end",
    "module m: input a; input b; var x : 0..3; loop await b or a;"
    " if not present a then if present zz then end end end end",
]


def test_lexer_edges():
    assert crosscheck_corpus(LEXER_EDGES)


def test_expression_edges():
    sources = [
        "module m: input a; var x : 0..3; var y : 0..3; loop await a;"
        f" if {text} then x := 1; end end end"
        for text in EXPRESSIONS
    ]
    counts = crosscheck_corpus(sources)
    assert counts["cfsm"] and counts["syntax"], counts


#: A check that fails on a path no awaited event can take raises nothing.
MASKED = [
    "module m: input a; loop await a; if not present a then"
    " if present zz then end end end end",
    "module m: input a; var x : 0..3; loop await a; if x == 1 then"
    " if not (x == 1) then if x == 2 and present a then end end end end end",
]


def test_rejected_modules():
    counts = crosscheck_corpus(REJECTED)
    assert counts == {"compile": len(REJECTED)}, counts
    assert crosscheck_corpus(MASKED) == {"cfsm": len(MASKED)}


def test_sources_in_tests():
    counts = crosscheck_corpus(sources_in_tests())
    assert counts["cfsm"] >= 30 and counts["syntax"] >= 30, counts


@pytest.mark.parametrize("seed", range(4))
def test_seeded_corpus(seed):
    counts = crosscheck_corpus(seeded_corpus(seed, soups=250, modules=120))
    assert counts["cfsm"] >= 80 and counts["syntax"] >= 200, counts


@pytest.mark.parametrize(
    "machine",
    [fuzz_machine(i) for i in range(0, 300, 30)]
    + [build_cold_machine(i) for i in range(0, 64, 8)],
    ids=lambda cfsm: cfsm.name,
)
def test_fingerprint_of_a_built_machine_is_its_shape_hash(machine):
    """Machines made by the builder share no test or action objects."""
    assert cfsm_fingerprint(machine) == spelled_out_fingerprint(machine)


def test_fingerprint_of_a_machine_without_transitions():
    cfsm = compile_source(EXAMPLES["speedo"])
    for transitions in ([], cfsm.transitions[:1]):
        bare = Cfsm(cfsm.name, cfsm.inputs, cfsm.outputs, cfsm.state_vars, transitions)
        assert cfsm_fingerprint(bare) == spelled_out_fingerprint(bare)


def test_one_object_per_test_literal_and_action():
    """damping_logic makes 456 guard literals of 30 tests (its three
    events and 27 conditions) over 72 transitions: each test is one
    test object, each literal and action one object wherever it recurs."""
    cfsm = compile_source(EXAMPLES["damping_logic"])
    literals = [lit for t in cfsm.transitions for lit in t.guard]
    tests = {id(lit.test): lit.test for lit in literals}.values()
    assert len(cfsm.transitions) == 72
    assert len(literals) == 456
    assert len(tests) == len({test.key() for test in tests}) == 30
    pairs = {(lit.test.key(), lit.value) for lit in literals}
    assert len({id(lit) for lit in literals}) == len(pairs)
    actions = [a for t in cfsm.transitions for a in t.actions]
    assert len({id(a) for a in actions}) < len(actions) // 10


def test_unchanged_conditions_stay_the_parsed_objects():
    """A condition no assignment on the path rebinds is the parsed object."""
    module = parse_module(EXAMPLES["damping_logic"])
    chain = module.body[4]  # the elif chain after the three present-ifs
    paths = _enumerate_paths(module.body[1:], _Path([], {}, []))
    untouched = [path for path in paths if not path.env]
    assert untouched
    parsed = {id(cond) for cond, _ in chain.arms}
    assert all(
        id(cond) in parsed for path in untouched for cond, _ in path.conditions[3:]
    )
