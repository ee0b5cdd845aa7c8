"""Tests for events, state variables, tests/actions, CFSM validation."""

import pytest

from repro.cfsm import (
    AssignState,
    BinOp,
    CfsmBuilder,
    Cfsm,
    Const,
    Emit,
    EventValue,
    ExprTest,
    PresenceTest,
    StateVar,
    TestLiteral,
    Transition,
    Var,
    pure_event,
    valued_event,
)


class TestEvents:
    def test_pure_event(self):
        e = pure_event("alarm")
        assert e.is_pure and not e.is_valued and e.width is None

    def test_valued_event(self):
        e = valued_event("temp", 8)
        assert e.is_valued and e.width == 8

    def test_event_equality(self):
        assert pure_event("a") == pure_event("a")
        assert pure_event("a") != valued_event("a", 8)
        assert valued_event("a", 8) != valued_event("a", 16)

    def test_invalid_names(self):
        with pytest.raises(ValueError):
            pure_event("not an identifier")
        with pytest.raises(ValueError):
            valued_event("x", 0)


class TestStateVar:
    def test_domain(self):
        v = StateVar("s", 5, init=2)
        assert v.num_values == 5 and v.init == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StateVar("s", 1)
        with pytest.raises(ValueError):
            StateVar("s", 4, init=4)
        with pytest.raises(ValueError):
            StateVar("bad name", 4)


class TestTestsAndActions:
    def test_presence_test_identity(self):
        e = pure_event("go")
        assert PresenceTest(e) == PresenceTest(pure_event("go"))
        assert PresenceTest(e).label() == "present_go"

    def test_expr_test_identity(self):
        a = ExprTest(BinOp("==", Var("x"), Const(1)))
        b = ExprTest(BinOp("==", Var("x"), Const(1)))
        c = ExprTest(BinOp("==", Var("x"), Const(2)))
        assert a == b and a != c

    def test_presence_evaluation(self):
        e = pure_event("go")
        assert PresenceTest(e).evaluate({}, {"go"})
        assert not PresenceTest(e).evaluate({}, set())

    def test_emit_validation(self):
        pure = pure_event("p")
        valued = valued_event("v", 8)
        with pytest.raises(ValueError):
            Emit(pure, Const(1))
        with pytest.raises(ValueError):
            Emit(valued, None)

    def test_action_labels(self):
        v = StateVar("s", 4)
        assert AssignState(v, Const(2)).label() == "s := 2"
        assert Emit(pure_event("y")).label() == "emit y"
        assert Emit(valued_event("z", 8), Const(3)).label() == "emit z(3)"


class TestTransition:
    def test_guard_rejects_repeated_test(self):
        e = pure_event("go")
        with pytest.raises(ValueError):
            Transition(
                [TestLiteral(PresenceTest(e)), TestLiteral(PresenceTest(e), False)],
                [],
            )

    def test_enabled(self):
        e = pure_event("go")
        t = Transition([TestLiteral(PresenceTest(e))], [])
        assert t.enabled({}, {"go"})
        assert not t.enabled({}, set())

    def test_enabled_with_polarity(self):
        e = pure_event("go")
        t = Transition([TestLiteral(PresenceTest(e), False)], [])
        assert t.enabled({}, set())
        assert not t.enabled({}, {"go"})


class TestCfsmValidation:
    def test_duplicate_inputs_rejected(self):
        e = pure_event("a")
        with pytest.raises(ValueError):
            Cfsm("m", [e, pure_event("a")], [])

    def test_guard_on_non_input_rejected(self):
        other = pure_event("other")
        with pytest.raises(ValueError):
            Cfsm(
                "m",
                [pure_event("a")],
                [],
                transitions=[Transition([TestLiteral(PresenceTest(other))], [])],
            )

    def test_emit_of_non_output_rejected(self):
        b = CfsmBuilder("m")
        a = b.pure_input("a")
        stray = pure_event("stray")
        with pytest.raises(ValueError):
            b.transition(when=[b.present(a)], do=[Emit(stray)])
            b.build()

    def test_expression_reading_unknown_variable_rejected(self):
        b = CfsmBuilder("m")
        a = b.pure_input("a")
        y = b.value_output("y", 8)
        b.transition(when=[b.present(a)], do=[b.emit(y, Var("ghost"))])
        with pytest.raises(ValueError):
            b.build()

    def test_expression_reading_non_input_value_rejected(self):
        b = CfsmBuilder("m")
        a = b.pure_input("a")  # pure: has no value
        y = b.value_output("y", 8)
        b.transition(when=[b.present(a)], do=[b.emit(y, EventValue("a"))])
        with pytest.raises(ValueError):
            b.build()


class TestCfsmViews:
    def test_all_tests_deduplicates(self, simple_cfsm):
        tests = simple_cfsm.all_tests()
        assert len(tests) == 2  # present_c and a == ?c

    def test_all_actions_deduplicates(self, counter_cfsm):
        # 4 distinct actions: n:=0, emit(0), n:=n+1, emit(n+1)
        assert len(counter_cfsm.all_actions()) == 4

    def test_initial_state(self, simple_cfsm):
        assert simple_cfsm.initial_state() == {"a": 0}

    def test_lookup_helpers(self, simple_cfsm):
        assert simple_cfsm.input_event("c").is_valued
        assert simple_cfsm.output_event("y").is_pure
        assert simple_cfsm.state_var("a").num_values == 16
        with pytest.raises(KeyError):
            simple_cfsm.input_event("zzz")

    def test_sensitivity(self, counter_cfsm):
        assert counter_cfsm.sensitivity() == {"up", "rst"}


def test_pickled_cfsm_is_no_larger_once_its_keys_are_computed():
    """Keys (and hashes) are cached per node but never pickled, so a pool
    task carrying a machine does not grow once the machine was keyed."""
    import pickle
    from pathlib import Path

    from repro.frontend import compile_source
    from repro.pipeline.cache import cfsm_fingerprint
    from repro.synthesis import synthesize_reactive

    rsl = Path(__file__).resolve().parents[2] / "examples" / "rsl" / "speedo.rsl"
    cfsm = compile_source(rsl.read_text(encoding="utf-8"))
    before = pickle.dumps(cfsm)
    cfsm_fingerprint(cfsm)
    synthesize_reactive(cfsm)
    keyed = [lit.test for t in cfsm.transitions for lit in t.guard]
    keyed += [a for t in cfsm.transitions for a in t.actions]
    assert all(node._key is not None for node in keyed)
    after = pickle.dumps(cfsm)
    assert len(after) <= len(before)
    copy = pickle.loads(after)
    assert [a.key() for a in copy.all_actions()] == [
        a.key() for a in cfsm.all_actions()
    ]
    assert [t.key() for t in copy.all_tests()] == [t.key() for t in cfsm.all_tests()]
