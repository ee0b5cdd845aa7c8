"""Tests for the characteristic-function construction."""

import gc
from pathlib import Path

import pytest

from repro.cfsm import BinOp, CfsmBuilder, Const, Emit, Var, react
from repro.frontend import compile_source
from repro.synthesis import ConsistencyError, synthesize_reactive
from repro.synthesis.encoding import FireFlag

from ..conftest import all_snapshots


class TestConditions:
    def test_conditions_match_reference(self, simple_cfsm):
        rf = synthesize_reactive(simple_cfsm)
        for state, present, values in all_snapshots(simple_cfsm):
            expected = react(simple_cfsm, state, present, values)
            bits = rf.expected_outputs(state, present, values)
            actions = [
                a for a in rf.selected_actions(bits) if not isinstance(a, FireFlag)
            ]
            emitted = {a.event.name for a in actions if isinstance(a, Emit)}
            assert emitted == expected.emitted_names

    def test_fires_matches_any_transition_enabled(self, counter_cfsm):
        rf = synthesize_reactive(counter_cfsm)
        for state, present, values in all_snapshots(counter_cfsm):
            expected = react(counter_cfsm, state, present, values)
            bits = rf.encoding.evaluate_inputs(state, present, values)
            assert rf.manager.evaluate(rf.fires(), bits) == expected.fired

    def test_chi_is_nontrivial(self, simple_cfsm):
        rf = synthesize_reactive(simple_cfsm)
        assert not rf.chi.is_constant

    def test_chi_functional_on_care(self, modal_cfsm):
        """Within care, chi determines each output uniquely."""
        rf = synthesize_reactive(modal_cfsm)
        m = rf.manager
        for out in rf.output_vars:
            c0 = rf.chi.restrict(out, False)
            c1 = rf.chi.restrict(out, True)
            rest = [o for o in rf.output_vars if o != out]
            both_ok = c0.exists(rest) & c1.exists(rest) & rf.care
            # both values permitted only outside care -> empty here
            assert both_ok.is_false


class TestLazyCharacteristicFunction:
    """spec and chi are built at their first read, so a kernel compile
    (which reads only the conditions) never builds either."""

    def test_neither_is_built_until_read(self, modal_cfsm):
        rf = synthesize_reactive(modal_cfsm)
        assert "spec" not in vars(rf) and "chi" not in vars(rf)

    def test_chi_read_later_is_care_and_spec(self, modal_cfsm):
        rf = synthesize_reactive(modal_cfsm)
        chi = rf.chi
        assert "spec" in vars(rf)
        assert chi == rf.care & rf.spec
        assert rf.chi is chi and not chi.is_constant


class TestFireFlag:
    def test_fire_flag_added_for_silent_transitions(self):
        b = CfsmBuilder("silent")
        a = b.pure_input("a")
        b.transition(when=[b.present(a)], do=[])  # consumes, does nothing
        rf = synthesize_reactive(b.build())
        assert any(isinstance(x, FireFlag) for x in rf.encoding.actions)

    def test_fire_flag_not_added_when_actions_cover(self, simple_cfsm):
        rf = synthesize_reactive(simple_cfsm)
        assert not any(isinstance(x, FireFlag) for x in rf.encoding.actions)

    def test_fire_flag_condition_is_fire_condition(self):
        b = CfsmBuilder("silent")
        a = b.pure_input("a")
        y = b.pure_output("y")
        s = b.state("s", 2)
        eq = BinOp("==", Var("s"), Const(1))
        b.transition(when=[b.present(a), b.expr_test(eq)], do=[b.emit(y)])
        b.transition(when=[b.present(a), b.expr_test(eq, False)], do=[])
        rf = synthesize_reactive(b.build())
        fire = rf.conditions[FireFlag().key()]
        assert fire == rf.fire_condition


class TestConstraints:
    def test_support_constraints(self, simple_cfsm):
        rf = synthesize_reactive(simple_cfsm)
        pc = rf.support_constraints()
        for out in rf.output_vars:
            support = rf.manager.support(rf.conditions_by_var(out))
            for var in support - set(rf.output_vars):
                assert var in pc.must_stay_above(out)

    def test_strict_constraints_cover_all_inputs(self, simple_cfsm):
        rf = synthesize_reactive(simple_cfsm)
        pc = rf.strict_constraints()
        for out in rf.output_vars:
            assert set(rf.input_vars) <= pc.must_stay_above(out)

    def test_sift_respects_constraints_and_preserves_conditions(self, modal_cfsm):
        rf = synthesize_reactive(modal_cfsm)
        snapshots = [
            rf.expected_outputs(state, present, values)
            for state, present, values in all_snapshots(modal_cfsm)
        ]
        rf.sift()
        after = [
            rf.expected_outputs(state, present, values)
            for state, present, values in all_snapshots(modal_cfsm)
        ]
        assert snapshots == after
        assert rf.support_constraints().is_satisfied(rf.manager)


class TestConsistency:
    def test_conflicting_writes_detected(self):
        b = CfsmBuilder("bad")
        a = b.pure_input("a")
        s = b.state("s", 4)
        b.transition(when=[b.present(a)], do=[b.assign(s, Const(1))])
        b.transition(when=[b.present(a)], do=[b.assign(s, Const(2))])
        with pytest.raises(ConsistencyError):
            synthesize_reactive(b.build())

    def test_disjoint_writes_accepted(self):
        b = CfsmBuilder("ok")
        a = b.pure_input("a")
        r = b.pure_input("r")
        s = b.state("s", 4)
        b.transition(when=[b.present(a), b.absent(r)], do=[b.assign(s, Const(1))])
        b.transition(when=[b.present(r)], do=[b.assign(s, Const(2))])
        rf = synthesize_reactive(b.build())  # no exception
        assert rf.chi is not None

    def test_conflict_outside_care_is_fine(self):
        """Conflicting writes guarded by incompatible tests are unreachable."""
        b = CfsmBuilder("careful")
        a = b.pure_input("a")
        s = b.state("s", 4)
        m = b.state("m", 2)
        eq0 = BinOp("==", Var("m"), Const(0))
        eq1 = BinOp("==", Var("m"), Const(1))
        # Both guards demand m == 0 AND m == 1 via folded bits: impossible.
        b.transition(
            when=[b.present(a), b.expr_test(eq0), b.expr_test(eq1)],
            do=[b.assign(s, Const(1))],
        )
        b.transition(when=[b.present(a)], do=[b.assign(s, Const(2))])
        rf = synthesize_reactive(b.build())
        assert rf.chi is not None

    def test_check_can_be_skipped(self):
        b = CfsmBuilder("bad")
        a = b.pure_input("a")
        s = b.state("s", 4)
        b.transition(when=[b.present(a)], do=[b.assign(s, Const(1))])
        b.transition(when=[b.present(a)], do=[b.assign(s, Const(2))])
        rf = synthesize_reactive(b.build(), check=False)
        assert rf.chi is not None


RSL_DIR = Path(__file__).resolve().parents[2] / "examples" / "rsl"


@pytest.mark.parametrize("name", sorted(p.stem for p in RSL_DIR.glob("*.rsl")))
def test_no_handle_waits_for_the_cyclic_collector(name):
    """Synthesis leaves no BDD handle in a reference cycle.

    Sifting ranks blocks over the live handles, so a handle that dies only
    when the cyclic collector runs would make the swap count depend on when
    it ran.
    """
    source = (RSL_DIR / f"{name}.rsl").read_text(encoding="utf-8")
    cfsm = compile_source(source)
    gc.collect()
    gc.disable()
    try:
        rf = synthesize_reactive(cfsm)
        live = len(rf.manager._handles)
        gc.collect()
        assert len(rf.manager._handles) == live
    finally:
        gc.enable()
