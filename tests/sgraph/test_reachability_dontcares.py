"""Tests for sequential (unreachable-state) don't-cares in synthesis."""

import pytest

from repro.cfsm import BinOp, CfsmBuilder, Const, Var, react
from repro.sgraph import synthesize
from repro.target import K11, analyze_program, compile_sgraph, run_reaction


def make_sparse_cycle():
    """An 8-value state variable whose protocol only ever visits {0,1,2}.

    States 3..7 carry dead transitions a naive synthesis must implement but
    a reachability-aware one can discard.
    """
    b = CfsmBuilder("sparse")
    go = b.pure_input("go")
    y = b.pure_output("y")
    z = b.pure_output("z")
    s = b.state("s", 8)
    for value, target in ((0, 1), (1, 2), (2, 0)):
        b.transition(
            when=[b.present(go), b.expr_test(BinOp("==", Var("s"), Const(value)))],
            do=[b.assign(s, Const(target))] + ([b.emit(y)] if value == 2 else []),
        )
    # Dead logic on unreachable states.
    for value in (3, 4, 5, 6, 7):
        b.transition(
            when=[b.present(go), b.expr_test(BinOp("==", Var("s"), Const(value)))],
            do=[b.assign(s, Const(value - 1)), b.emit(z)],
        )
    return b.build()


class TestSparseCycle:
    def test_code_shrinks(self):
        cfsm = make_sparse_cycle()
        base = analyze_program(compile_sgraph(synthesize(cfsm), K11), K11)
        slim = analyze_program(
            compile_sgraph(synthesize(cfsm, reachability_dontcares=True), K11),
            K11,
        )
        assert slim.code_size < base.code_size
        # The dead z-emission disappears entirely.
        slim_result = synthesize(cfsm, reachability_dontcares=True)
        from repro.cfsm import Emit

        live_actions = set()
        for vid in slim_result.sgraph.reachable():
            vertex = slim_result.sgraph.vertex(vid)
            if vertex.kind == "ASSIGN":
                action = slim_result.reactive.encoding.action_of_var(vertex.var)
                if isinstance(action, Emit):
                    live_actions.add(action.event.name)
        assert "z" not in live_actions

    def test_equivalence_on_reachable_states(self):
        """On states the protocol can actually reach, behaviour is intact."""
        cfsm = make_sparse_cycle()
        result = synthesize(cfsm, reachability_dontcares=True)
        program = compile_sgraph(result, K11)
        state = {"s": 0}
        for _ in range(9):
            expected = react(cfsm, state, {"go"})
            outcome = run_reaction(program, K11, cfsm, dict(state), {"go"}, {})
            assert outcome.fired == expected.fired
            assert outcome.emitted_names() == expected.emitted_names
            assert {"s": outcome.memory["s"]} == expected.new_state
            state = expected.new_state

    def test_chi_strictly_smaller(self):
        cfsm = make_sparse_cycle()
        base = synthesize(cfsm)
        slim = synthesize(cfsm, reachability_dontcares=True)
        assert slim.reactive.chi.size() < base.reactive.chi.size()


class TestGuards:
    def test_no_gain_is_harmless(self, dashboard_net):
        """Belt alarm: don't-cares exist but buy nothing — must stay correct."""
        belt = dashboard_net.machine("belt_alarm")
        base = analyze_program(compile_sgraph(synthesize(belt), K11), K11)
        slim = analyze_program(
            compile_sgraph(synthesize(belt, reachability_dontcares=True), K11),
            K11,
        )
        assert slim.code_size <= base.code_size + 4  # never meaningfully worse

    def test_huge_state_space_skipped(self, shock_net, monkeypatch):
        """Explorations past 65,536 condition evaluations are skipped.

        damping_logic has 16,384 states; road_classifier and abp_sender
        have 1,024 each but try 256 and 3,584 input combinations a state.
        """
        import repro.verify
        from repro.apps import abp_network

        skipped = ("damping_logic", "road_classifier", "abp_sender")
        real = repro.verify.ReachabilityAnalysis

        def analysis(cfsm, *args, **kwargs):
            assert cfsm.name not in skipped, f"{cfsm.name} was explored"
            return real(cfsm, *args, **kwargs)

        monkeypatch.setattr(repro.verify, "ReachabilityAnalysis", analysis)
        machines = [shock_net.machine(name) for name in skipped[:2]]
        machines.append(abp_network().machine("abp_sender"))
        for machine in machines:
            result = synthesize(machine, reachability_dontcares=True)
            assert result.sgraph is not None

    def test_work_counts_what_the_analysis_evaluates(
        self, dashboard_net, shock_net
    ):
        """The gate's figure: states x present-input sets x value samples."""
        from repro.sgraph import _MAX_EXPLORATION_WORK, _exploration_work
        from repro.verify import ReachabilityAnalysis

        works = {}
        for net in (dashboard_net, shock_net):
            for machine in net.machines:
                analysis = ReachabilityAnalysis(machine)
                space = 1
                for var in machine.state_vars:
                    space *= var.num_values
                combos = (1 << len(machine.inputs)) - 1
                samples = len(analysis._value_samples()) or 1  # havoc: one
                works[machine.name] = _exploration_work(machine)
                assert works[machine.name] == space * combos * samples
        assert works["accel_filter"] == works["speed_gauge"] == 65_536
        assert _MAX_EXPLORATION_WORK == 65_536
        assert works["road_classifier"] == 262_144
        assert works["damping_logic"] == 114_688

    def test_stateless_machine_skipped(self):
        b = CfsmBuilder("stateless")
        go = b.pure_input("go")
        y = b.pure_output("y")
        b.transition(when=[b.present(go)], do=[b.emit(y)])
        result = synthesize(b.build(), reachability_dontcares=True)
        assert result.sgraph is not None

    def test_work_guard_triggers(self):
        from repro.verify import ReachabilityAnalysis

        b = CfsmBuilder("churn")
        go = b.pure_input("go")
        x = b.state("x", 64)
        y = b.state("y", 64)
        b.transition(
            when=[b.present(go)],
            do=[
                b.assign(x, BinOp("+", Var("x"), Const(1))),
                b.assign(y, BinOp("+", Var("y"), Var("x"))),
            ],
        )
        analysis = ReachabilityAnalysis(b.build(), max_work=50)
        with pytest.raises(RuntimeError):
            analysis.explore()
