"""Tests for the whole-design synthesis flows (Table III comparators)."""

import pytest

from repro.baselines import circuit_style_flow, polis_flow, single_fsm_flow
from repro.cfsm import Network
from repro.target import K11


@pytest.fixture(scope="module")
def small_net():
    """Three of the dashboard modules: enough structure, fast to compose."""
    from repro.apps import dashboard_machines

    machines = {m.name: m for m in dashboard_machines()}
    return Network(
        "mini_dash",
        [machines["wheel_filter"], machines["speedo"], machines["speed_gauge"]],
    )


class TestFlows:
    def test_polis_flow_collects_all_modules(self, small_net):
        flow = polis_flow(small_net, K11)
        assert set(flow.programs) == {m.name for m in small_net.machines}
        assert flow.code_size == sum(
            p.total_size for p in flow.programs.values()
        )

    def test_single_fsm_flow_builds_one_program(self, small_net):
        flow = single_fsm_flow(small_net, K11)
        assert len(flow.programs) == 1
        assert flow.code_size > 0

    def test_polis_smaller_than_single_fsm_at_scale(self):
        """The central Table III claim.

        The product blowup is a scale effect: tiny designs compose for
        free, but once enough loosely-coupled modules are flattened the
        single-FSM code dwarfs the modular total.
        """
        from repro.apps import dashboard_machines

        machines = {m.name: m for m in dashboard_machines()}
        net = Network(
            "dash5",
            [
                machines[name]
                for name in (
                    "wheel_filter", "speedo", "speed_gauge",
                    "odometer", "belt_alarm",
                )
            ],
        )
        polis = polis_flow(net, K11)
        esterel = single_fsm_flow(net, K11)
        assert polis.code_size < esterel.code_size
        # The 2x+ blowup is asserted at full-dashboard scale by
        # benchmarks/bench_table3_esterel.py; at five modules the gap is
        # already clear but smaller.
        assert esterel.code_size > 1.5 * polis.code_size

    def test_circuit_style_does_not_beat_single_fsm(self, small_net):
        """Sec. V-A: Boolean-circuit sharing 'does not help'."""
        esterel = single_fsm_flow(small_net, K11)
        opt = circuit_style_flow(small_net, K11)
        assert opt.code_size >= esterel.code_size

    def test_flow_metrics_consistent(self, small_net):
        flow = polis_flow(small_net, K11)
        assert flow.min_cycles <= flow.max_cycles
        assert flow.synthesis_seconds > 0
        assert "POLIS" in str(flow)

    def test_modular_synthesis_faster(self, small_net):
        """Modular synthesis does less BDD work than the product machine.

        Counted, not timed: one timed run of each flow on three small
        modules differs by well under a millisecond, and the first flow
        of a process pays its one-time costs (the native libraries'
        build or load) inside its window.  The wall-clock comparison is
        asserted at full-dashboard scale by
        benchmarks/bench_table3_esterel.py.
        """

        def work(flow):
            totals = {"ite_cache_misses": 0, "swaps": 0}
            for result in flow.results.values():
                counters = result.reactive.manager.counters()
                for name in totals:
                    totals[name] += counters[name]
            return totals

        polis = work(polis_flow(small_net, K11))
        esterel = work(single_fsm_flow(small_net, K11))
        assert polis["ite_cache_misses"] < esterel["ite_cache_misses"]
        assert polis["swaps"] < esterel["swaps"]
