"""Tests for s-graph construction (Theorem 1) and reduction."""

import pytest

from repro.cfsm import AssignState, Emit, react
from repro.sgraph import (
    ASSIGN,
    TEST,
    build_sgraph,
    reduce_sgraph,
    synthesize,
)
from repro.synthesis import synthesize_reactive

from ..conftest import all_snapshots, make_counter_cfsm, make_modal_cfsm, make_simple_cfsm

SCHEMES = ("naive", "sift", "sift-strict", "outputs-first", "mixed")
MACHINES = {
    "simple": make_simple_cfsm,
    "counter": make_counter_cfsm,
    "modal": make_modal_cfsm,
}


def check_equivalence(cfsm, result):
    """Exhaustively compare s-graph evaluation to the reference semantics."""
    rf = result.reactive
    sg = result.sgraph
    for state, present, values in all_snapshots(cfsm):
        expected = react(cfsm, state, present, values)
        bits = rf.encoding.evaluate_inputs(state, present, values)
        outcome = sg.evaluate(bits)
        actions = [
            rf.encoding.action_of_var(v)
            for v, value in outcome.outputs.items()
            if value
        ]
        emitted = {a.event.name for a in actions if isinstance(a, Emit)}
        assert emitted == expected.emitted_names, (state, present, values)
        new_state = dict(state)
        env = dict(state)
        for event in cfsm.inputs:
            if event.is_valued:
                env[f"?{event.name}"] = (values or {}).get(event.name, 0)
        for a in actions:
            if isinstance(a, AssignState):
                new_state[a.var.name] = a.value.evaluate(env) % a.var.num_values
        assert new_state == expected.new_state, (state, present, values)
        fired = bool(actions)
        assert fired == expected.fired, (state, present, values)


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_theorem1_equivalence(machine, scheme):
    """Every ordering scheme produces an s-graph computing the CFSM reaction."""
    cfsm = MACHINES[machine]()
    result = synthesize(cfsm, scheme=scheme)
    check_equivalence(cfsm, result)


class TestBuildStructure:
    def test_outputs_first_has_no_tests(self, simple_cfsm):
        result = synthesize(simple_cfsm, scheme="outputs-first")
        assert result.sgraph.counts()[TEST] == 0

    def test_scheme_i_sgraph_mirrors_chi_bdd(self, simple_cfsm):
        """Sec. III-B3b: the s-graph "corresponds exactly" to the chi BDD.

        Before zero-assign pruning, each internal chi BDD node maps to one
        TEST or ASSIGN vertex under the outputs-after-support ordering.
        """
        result = synthesize(
            simple_cfsm, scheme="sift", multiway=False, prune=False
        )
        chi_nodes = result.reactive.chi.size() - 2  # minus terminals
        sg = result.sgraph
        internal = sg.counts()[TEST] + sg.counts()[ASSIGN]
        assert internal == chi_nodes

    def test_order_validation(self, simple_cfsm):
        rf = synthesize_reactive(simple_cfsm)
        with pytest.raises(ValueError):
            build_sgraph(rf, order=rf.input_vars)  # missing outputs

    def test_each_input_tested_at_most_once_per_path(self, modal_cfsm):
        result = synthesize(modal_cfsm, scheme="sift", multiway=False)
        sg = result.sgraph

        def walk(vid, seen):
            vertex = sg.vertex(vid)
            if vertex.kind == TEST:
                assert vertex.var not in seen
                for child in vertex.children:
                    walk(child, seen | {vertex.var})
            elif vertex.children:
                for child in vertex.children:
                    walk(child, seen)

        walk(sg.vertex(sg.begin).children[0], set())

    def test_infeasible_edges_marked(self, modal_cfsm):
        """mode has 3 of 4 codes valid: somewhere an edge is infeasible."""
        result = synthesize(modal_cfsm, scheme="naive", multiway=False)
        sg = result.sgraph
        flags = [
            flag
            for vid in sg.reachable()
            for flag in sg.vertex(vid).infeasible
        ]
        assert any(flags)

    def test_functional_check(self, simple_cfsm):
        result = synthesize(simple_cfsm, scheme="sift", prune=False, multiway=False)
        rf = result.reactive
        care_bits = [
            rf.encoding.evaluate_inputs(state, present, values)
            for state, present, values in all_snapshots(simple_cfsm)
        ]
        assert result.sgraph.check_functional(care_bits)

    def test_depth_counts_vertices(self, simple_cfsm):
        result = synthesize(simple_cfsm, scheme="sift")
        assert result.sgraph.depth() >= 3  # BEGIN, something, END


class TestReduce:
    def test_reduce_removes_duplicates(self, counter_cfsm):
        rf = synthesize_reactive(counter_cfsm)
        sg = build_sgraph(rf)
        before = len(sg.reachable())
        removed = reduce_sgraph(sg)
        after = len(sg.reachable())
        assert after == before - removed or removed == 0

    def test_reduce_idempotent(self, counter_cfsm):
        rf = synthesize_reactive(counter_cfsm)
        sg = build_sgraph(rf)
        reduce_sgraph(sg)
        assert reduce_sgraph(sg) == 0

    def test_reduce_preserves_semantics(self, counter_cfsm):
        result = synthesize(counter_cfsm, scheme="naive")
        reduce_sgraph(result.sgraph)
        check_equivalence(counter_cfsm, result)


class TestEvaluate:
    def test_path_recorded(self, simple_cfsm):
        result = synthesize(simple_cfsm, scheme="sift")
        rf = result.reactive
        bits = rf.encoding.evaluate_inputs({"a": 0}, set(), {})
        outcome = result.sgraph.evaluate(bits)
        assert outcome.path[0] == result.sgraph.begin
        assert outcome.path[-1] == result.sgraph.end

    def test_unknown_scheme_rejected(self, simple_cfsm):
        with pytest.raises(ValueError):
            synthesize(simple_cfsm, scheme="quantum")


def test_synthesis_leaves_no_manager_alive(monkeypatch, dashboard_net, shock_net):
    """Every manager a synthesis makes is freed when its result is dropped,
    without the cyclic collector: no recursive closure of the builder or
    of the multiway merge holds it in a cycle.  A sift makes two: the
    module's, and the private copy of χ it explores on."""
    import gc
    import weakref

    from repro.apps import abp_network
    from repro.bdd import BddManager

    made = []
    new = BddManager.__new__

    def recording_new(cls, *args, **kwargs):
        # __new__, not __init__: the native kernel's manager has its own.
        manager = new(cls, *args, **kwargs)
        made.append(weakref.ref(manager))
        return manager

    monkeypatch.setattr(BddManager, "__new__", recording_new)
    machines = [
        m for net in (dashboard_net, shock_net, abp_network()) for m in net.machines
    ]
    gc.collect()
    gc.disable()
    try:
        for machine in machines:
            for scheme in SCHEMES:
                synthesize(machine, scheme=scheme)
        alive = [ref for ref in made if ref() is not None]
    finally:
        gc.enable()
    sifts = sum(scheme in ("sift", "sift-strict") for scheme in SCHEMES)
    assert len(made) == 17 * (len(SCHEMES) + sifts) == 119
    assert alive == []
