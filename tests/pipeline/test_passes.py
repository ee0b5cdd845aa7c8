"""The synthesis steps, in the order and with the metrics a trace records."""

import pytest

from repro.pipeline import BuildTrace
from repro.sgraph import SynthesisResult, synthesize, synthesize_from_reactive
from repro.synthesis import synthesize_reactive


def _step_names(cfsm, scheme="sift", **options):
    trace = BuildTrace()
    synthesize(cfsm, scheme=scheme, trace=trace, **options)
    return [e.name for e in trace.passes(cfsm.name)]


class TestSynthesisPassSequence:
    def test_default_sequence_is_the_declared_order(self, modal_cfsm):
        assert _step_names(modal_cfsm, copy_elimination=True) == [
            "order", "build", "reduce", "prune", "multiway", "copy-elim"
        ]

    def test_disabled_stages_are_omitted_not_noops(self, modal_cfsm):
        assert _step_names(modal_cfsm, multiway=False, prune=False) == [
            "order", "build", "reduce"
        ]
        # outputs-first has no state tests to merge into switches.
        assert "multiway" not in _step_names(modal_cfsm, scheme="outputs-first")

    def test_pipeline_matches_legacy_result(self, modal_cfsm):
        """The traced steps from a reactive function give synthesize()'s graph."""
        result = synthesize(modal_cfsm, scheme="sift", copy_elimination=True)
        assert isinstance(result, SynthesisResult)
        traced = synthesize_from_reactive(
            synthesize_reactive(modal_cfsm), scheme="sift",
            copy_elimination=True, trace=BuildTrace(),
        )
        assert traced.sgraph.counts() == result.sgraph.counts()
        assert traced.copy_vars == result.copy_vars
        assert traced.order == result.order

    def test_synthesize_emits_trace_with_metrics(self, modal_cfsm):
        trace = BuildTrace()
        synthesize(modal_cfsm, scheme="sift", trace=trace)
        names = [e.name for e in trace.passes(modal_cfsm.name)]
        assert names == ["order", "build", "reduce", "prune", "multiway"]
        order_event = trace.passes(modal_cfsm.name)[0]
        assert order_event.metrics["chi_nodes"] > 0
        build_event = trace.passes(modal_cfsm.name)[1]
        assert build_event.metrics["sgraph_vertices"] > 0

    def test_unknown_scheme_rejected(self, modal_cfsm):
        with pytest.raises(ValueError, match="unknown scheme"):
            synthesize(modal_cfsm, scheme="bogus")
