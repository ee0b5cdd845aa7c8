"""One builder: every module's artifacts come from ``build_module_artifacts``.

A build trace only watches: traced and untraced builds of every example
module give the same bytes and figures under every scheme.  The fuzz
oracle and the verifier take their artifacts from the same builder, so
they check the bytes a build ships, and a fault injected into the
estimator or the C generator reaches all three.
"""

from pathlib import Path

import pytest

from repro.analysis import ModuleVerifyContext
from repro.difftest import OracleOptions, inject_fault
from repro.difftest.oracle import build_case_artifacts
from repro.estimation import calibrate
from repro.frontend import compile_source
from repro.pipeline import BuildTrace, build_module_artifacts, synthesis_options
from repro.sgraph import SCHEMES
from repro.target import K11

RSL_DIR = Path(__file__).resolve().parents[2] / "examples" / "rsl"


@pytest.fixture(scope="module")
def examples():
    return [
        compile_source(path.read_text(encoding="utf-8"))
        for path in sorted(RSL_DIR.glob("*.rsl"))
    ]


def _figures(artifacts):
    return [
        (b.code_size, b.min_cycles, b.max_cycles)
        for b in (artifacts.estimate, artifacts.measured)
    ]


def _build(machine, scheme="sift", trace=None):
    params = calibrate(K11)
    options = synthesis_options(
        scheme=scheme, copy_elimination=True, params=params
    )
    artifacts, _ = build_module_artifacts(machine, options, K11, params, trace=trace)
    return artifacts


def test_tracing_changes_no_byte(examples):
    assert len(examples) == 17
    for machine in examples:
        for scheme in SCHEMES:
            trace = BuildTrace()
            traced = _build(machine, scheme, trace)
            untraced = _build(machine, scheme)
            where = (machine.name, scheme)
            assert trace.passes(machine.name), where
            assert traced.c_source == untraced.c_source, where
            assert traced.program.listing() == untraced.program.listing(), where
            assert _figures(traced) == _figures(untraced), where
            assert traced.copied_state_vars == untraced.copied_state_vars, where


def _three_builders(machine, scheme):
    built = _build(machine, scheme)
    case = build_case_artifacts(machine, OracleOptions(scheme=scheme))
    verify = ModuleVerifyContext.build(machine, scheme=scheme)
    return built, case, verify


@pytest.mark.parametrize("scheme", ["sift", "outputs-first"])
def test_oracle_and_verifier_check_the_built_bytes(examples, scheme):
    for machine in examples[:4]:
        built, case, verify = _three_builders(machine, scheme)
        listing = built.program.listing()
        assert case.source == verify.source == built.c_source
        assert case.program.listing() == verify.program.listing() == listing
        assert case.est == verify.est == built.estimate
        assert case.meas == verify.meas == built.measured


@pytest.mark.parametrize("fault", ["est-halve-max", "cgen-negate-presence"])
def test_an_injected_fault_reaches_every_caller(examples, fault):
    machine = next(m for m in examples if m.name == "belt_alarm")
    clean = _build(machine)
    with inject_fault(fault):
        built, case, verify = _three_builders(machine, "sift")
    assert case.source == verify.source == built.c_source
    assert case.est == verify.est == built.estimate
    if fault == "est-halve-max":
        assert built.estimate.max_cycles < clean.estimate.max_cycles
    else:
        assert built.c_source != clean.c_source
