"""The library builds the reference's reactive function, edge for edge.

See :mod:`tests.synthesis.reactive_reference` for the reference construction
and the corpus.  Tier-1 checks the example modules with and without
state-test folding, the build-cold machines, every tenth fuzz machine and
the reachable-state don't-care machines; the whole corpus runs through the
same helpers in CI.
"""

import pytest

from .reactive_reference import (
    BUILD_COLD_CASES,
    EXAMPLES,
    FUZZ_CASES,
    build_cold_machine,
    crosscheck_machine,
    example_machine,
    fuzz_machine,
    reachability_machines,
    reachable_states_of,
)


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "unfolded"])
@pytest.mark.parametrize("name", EXAMPLES)
def test_example_module(name, fold):
    crosscheck_machine(example_machine(name), fold_state_tests=fold)


@pytest.mark.parametrize("index", range(BUILD_COLD_CASES))
def test_build_cold_machine(index):
    crosscheck_machine(build_cold_machine(index))


@pytest.mark.parametrize("index", range(0, FUZZ_CASES, 10))
def test_fuzz_machine(index):
    crosscheck_machine(fuzz_machine(index))


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "unfolded"])
def test_reachable_state_dontcares(fold):
    for cfsm in reachability_machines():
        reachable = reachable_states_of(cfsm)
        assert reachable, cfsm.name
        crosscheck_machine(cfsm, fold_state_tests=fold, reachable_states=reachable)
