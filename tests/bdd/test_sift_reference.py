"""The library's sifting takes the reference engine's decisions, in fewer swaps.

See :mod:`tests.bdd.sift_reference` for both engines and the corpus.  Tier-1
sifts the example modules, the build-cold machines, every tenth fuzz
machine and two of the bench's three live-node functions; the whole corpus
runs through the same helpers in CI.
"""

import pytest

from .sift_reference import (
    BUILD_COLD_CASES,
    EXAMPLES,
    FUZZ_CASES,
    build_cold_machine,
    crosscheck_live_node_function,
    crosscheck_machine,
    example_machine,
    fuzz_machine,
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_module(name):
    crosscheck_machine(example_machine(name))


@pytest.mark.parametrize("index", range(BUILD_COLD_CASES))
def test_build_cold_machine(index):
    crosscheck_machine(build_cold_machine(index))


@pytest.mark.parametrize("index", range(0, FUZZ_CASES, 10))
def test_fuzz_machine(index):
    crosscheck_machine(fuzz_machine(index))


# The stress DNF takes seconds under the reference engine; it runs with
# the whole corpus only.
@pytest.mark.parametrize("name", ["small", "independent"])
def test_live_node_function(name):
    reference, library = crosscheck_live_node_function(name)
    assert library < reference
