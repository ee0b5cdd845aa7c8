"""The sift reference's tier-1 tests again, on the Python manager.

A sift by a bare size probe explores on a private copy of χ, a manager of
the shared one's engine: on the native kernel each pass is one C call,
on the Python manager it is ``sifting._sift_pass``, the C pass's oracle
and the engine without a compiler.  This module re-runs the tier-1 tests
of ``test_sift_reference`` with the Python manager forced;
``test_kernel_python_engine`` re-runs ``test_sift_private_store`` (its
sifts included) the same way, so each test is collected once.
"""

import pytest

from .engines import engine
from .test_sift_reference import (  # noqa: F401 - collected here again
    test_build_cold_machine,
    test_example_module,
    test_fuzz_machine,
    test_live_node_function,
)


@pytest.fixture(autouse=True, scope="module")
def python_engine():
    with engine("python"):
        yield
