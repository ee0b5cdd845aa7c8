"""The sift cross-checks again, on the Python manager.

A sift by a bare size probe explores on a private copy of χ, a manager of
the shared one's engine: on the native kernel each pass is one C call,
on the Python manager it is ``sifting._sift_pass``, the C pass's oracle
and the engine without a compiler.  This module re-runs the tier-1 tests
of ``test_sift_reference`` and the sifting tests of
``test_sift_private_store`` with the Python manager forced.
"""

import pytest

from .engines import engine
from .test_sift_private_store import (  # noqa: F401 - collected here again
    test_private_sift_matches_in_place_sift,
    test_private_sift_ranks_blocks_by_every_root,
    test_shared_handle_dropped_mid_sift,
)
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
