"""The kernel's tests again, on the Python manager.

``BddManager()`` runs on the native kernel whenever ``_bdd_kernel.c``
builds and loads; the Python manager is its oracle and the engine without
a compiler.  This module re-runs the manager, equivalence, reordering,
size-probe and property tests, the private-store sifts, the sift pin and
the reactive reference with the Python manager forced (on the native sift
store when it loads), and the sift pin once more with both Python
engines.  ``test_sift_python_engine`` covers the native kernel with the
Python sift store.
"""

import pytest

from tests.sgraph.test_sift_pin import (  # noqa: F401 - collected here again
    DIGEST,
    SWAPS,
    sift_rows,
    test_sift_outcome_is_pinned,
)
from tests.synthesis.test_reactive_reference import *  # noqa: F401,F403

from . import sift_reference
from .engines import engine
from .test_kernel_equivalence import *  # noqa: F401,F403
from .test_manager import *  # noqa: F401,F403
from .test_property import *  # noqa: F401,F403
from .test_reorder import *  # noqa: F401,F403
from .test_sift_private_store import *  # noqa: F401,F403
from .test_size_probe import *  # noqa: F401,F403


@pytest.fixture(autouse=True, scope="module")
def python_engine():
    with engine("python"):
        yield


def test_sift_outcome_is_pinned_on_both_python_engines():
    with sift_reference.engine("python"):
        test_sift_outcome_is_pinned()


def test_the_python_manager_runs():
    from repro.bdd import BddManager

    assert not BddManager()._native
