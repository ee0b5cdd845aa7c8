"""The fleet simulator's tests again, with every shard on :meth:`step`.

Shards run natively whenever ``_fleet_run.c`` builds and loads; the
big-int planes of :meth:`repro.fleet.FleetShard.step` are its oracle and
the engine without a compiler.  This module re-collects
``test_fleet_sim`` with the Python engine forced.
"""

import pytest

from .engines import engine
from .test_fleet_sim import (  # noqa: F401 - collected here again
    TestCli,
    TestDeterminism,
    TestLaneExactness,
    TestRandomCampaign,
    TestStimulusSpec,
    TestSummary,
    compiled,
    dashboard,
)


@pytest.fixture(autouse=True, scope="module")
def python_engine():
    with engine("python"):
        yield
