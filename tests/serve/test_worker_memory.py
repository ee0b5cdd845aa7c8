"""A serve worker keeps no memory per request.

perfbench's serve-mixed ``peak_rss_mb`` rises with the number of requests
a run serves.  That rise is either the worker's request path holding on
to something per request, or the benchmark keeping every reply.  This
test drives the worker's path in process, with no daemon and no pool: a
fixed mix of estimate requests, hits and misses through one capped
shared cache, run as two rounds under ``tracemalloc``.  A path that kept
a reply, an artifact or a trace per request would grow the second round
by tens of KB; the bound allows under half of that.
"""

import gc
import tracemalloc

from repro.serve import tasks
from repro.serve.tasks import ServeRequestTask

_MACHINES = (
    "wheel_filter", "speedo", "odometer", "tacho", "speed_gauge", "belt_alarm",
)
#: Ten requests over six machines: repeats hit, the rest miss.
_MIX = [_MACHINES[i] for i in (0, 1, 0, 2, 3, 0, 4, 1, 5, 0)]
#: Room for two or three of the machines' entries, so most writes evict.
_CAP = 12_000
#: Growth allowed from the first traced round to the second.  Keeping
#: every reply grows a round by ~34 KB (ten ~3.4-KB estimate replies); a
#: round leaves under 2 KB in the interpreter's own tables.
_BOUND = 16 * 1024


def _round(cache_dir):
    """Serve the mix; returns the shared handle's hit and miss totals."""
    for name in _MIX:
        outcome = ServeRequestTask(
            "estimate", {"app": "dashboard", "machine": name},
            cache_dir=cache_dir, cache_max_bytes=_CAP,
        ).run(False)
        assert outcome.error is None, outcome.error
    cache = tasks._CACHES[(cache_dir, _CAP)]
    return cache.hits, cache.misses


def test_estimate_requests_keep_no_memory_per_request(tmp_path, monkeypatch):
    monkeypatch.setattr(tasks, "_CACHES", {})
    cache_dir = str(tmp_path / "cache")
    totals = [_round(cache_dir)]  # imports, calibration, libraries, entries
    tracemalloc.start()
    try:
        totals.append(_round(cache_dir))
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        totals.append(_round(cache_dir))
        gc.collect()
        second = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for (hits, misses), (more_hits, more_misses) in zip(totals, totals[1:]):
        assert more_hits > hits and more_misses > misses, totals
    assert second - first < _BOUND, (first, second)
