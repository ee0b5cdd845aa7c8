"""Concurrency properties of the shared-mode :class:`ArtifactCache`.

Two real processes hammer one cache directory with a ``max_bytes`` small
enough to force constant LRU eviction.  The shared-mode guarantees under
test:

* **never a torn artifact** — every ``get`` returns either ``None`` or a
  payload whose embedded checksum matches its blob (atomic temp+rename
  writes, corrupt entries read as misses);
* **never evict a pinned entry** — an entry another live process holds
  in-flight survives any amount of eviction pressure from this one;
* **convergent counters** — ``shared_metrics()`` equals the sum of every
  process's own hit/miss/eviction totals once all have synced.
"""

import hashlib
import multiprocessing
import os
import random

from repro.pipeline import ArtifactCache

_BLOB_BYTES = 4096
_KEYSPACE = 24
#: Roughly a third of the keyspace fits: eviction runs constantly.
_MAX_BYTES = 8 * (_BLOB_BYTES + 512)


def _key(index):
    return hashlib.sha256(f"shared-cache-key-{index}".encode()).hexdigest()


def _payload(index):
    blob = bytes((index + i) % 251 for i in range(_BLOB_BYTES))
    return {
        "index": index,
        "blob": blob,
        "sha": hashlib.sha256(blob).hexdigest(),
    }


def _intact(payload):
    return (
        isinstance(payload, dict)
        and hashlib.sha256(payload["blob"]).hexdigest() == payload["sha"]
        and payload["blob"] == _payload(payload["index"])["blob"]
    )


def _hammer(root, seed, iterations, out):
    """One worker process: random get/put churn with integrity checks."""
    rng = random.Random(seed)
    cache = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    torn = 0
    for step in range(iterations):
        index = rng.randrange(_KEYSPACE)
        key = _key(index)
        if rng.random() < 0.5:
            payload = cache.get(key)
            if payload is not None and not _intact(payload):
                torn += 1
        else:
            cache.put(key, _payload(index))
        if step % 16 == 15:
            cache.release_pins()  # pins are per-request in the daemon
    cache.release_pins()
    cache.sync_counters()
    out.put({
        "pid": os.getpid(),
        "torn": torn,
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
    })


def _flood(root, start, count):
    """Fill the store with ``count`` fresh entries, forcing eviction."""
    cache = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    for index in range(start, start + count):
        cache.put(_key(index), _payload(index))
        cache.release_pins()
    cache.sync_counters()


def test_two_processes_never_tear_and_counters_converge(tmp_path):
    root = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    workers = [
        ctx.Process(target=_hammer, args=(root, seed, 300, out))
        for seed in (11, 23)
    ]
    for worker in workers:
        worker.start()
    reports = [out.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0

    assert all(r["torn"] == 0 for r in reports), reports

    # Fleet-wide counters: the per-pid mirrors sum to the true totals.
    cache = ArtifactCache(root, shared=True)
    metrics = cache.shared_metrics()
    for field in ("hits", "misses", "evictions"):
        assert metrics[field] == sum(r[field] for r in reports), (
            field, metrics, reports,
        )
    # Churn over an undersized store must actually have evicted.
    assert metrics["evictions"] > 0
    # Both processes stayed under the cap while they ran; with no pins
    # left, one more bounded write settles the store under it again.
    cache_bounded = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    cache_bounded.put(_key(0), _payload(0))
    cache_bounded.release_pins()
    assert cache_bounded.total_bytes() <= _MAX_BYTES
    # No pins survive the workers (release_pins ran on every exit path).
    assert cache.pin_files() == []


def test_pinned_entry_survives_foreign_eviction_pressure(tmp_path):
    root = str(tmp_path / "cache")
    holder = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    pinned_key = _key(0)
    holder.put(pinned_key, _payload(0))
    assert holder.get(pinned_key) is not None  # re-pins as in-flight
    assert holder.pinned_count() == 1

    # A second process floods the store far past max_bytes: everything
    # unpinned is fair game, the pinned entry is not.
    ctx = multiprocessing.get_context("fork")
    flood = ctx.Process(target=_flood, args=(root, 100, 40))
    flood.start()
    flood.join(timeout=120)
    assert flood.exitcode == 0

    assert pinned_key in holder
    payload = holder.get(pinned_key)
    assert payload is not None and _intact(payload)

    # Once released, the same pressure may reclaim it.
    holder.release_pins()
    assert holder.pinned_count() == 0
    flood2 = ctx.Process(target=_flood, args=(root, 200, 40))
    flood2.start()
    flood2.join(timeout=120)
    assert flood2.exitcode == 0
    assert pinned_key not in holder  # oldest entry, no pin: evicted


def test_dead_process_pins_are_garbage_collected(tmp_path):
    root = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("fork")

    # A process that pins an entry and dies without releasing.
    def _pin_and_die(root):
        cache = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
        cache.put(_key(0), _payload(0))
        # no release_pins(): simulates a crashed worker

    crasher = ctx.Process(target=_pin_and_die, args=(root,))
    crasher.start()
    crasher.join(timeout=60)
    assert crasher.exitcode == 0

    cache = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    assert len(cache.pin_files()) == 1  # the stale marker is on disk

    # Eviction pressure from a live process clears the dead pid's marker
    # and may then evict the entry itself: one crash never wedges the LRU.
    for index in range(1, 12):
        cache.put(_key(index), _payload(index))
        cache.release_pins()
    stale = [name for name in cache.pin_files()
             if f".{crasher.pid}.pin" in name]
    assert stale == []


def test_in_progress_temp_files_are_invisible_to_eviction(tmp_path):
    """A writer's temp file must never be scanned, sized, or unlinked.

    Regression: ``_entries()`` used to match ``.tmp-*.pkl``, so a
    concurrent process's eviction sweep could unlink a half-written temp
    file and crash the writer's ``os.replace`` mid-``put``.
    """
    root = str(tmp_path / "cache")
    cache = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    cache.put(_key(0), _payload(0))
    bucket = os.path.dirname(cache._path(_key(0)))
    tmp = os.path.join(bucket, ".tmp-abcdef.pkl")
    with open(tmp, "wb") as handle:
        handle.write(b"x" * _BLOB_BYTES)
    before = len(cache)
    assert cache.total_bytes() < _BLOB_BYTES + before * (_BLOB_BYTES + 512)
    cache.release_pins()
    for index in range(1, 12):  # heavy eviction pressure
        cache.put(_key(index), _payload(index))
        cache.release_pins()
    assert os.path.exists(tmp)  # the in-progress write was left alone
    assert ".tmp-abcdef" not in [key for _, _, key, _ in cache._entries()]


def test_local_mode_never_writes_shared_bookkeeping(tmp_path):
    """Plain (non-shared) caches must not sprout pins/counters/locks."""
    root = str(tmp_path / "cache")
    cache = ArtifactCache(root, max_bytes=_MAX_BYTES)
    for index in range(12):
        cache.put(_key(index), _payload(index))
        assert cache.get(_key(index)) is not None
    cache.release_pins()
    assert not os.path.exists(os.path.join(root, "pins"))
    assert not os.path.exists(os.path.join(root, "counters"))
    assert cache.shared_metrics() == {"hits": 0, "misses": 0, "evictions": 0}


def test_shared_sweeps_prune_fan_outs_and_keep_the_bookkeeping(tmp_path):
    """Only emptied ``objects/`` fan-outs go; pins and counters stay."""
    root = str(tmp_path / "cache")
    for prefix in range(256):
        os.makedirs(os.path.join(root, "objects", f"{prefix:02x}"))
    cache = ArtifactCache(root, max_bytes=_MAX_BYTES, shared=True)
    cache.put(_key(0), _payload(0))
    assert os.listdir(os.path.join(root, "objects")) == [_key(0)[:2]]
    assert cache.pin_files() == [f"{_key(0)}.{os.getpid()}.pin"]
    cache.release_pins()
    assert os.listdir(os.path.join(root, "counters")) == [f"{os.getpid()}.json"]


def test_a_pinned_entry_keeps_its_fan_out_until_released(tmp_path):
    root = str(tmp_path / "cache")
    holder = ArtifactCache(root, shared=True)
    holder.put(_key(0), _payload(0))
    bucket = os.path.dirname(holder._path(_key(0)))
    other = ArtifactCache(root, max_bytes=_BLOB_BYTES + 512, shared=True)
    other.put(_key(1), _payload(1))
    other.release_pins()
    assert other.evictions == 0 and os.path.isdir(bucket)
    holder.release_pins()
    other.put(_key(2), _payload(2))
    assert other.evictions == 2  # the released entry and key 1
    assert not os.path.exists(bucket)
    assert os.listdir(os.path.join(root, "objects")) == [_key(2)[:2]]
