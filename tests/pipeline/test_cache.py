"""Content addressing and the on-disk artifact cache."""

import hashlib
import pickle
import random

import pytest

from repro.estimation import calibrate
from repro.pipeline import (
    ArtifactCache,
    build_module_artifacts,
    cfsm_fingerprint,
    code_version,
    module_cache_key,
    options_fingerprint,
    profile_fingerprint,
    synthesis_options,
)
from repro.target import K11, K32

from ..conftest import make_counter_cfsm, make_modal_cfsm


class TestFingerprints:
    def test_cfsm_fingerprint_is_stable(self):
        assert cfsm_fingerprint(make_counter_cfsm()) == cfsm_fingerprint(
            make_counter_cfsm()
        )

    def test_cfsm_fingerprint_tracks_content(self):
        assert cfsm_fingerprint(make_counter_cfsm()) != cfsm_fingerprint(
            make_modal_cfsm()
        )

    def test_semantic_edit_changes_fingerprint(self):
        a = make_counter_cfsm()
        b = make_counter_cfsm()
        b.state_vars[0].init = 3
        assert cfsm_fingerprint(a) != cfsm_fingerprint(b)

    def test_options_fingerprint_ignores_dict_order(self):
        assert options_fingerprint({"a": 1, "b": 2}) == options_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_profile_fingerprint_differs_between_targets(self):
        assert profile_fingerprint(K11) != profile_fingerprint(K32)

    def test_code_version_is_memoized_hex(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64

    def test_key_depends_on_every_component(self):
        cfsm = make_counter_cfsm()
        params = calibrate(K11)
        base_opts = synthesis_options(scheme="sift", params=params)
        base = module_cache_key(cfsm, base_opts, K11)
        assert module_cache_key(cfsm, base_opts, K11) == base
        other_scheme = synthesis_options(scheme="naive", params=params)
        assert module_cache_key(cfsm, other_scheme, K11) != base
        assert module_cache_key(cfsm, base_opts, K32) != base
        assert module_cache_key(make_modal_cfsm(), base_opts, K11) != base


class TestArtifactCache:
    def _artifacts(self, cfsm, profile=K11):
        params = calibrate(profile)
        options = synthesis_options(scheme="sift", params=params)
        artifacts, _ = build_module_artifacts(cfsm, options, profile, params)
        return module_cache_key(cfsm, options, profile), artifacts

    def test_roundtrip(self, tmp_path):
        cfsm = make_counter_cfsm()
        key, artifacts = self._artifacts(cfsm)
        cache = ArtifactCache(str(tmp_path))
        assert cache.get(key) is None and cache.misses == 1
        cache.put(key, artifacts)
        assert key in cache and len(cache) == 1
        loaded = cache.get(key)
        assert cache.hits == 1
        assert loaded.c_source == artifacts.c_source
        assert loaded.estimate == artifacts.estimate
        assert loaded.measured == artifacts.measured
        assert loaded.program.listing() == artifacts.program.listing()
        assert loaded.copied_state_vars == artifacts.copied_state_vars

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cfsm = make_counter_cfsm()
        key, artifacts = self._artifacts(cfsm)
        cache = ArtifactCache(str(tmp_path))
        cache.put(key, artifacts)
        cache._path(key)
        with open(cache._path(key), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get(key) is None

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "ab" * 32
        path = cache._path(key)
        import os

        os.makedirs(os.path.dirname(path), exist_ok=True)
        # A well-formed entry (digest, then pickle) of a foreign version.
        body = pickle.dumps({"format": -1, "key": key, "payload": None})
        with open(path, "wb") as handle:
            handle.write(hashlib.sha256(body).digest() + body)
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cfsm = make_counter_cfsm()
        key, artifacts = self._artifacts(cfsm)
        cache = ArtifactCache(str(tmp_path))
        cache.put(key, artifacts)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_stats_line(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.get("00" * 32)
        assert "0 hits, 1 misses" in cache.stats()


def _same_artifacts(a, b):
    return (
        a.name == b.name
        and a.scheme == b.scheme
        and a.c_source == b.c_source
        and a.program.listing() == b.program.listing()
        and a.estimate == b.estimate
        and a.measured == b.measured
        and a.copied_state_vars == b.copied_state_vars
    )


def _flip_middle_bytes(root):
    """Flip one bit of the middle byte of every entry under ``root``."""
    entries = sorted(
        path for path in (root / "objects").glob("*/*.pkl")
        if not path.name.startswith(".tmp-")
    )
    for path in entries:
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
    return len(entries)


class TestCorruptEntries:
    """A damaged entry is a miss: never a crash, never wrong artifacts."""

    def test_seeded_corruptions_miss_or_return_the_stored_artifacts(
        self, tmp_path
    ):
        from repro.apps import dashboard_network

        speedo = next(
            m for m in dashboard_network().machines if m.name == "speedo"
        )
        params = calibrate(K11)
        options = synthesis_options(scheme="sift", params=params)
        stored, _ = build_module_artifacts(speedo, options, K11, params)
        key = module_cache_key(speedo, options, K11)
        cache = ArtifactCache(str(tmp_path))
        cache.put(key, stored)
        path = cache._path(key)
        with open(path, "rb") as handle:
            pristine = handle.read()

        rng = random.Random(17)
        for trial in range(300):
            blob = bytearray(pristine)
            kind = ("truncate", "flip", "overwrite")[trial % 3]
            if kind == "truncate":
                del blob[rng.randrange(len(blob)):]
            elif kind == "flip":
                for _ in range(rng.randint(1, 4)):
                    blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            else:
                at = rng.randrange(len(blob) - 8)
                blob[at:at + 8] = bytes(rng.randrange(256) for _ in range(8))
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
            loaded = cache.get(key)
            assert loaded is None or _same_artifacts(loaded, stored), (
                trial, kind
            )
        with open(path, "wb") as handle:
            handle.write(pristine)
        assert _same_artifacts(cache.get(key), stored)

    def test_build_over_a_fully_corrupted_cache_rebuilds_identical_c(
        self, tmp_path
    ):
        from repro.apps import dashboard_network
        from repro.flow import build_system

        reference = build_system(dashboard_network())
        build_system(dashboard_network(), cache=ArtifactCache(str(tmp_path)))
        assert _flip_middle_bytes(tmp_path) == len(reference.modules)

        cache = ArtifactCache(str(tmp_path))
        rebuilt = build_system(dashboard_network(), cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(reference.modules)
        assert list(rebuilt.modules) == list(reference.modules)
        for name, module in reference.modules.items():
            assert not rebuilt.modules[name].from_cache
            assert rebuilt.modules[name].c_source == module.c_source
        assert rebuilt.rtos_source == reference.rtos_source

        # The rebuild's writes replaced every damaged entry.
        again = ArtifactCache(str(tmp_path))
        build_system(dashboard_network(), cache=again)
        assert again.hits == len(reference.modules) and again.misses == 0


class TestEviction:
    """LRU eviction under ``max_bytes`` with in-flight pinning."""

    def _put_blob(self, cache, seed, size=1000):
        key = f"{seed:02x}" * 32
        cache.put(key, b"x" * size)
        return key

    def _age(self, cache, key, seconds):
        import os

        path = cache._path(key)
        stat = os.stat(path)
        os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        for seed in range(5):
            self._put_blob(cache, seed)
        assert cache.evictions == 0 and len(cache) == 5

    def test_eviction_honors_max_bytes(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=3000)
        keys = []
        for seed in range(4):
            keys.append(self._put_blob(cache, seed))
            self._age(cache, keys[-1], seconds=(10 - seed) * 60)
        # Un-pin to model a later process sharing the directory.
        fresh = ArtifactCache(str(tmp_path), max_bytes=3000)
        fresh.put(self._put_blob(cache, 0xEE, size=1), b"")  # trigger fit
        assert fresh.total_bytes() <= 3000
        assert fresh.evictions > 0
        # Oldest entry went first.
        assert keys[0] not in fresh
        assert keys[-1] in fresh

    def test_in_flight_entries_are_never_evicted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=1500)
        first = self._put_blob(cache, 1)
        self._age(cache, first, seconds=600)
        # ``first`` was just written by *this* process: pinned.  A second
        # oversized write must not evict it even though the store exceeds
        # max_bytes with both pinned.
        second = self._put_blob(cache, 2)
        assert first in cache and second in cache
        assert cache.evictions == 0

    def test_hit_refreshes_recency_and_pins(self, tmp_path):
        seeder = ArtifactCache(str(tmp_path))
        old = self._put_blob(seeder, 1)
        newer = self._put_blob(seeder, 2)
        self._age(seeder, old, seconds=600)
        self._age(seeder, newer, seconds=300)
        # Each pickled blob is a bit over 1 KB; the cap fits two entries.
        cache = ArtifactCache(str(tmp_path), max_bytes=2400)
        assert cache.get(old) is not None  # touch + pin the LRU entry
        cache._pinned.discard(old)  # isolate the mtime refresh
        self._put_blob(cache, 3)
        # ``newer`` is now the stalest unpinned entry and gets evicted.
        assert newer not in cache
        assert old in cache

    def test_metrics_dict_and_registry_export(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=10_000)
        cache.get("00" * 32)
        key = self._put_blob(cache, 1)
        cache.get(key)
        metrics = cache.metrics_dict()
        assert metrics["cache_hits"] == 1
        assert metrics["cache_misses"] == 1
        assert metrics["cache_evictions"] == 0
        assert metrics["cache_bytes"] > 0

    def test_stats_renders_without_registry(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=4096)
        cache.get("00" * 32)
        text = str(cache)
        assert "0 hits, 1 misses" in text
        assert "(0% hit rate)" in text
        assert "(max 4096)" in text


class TestParamsInKey:
    def test_different_cost_params_change_the_key(self):
        cfsm = make_counter_cfsm()
        k11 = synthesis_options(scheme="sift", params=calibrate(K11))
        k32 = synthesis_options(scheme="sift", params=calibrate(K32))
        assert module_cache_key(cfsm, k11, K11) != module_cache_key(
            cfsm, k32, K11
        )

    def test_default_params_sentinel(self):
        options = synthesis_options(scheme="sift")
        assert options["params"] == "default"


@pytest.mark.parametrize("scheme", ["naive", "sift", "outputs-first"])
def test_cached_artifacts_are_byte_identical_per_scheme(tmp_path, scheme):
    cfsm = make_modal_cfsm()
    params = calibrate(K11)
    options = synthesis_options(scheme=scheme, params=params)
    fresh, _ = build_module_artifacts(cfsm, options, K11, params)
    cache = ArtifactCache(str(tmp_path))
    key = module_cache_key(cfsm, options, K11)
    cache.put(key, fresh)
    again, _ = build_module_artifacts(cfsm, options, K11, params)
    cached = cache.get(key)
    assert cached.c_source == again.c_source == fresh.c_source
    assert cached.program.listing() == again.program.listing()
