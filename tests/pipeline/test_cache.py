"""Content addressing and the on-disk artifact cache."""

import hashlib
import os
import pickle
import random
import tempfile

import pytest

from repro.estimation import calibrate
from repro.pipeline import (
    ArtifactCache,
    BuildTrace,
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

    def test_code_version_covers_the_c_kernel(self, tmp_path):
        """The BDD kernel's C source decides every sift, so it keys too."""
        from repro.pipeline.cache import _source_version

        def tree(name, kernel):
            bdd = tmp_path / name / "bdd"
            (bdd / "__pycache__").mkdir(parents=True)
            (bdd / "manager.py").write_text("SIFT = 1\n")
            (bdd / "_bdd_kernel.c").write_text(kernel)
            (bdd / "__pycache__" / "_bdd_kernel.k.so").write_bytes(os.urandom(8))
            return _source_version(str(tmp_path / name))

        old = tree("old", "int bk_sift_pass(void) { return 0; }\n")
        assert tree("same", "int bk_sift_pass(void) { return 0; }\n") == old
        assert tree("new", "int bk_sift_pass(void) { return 1; }\n") != old

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

    def test_a_build_keys_every_module_as_module_cache_key_does(self):
        """Hashing the build-invariant part once leaves every key's bytes."""
        from repro.apps import abp_network, dashboard_network, shock_network
        from repro.flow import build_system

        class Recorder:  # the three calls build_system makes on a cache
            def __init__(self):
                self.keys = []

            def get(self, key):
                self.keys.append(key)

            def put(self, key, payload):
                pass

            def metrics_dict(self):
                return {}

        def spelled_out(cfsm, options, profile):
            joined = "|".join((
                "key/v1", cfsm_fingerprint(cfsm), options_fingerprint(options),
                profile_fingerprint(profile), code_version(),
            ))
            return hashlib.sha256(joined.encode("utf-8")).hexdigest()

        machines = 0
        for network in (dashboard_network(), shock_network(), abp_network()):
            for profile in (K11, K32):
                recorder = Recorder()
                build_system(network, profile=profile, cache=recorder)
                options = synthesis_options(
                    scheme="sift", copy_elimination=True,
                    params=calibrate(profile),
                )
                assert recorder.keys == [
                    spelled_out(m, options, profile) for m in network.machines
                ]
                assert recorder.keys == [
                    module_cache_key(m, options, profile)
                    for m in network.machines
                ]
            machines += len(network.machines)
        assert machines == 17


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


@pytest.fixture
def scans(monkeypatch):
    """Every store-wide scan any handle makes, as the roots it scanned."""
    calls = []
    scan = ArtifactCache._scan

    def counted(self):
        calls.append(self.root)
        return scan(self)

    monkeypatch.setattr(ArtifactCache, "_scan", counted)
    return calls


def _key(index):
    return hashlib.sha256(f"sweep-{index}".encode()).hexdigest()


def _fan_outs(root):
    objects = os.path.join(str(root), "objects")
    return {name: os.listdir(os.path.join(objects, name)) for name in os.listdir(objects)}


def _scripted_evictions(root):
    """Evicted key prefixes, by step, of a scripted put/get sequence.

    Every touched entry's mtime is forced to ``1_000_000 + step // 4``, so
    runs of four steps tie on mtime and the sweep's order falls back to
    size, then key.  Pins are released after every step, so only the cap
    and that order decide what goes.
    """
    sizes = [700, 300, 1200, 300, 900, 500, 300, 1100, 800, 300, 600, 1000]
    keys = [hashlib.sha256(f"lru-{i}".encode()).hexdigest() for i in range(12)]
    rng = random.Random(27)
    script = [
        ("get" if rng.random() < 0.4 else "put", rng.randrange(12))
        for _ in range(48)
    ]
    cache = ArtifactCache(root, max_bytes=4000)
    present = set()
    evicted = []
    for step, (kind, index) in enumerate(script):
        key = keys[index]
        if kind == "put":
            cache.put(key, b"x" * sizes[index])
        else:
            cache.get(key)
        path = cache._path(key)
        if os.path.exists(path):
            os.utime(path, (1_000_000 + step // 4,) * 2)
        cache.release_pins()
        now = {k for k in keys if k in cache}
        evicted += [(step, k[:8]) for k in sorted(present - now)]
        present = now
    return evicted


#: ``_scripted_evictions`` as recorded once on the ``os.walk`` sweep that
#: preceded the ``scandir`` one: the scan changed, the LRU order did not.
_RECORDED_EVICTIONS = [
    (15, "04ba2c01"), (15, "7f43b775"), (15, "d172e0de"), (17, "a908a428"),
    (18, "e599eb66"), (20, "4c0d8eae"), (21, "8ce5ecf2"), (24, "2be26dad"),
    (29, "4f8f987a"), (31, "7f43b775"), (36, "04ba2c01"), (36, "e3b5da44"),
    (42, "04ba2c01"), (42, "e599eb66"),
]


class TestSweeps:
    """A sweep costs what the store holds, and its byte count is reused."""

    def _seed_fillers(self, root, count=6, size=3000):
        seeder = ArtifactCache(root)
        for index in range(count):
            seeder.put(_key(index), b"f" * size)
            os.utime(seeder._path(_key(index)), (1_000_000,) * 2)

    def test_a_capped_build_scans_once_per_miss(self, tmp_path, scans):
        from repro.apps import dashboard_network
        from repro.flow import build_system

        root = str(tmp_path)
        self._seed_fillers(root)
        # Room for the dashboard's eight entries (~35 KB) and a few fillers.
        cold = ArtifactCache(root, max_bytes=45_000)
        trace = BuildTrace()
        build_system(dashboard_network(), cache=cold, trace=trace)
        assert cold.misses == 8 and len(scans) == 8
        assert cold.evictions > 0
        assert trace.metrics["cache_bytes"] == cold._swept_bytes
        assert "bytes stored" in cold.stats() and len(scans) == 8
        assert trace.metrics["cache_bytes"] == cold.total_bytes()

        keys = [e.metrics["key"] for e in trace.events if e.kind == "cache"]
        for key in keys[:3]:
            os.unlink(cold._path(key))
        del scans[:]
        warm = ArtifactCache(root, max_bytes=45_000)
        trace = BuildTrace()
        build_system(dashboard_network(), cache=warm, trace=trace)
        assert (warm.hits, warm.misses) == (5, 3)
        assert len(scans) == 3
        warm.stats()
        assert len(scans) == 3
        assert trace.metrics["cache_bytes"] == warm.total_bytes()

    def test_a_serve_hit_scans_nothing(self, tmp_path, scans, monkeypatch):
        """A response carries its worker handle's counters, not the store's
        bytes, so a request that hits reads no directory of the store."""
        from repro.serve import tasks

        monkeypatch.setattr(tasks, "_CACHES", {})
        metas = []
        for _ in range(2):
            outcome = tasks.ServeRequestTask(
                "estimate", {"app": "dashboard", "machine": "speedo"},
                cache_dir=str(tmp_path), cache_max_bytes=1 << 20,
            ).run(False)
            assert outcome.error is None, outcome.error
            metas.append(outcome.meta["cache"])
            if len(metas) == 1:
                assert len(scans) == 1  # the miss's capped put swept once
                del scans[:]
        assert scans == []
        assert metas == [
            {"cache_hits": 0, "cache_misses": 1, "cache_evictions": 0},
            {"cache_hits": 1, "cache_misses": 1, "cache_evictions": 0},
        ]

    def test_bytes_are_rescanned_after_a_get_or_without_a_sweep(
        self, tmp_path, scans
    ):
        capped = ArtifactCache(str(tmp_path), max_bytes=10_000)
        capped.put(_key(0), b"x" * 100)
        assert len(scans) == 1
        capped.metrics_dict()
        assert len(scans) == 1
        capped.get(_key(0))
        capped.metrics_dict()
        assert len(scans) == 2
        uncapped = ArtifactCache(str(tmp_path))
        uncapped.put(_key(1), b"x" * 100)
        assert len(scans) == 2
        assert uncapped.metrics_dict()["cache_bytes"] == uncapped.total_bytes()
        assert len(scans) == 4

    def test_one_capped_put_prunes_every_empty_fan_out_directory(
        self, tmp_path
    ):
        for prefix in range(256):
            os.makedirs(tmp_path / "objects" / f"{prefix:02x}")
        cache = ArtifactCache(str(tmp_path), max_bytes=10_000)
        cache.put(_key(0), b"x" * 100)
        assert _fan_outs(tmp_path) == {_key(0)[:2]: [f"{_key(0)}.pkl"]}

    def test_a_sweep_removes_the_directories_its_evictions_empty(
        self, tmp_path
    ):
        root = str(tmp_path)
        self._seed_fillers(root)
        cache = ArtifactCache(root, max_bytes=1_000)
        cache.put(_key(99), b"x" * 100)
        assert cache.evictions == 6
        assert _fan_outs(tmp_path) == {_key(99)[:2]: [f"{_key(99)}.pkl"]}

    def test_a_temp_file_keeps_its_directory(self, tmp_path):
        root = str(tmp_path)
        self._seed_fillers(root, count=1)
        bucket = os.path.dirname(ArtifactCache(root)._path(_key(0)))
        with open(os.path.join(bucket, ".tmp-writing.pkl"), "wb"):
            pass
        cache = ArtifactCache(root, max_bytes=1_000)
        cache.put(_key(99), b"x" * 100)
        assert cache.evictions == 1
        assert os.listdir(bucket) == [".tmp-writing.pkl"]

    def test_a_put_retries_a_directory_a_sweep_removed(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(str(tmp_path), max_bytes=10_000)
        bucket = os.path.dirname(cache._path(_key(0)))
        mkstemp = tempfile.mkstemp
        calls = []

        def racing(dir=None, **kwargs):
            calls.append(dir)
            if len(calls) == 1:
                os.rmdir(dir)  # a concurrent sweep, between makedirs and here
            return mkstemp(dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", racing)
        cache.put(_key(0), {"payload": 1})
        assert calls == [bucket, bucket]
        assert cache.get(_key(0)) == {"payload": 1}
        assert os.listdir(bucket) == [f"{_key(0)}.pkl"]

    def test_a_put_retries_a_directory_removed_inside_makedirs(
        self, tmp_path, monkeypatch
    ):
        """``makedirs(exist_ok=True)`` raises ``FileExistsError`` when the
        directory its ``mkdir`` found is gone by its ``isdir`` check."""
        cache = ArtifactCache(str(tmp_path), max_bytes=10_000)
        bucket = os.path.dirname(cache._path(_key(0)))
        makedirs = os.makedirs
        calls = []

        def racing(name, *args, **kwargs):
            calls.append(name)
            if len(calls) == 1:
                raise FileExistsError(17, "File exists", name)
            return makedirs(name, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", racing)
        cache.put(_key(0), {"payload": 1})
        assert calls[:2] == [bucket, bucket]
        assert cache.get(_key(0)) == {"payload": 1}

    def test_a_put_gives_up_after_repeated_removals(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(str(tmp_path))
        mkstemp = tempfile.mkstemp

        def always_removed(dir=None, **kwargs):
            os.rmdir(dir)
            return mkstemp(dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", always_removed)
        with pytest.raises(FileNotFoundError):
            cache.put(_key(0), b"x")
        assert _key(0) not in cache

    def test_a_get_under_a_pruned_prefix_is_a_plain_miss(self, tmp_path):
        root = str(tmp_path)
        self._seed_fillers(root, count=1)
        cache = ArtifactCache(root, max_bytes=1_000)
        cache.put(_key(99), b"x" * 100)
        assert not os.path.exists(os.path.dirname(cache._path(_key(0))))
        assert cache.get(_key(0)) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert _key(0) not in cache

    def test_clear_removes_the_directories_it_empties(self, tmp_path):
        root = str(tmp_path)
        self._seed_fillers(root, count=4)
        bucket = os.path.dirname(ArtifactCache(root)._path(_key(0)))
        with open(os.path.join(bucket, ".tmp-writing.pkl"), "wb"):
            pass
        cache = ArtifactCache(root)
        assert cache.clear() == 4
        assert _fan_outs(tmp_path) == {_key(0)[:2]: [".tmp-writing.pkl"]}
        assert len(cache) == 0 and cache.total_bytes() == 0

    def test_equal_mtimes_evict_in_the_recorded_order(self, tmp_path):
        assert _scripted_evictions(str(tmp_path)) == _RECORDED_EVICTIONS


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
