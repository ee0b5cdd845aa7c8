"""Content-addressed on-disk cache of per-CFSM build artifacts.

Per-CFSM synthesis in a GALS network is deterministic and independent of
the rest of the network, which makes one CFSM the natural caching unit.
An entry is addressed by the SHA-256 of three fingerprints:

* the **CFSM fingerprint** — a canonical rendering of the machine's
  events, state variables, and transitions (guard test keys, action keys,
  source tags), so any semantic edit changes the key;
* the **options fingerprint** — the synthesis scheme and every pipeline
  option that can change an artifact (multiway, prune, copy elimination,
  seeds), plus the target profile's full cycle/size tables and the
  calibrated cost parameters;
* the **code version** — a hash over the source of every ``repro``
  subpackage that participates in producing artifacts, so upgrading the
  compiler invalidates the cache automatically.

Entries live under ``<root>/objects/<k[:2]>/<k>.pkl`` and are written
atomically (temp file + rename), so concurrent builds sharing a cache
directory are safe: the worst race outcome is the same bytes written
twice.  Each entry file is the SHA-256 digest of its pickled bytes
followed by those bytes.  :meth:`ArtifactCache.get` checks the digest
before it unpickles anything, so a truncated, bit-flipped or overwritten
entry is a miss — never a crash, never wrong artifacts — and the
rebuild's :meth:`~ArtifactCache.put` replaces it.

Every store-wide read is one two-level ``os.scandir`` of the fan-out
directories ``objects/<k[:2]>/``, and three rules keep it the size of
what the store holds, not of every prefix it ever used:

* a capped store's eviction sweep removes every fan-out directory it
  finds or leaves empty (``clear()`` too);
* a ``put`` whose directory a concurrent sweep removed between its
  ``makedirs`` and its ``mkstemp`` recreates it and retries;
* :meth:`~ArtifactCache.metrics_dict` and :meth:`~ArtifactCache.stats`
  take the stored bytes from the handle's latest sweep while no ``get``
  or ``put`` has gone through it since, so a capped build scans the
  store once per write and never again.

``shared=True`` promotes the store to a *concurrency-safe shared* cache
for long-running multi-process services (the ``repro serve`` front door):

* **cross-process pinning** — every hit or write drops a
  ``<root>/pins/<key>.<pid>.pin`` marker; eviction (in any process) skips
  every key with a live pin, so an entry a concurrent request just read
  can never vanish under it.  :meth:`release_pins` drops this process's
  markers once the request's payloads are out the door; markers from dead
  processes are garbage-collected on the next eviction.
* **locked eviction** — the LRU sweep runs under an exclusive
  ``flock`` on ``<root>/.lock``, so two processes never race the
  scan-and-unlink (one torn scan could otherwise over-evict).
* **convergent counters** — each process mirrors its hit/miss/eviction
  counters to ``<root>/counters/<pid>.json`` (atomic replace);
  :meth:`shared_metrics` sums every process's file, so the fleet-wide
  hit rate converges no matter which worker served which request.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

try:  # POSIX file locking; absent on exotic platforms -> lockless fallback
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only container
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactCache",
    "cfsm_fingerprint",
    "options_fingerprint",
    "profile_fingerprint",
    "code_version",
    "module_cache_key",
    "CACHE_FORMAT_VERSION",
]

#: Bump when the pickled entry layout changes incompatibly.
CACHE_FORMAT_VERSION = 2

#: Every entry file starts with the SHA-256 digest of the pickle after it.
_DIGEST_BYTES = hashlib.sha256().digest_size

#: Subpackages whose source participates in artifact bytes.  ``pipeline``
#: itself is included so a cache-format change rolls the version too.  Their
#: C sources count as well: the BDD kernel makes every sift decision.
_VERSIONED_SUBPACKAGES = (
    "bdd",
    "cfsm",
    "codegen",
    "estimation",
    "obs",
    "pipeline",
    "sgraph",
    "synthesis",
    "target",
    "verify",
)

#: Attempts a write makes at creating its temp file (see :func:`_temp_file`).
_WRITE_ATTEMPTS = 4

#: A stored entry as the scan sees it: ``(mtime, size, key, path)``.
_Entry = Tuple[float, int, str, str]

_code_version: Optional[str] = None


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: alive but not ours
    return True


def _temp_file(directory: str) -> Tuple[int, str]:
    """``mkstemp`` a ``.tmp-*.pkl`` in ``directory``, creating it first.

    A concurrent sweep may remove an empty fan-out directory between the
    ``makedirs`` and the ``mkstemp``, or inside the ``makedirs``, between
    its ``mkdir`` finding the directory there and its check that it is one
    (which then raises ``FileExistsError``); the write recreates it and
    tries again.  Once the temp file exists the directory is not empty, so
    no sweep can remove it before the ``os.replace``.
    """
    attempts = _WRITE_ATTEMPTS
    while True:
        try:
            os.makedirs(directory, exist_ok=True)
            return tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".pkl")
        except (FileNotFoundError, FileExistsError):
            attempts -= 1
            if not attempts:
                raise


def _prune(held: Dict[str, int]) -> None:
    """Remove every fan-out directory in ``held`` counted as holding nothing.

    A write landing meanwhile makes the ``rmdir`` fail and the directory
    stay; a write that finds it gone retries (:func:`_temp_file`).
    """
    for path, names in held.items():
        if not names:
            try:
                os.rmdir(path)
            except OSError:
                pass


def _source_version(root: str) -> str:
    """Hash of the ``.py`` and ``.c`` sources of the versioned subpackages."""
    digest = hashlib.sha256()
    for sub in _VERSIONED_SUBPACKAGES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if not name.endswith((".py", ".c")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def code_version() -> str:
    """Hash of the artifact-producing source tree (memoized per process)."""
    global _code_version
    if _code_version is None:
        _code_version = _source_version(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    return _code_version


def _tuple_text(items: List[str]) -> str:
    """``repr`` of a tuple whose items' reprs are ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


class _KeyTexts(dict):
    """Test or action -> ``repr`` of its key, made at the first lookup.

    Tests and actions are equal when their keys are, so each distinct key
    is rendered once.
    """

    def __missing__(self, node) -> str:
        text = self[node] = repr(node.key())
        return text


class _LiteralTexts(dict):
    """Guard literal (by identity) -> ``repr`` of its ``(test key, value)``."""

    def __init__(self, keys: _KeyTexts):
        super().__init__()
        self.keys = keys

    def __missing__(self, lit) -> str:
        text = self[lit] = f"({self.keys[lit.test]}, {lit.value})"
        return text


def cfsm_fingerprint(cfsm) -> str:
    """Canonical content hash of one CFSM's definition.

    The hash of ``repr`` of the ``cfsm/v1`` shape::

        ("cfsm/v1", name, input keys, output keys,
         ((name, num_values, init) per state variable),
         (((test key, value) per guard literal), action keys, source)
          per transition)

    rendered piece by piece: the ``repr`` of each distinct test and action
    key is made once, however many transitions share it, and so is that
    of each guard literal object and of each sequence of action objects.
    The text, and so the digest, is the shape's ``repr``.
    """
    keys = _KeyTexts()
    literals = _LiteralTexts(keys)
    actions: Dict[Tuple[int, ...], str] = {}  # action objects (by id) -> repr
    transitions = []
    for t in cfsm.transitions:
        ids = tuple(map(id, t.actions))
        acts = actions.get(ids)
        if acts is None:
            acts = actions[ids] = _tuple_text([keys[a] for a in t.actions])
        guard = _tuple_text([literals[lit] for lit in t.guard])
        transitions.append(f"({guard}, {acts}, {t.source!r})")
    head = repr((
        "cfsm/v1",
        cfsm.name,
        tuple(e.key() for e in cfsm.inputs),
        tuple(e.key() for e in cfsm.outputs),
        tuple((v.name, v.num_values, v.init) for v in cfsm.state_vars),
    ))
    return _hash_text(f"{head[:-1]}, {_tuple_text(transitions)})")


def options_fingerprint(options: Dict[str, Any]) -> str:
    """Hash of the pipeline options that can change an artifact."""
    return _hash_text(repr(tuple(sorted(options.items()))))


def profile_fingerprint(profile) -> str:
    """Hash of an ISA profile's full cycle/size tables."""
    shape = (
        "profile/v1",
        profile.name,
        profile.pointer_size,
        profile.int_size,
        profile.near_range,
        tuple(sorted(profile.cycles.items())),
        tuple(sorted(profile.sizes.items())),
        tuple(sorted(profile.lib_cycles.items())),
        tuple(sorted(profile.lib_sizes.items())),
    )
    return _hash_text(repr(shape))


def _module_keys(options: Dict[str, Any], profile) -> Callable[[Any], str]:
    """:func:`module_cache_key` with ``options`` and ``profile`` bound.

    Their fingerprints and the code version are the part of every key a
    build shares, so they are hashed once here instead of once a module.
    """
    shared = "|".join(
        (options_fingerprint(options), profile_fingerprint(profile), code_version())
    )
    return lambda cfsm: _hash_text(f"key/v1|{cfsm_fingerprint(cfsm)}|{shared}")


def module_cache_key(cfsm, options: Dict[str, Any], profile) -> str:
    """The content address of one module's build artifacts."""
    return _module_keys(options, profile)(cfsm)


class ArtifactCache:
    """A content-addressed object store under one root directory.

    ``max_bytes`` (also the CLI's ``--cache-max-bytes``) bounds the store:
    after every write the least-recently-used entries are evicted until
    the store fits, and fan-out directories left empty are removed; the
    sweep's byte count is what :meth:`metrics_dict` and :meth:`stats`
    report until the next ``get`` or ``put`` through this handle.  Recency
    is tracked through entry file mtimes (a hit touches the file), so the
    LRU order survives across processes sharing one cache directory.  Keys this process served a hit for or wrote —
    the *in-flight* set, whose payloads a live build may still hold — are
    pinned and never evicted by this process.

    ``shared=True`` (the serve daemon's mode) extends the in-flight
    guarantee across processes: pins become on-disk markers every
    process's eviction honours, the eviction sweep itself is serialized
    through a file lock, and the counters are mirrored per-pid so
    :meth:`shared_metrics` reports one convergent fleet-wide view.
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        shared: bool = False,
    ):
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.shared = bool(shared)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._pinned: set = set()
        #: Bytes the latest sweep left stored; None once a get or put has
        #: gone through this handle since (or before any sweep).
        self._swept_bytes: Optional[int] = None

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.pkl")

    def _pin_dir(self) -> str:
        return os.path.join(self.root, "pins")

    def _pin_path(self, key: str) -> str:
        return os.path.join(self._pin_dir(), f"{key}.{os.getpid()}.pin")

    def _counter_dir(self) -> str:
        return os.path.join(self.root, "counters")

    def _pin(self, key: str) -> None:
        """Mark ``key`` in-flight (locally; on disk too when shared)."""
        self._pinned.add(key)
        if not self.shared:
            return
        path = self._pin_path(key)
        try:
            os.makedirs(self._pin_dir(), exist_ok=True)
            with open(path, "w", encoding="utf-8"):
                pass
        except OSError:  # a failed pin degrades to local-only protection
            pass

    def get(self, key: str) -> Optional[Any]:
        """The cached payload for ``key``, or ``None`` (counted as a miss).

        A missing file, a file shorter than a digest, a digest mismatch,
        any exception while unpickling, and a foreign format version are
        all misses.
        """
        self._swept_bytes = None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            blob = b""
        digest, body = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:]
        entry = None
        if body and hashlib.sha256(body).digest() == digest:
            try:
                entry = pickle.loads(body)
            except Exception:  # noqa: BLE001 - any damage is a miss
                pass
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT_VERSION
        ):
            self.misses += 1
            return None
        self.hits += 1
        self._pin(key)
        try:
            os.utime(path, None)  # refresh LRU recency
        except OSError:
            pass
        return entry["payload"]

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically."""
        self._swept_bytes = None
        path = self._path(key)
        body = pickle.dumps(
            {"format": CACHE_FORMAT_VERSION, "key": key, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        fd, tmp = _temp_file(os.path.dirname(path))
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(body).digest())
                handle.write(body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._pin(key)
        self._evict_to_fit()

    # -- eviction ----------------------------------------------------------

    def _scan(self) -> Tuple[List[_Entry], Dict[str, int]]:
        """Every stored entry, and how many names each fan-out directory holds.

        One two-level ``os.scandir`` of ``objects/<k[:2]>/``; an entry is
        ``(mtime, size, key, path)``.  In-progress temp files
        (``.tmp-*.pkl``) are not entries: another process's eviction sweep
        must never unlink one mid-write (its ``os.replace`` would crash on
        the vanished source).  They still count as names, so a directory
        holding one is never taken for empty.
        """
        entries: List[_Entry] = []
        held: Dict[str, int] = {}
        try:
            fanouts = os.scandir(os.path.join(self.root, "objects"))
        except OSError:
            return entries, held
        with fanouts:
            for fanout in fanouts:
                if not fanout.is_dir(follow_symlinks=False):
                    continue
                found: List[_Entry] = []
                names = 0
                try:
                    with os.scandir(fanout.path) as children:
                        for child in children:
                            name = child.name
                            if name.endswith(".pkl") and not name.startswith(".tmp-"):
                                try:
                                    stat = child.stat()
                                except OSError:  # evicted since the listing
                                    continue
                                found.append(
                                    (stat.st_mtime, stat.st_size, name[:-4], child.path)
                                )
                            names += 1
                except OSError:  # pruned by a concurrent sweep
                    continue
                entries += found
                held[fanout.path] = names
        return entries, held

    def _entries(self) -> List[_Entry]:
        """Every stored entry as ``(mtime, size, key, path)``."""
        return self._scan()[0]

    def total_bytes(self) -> int:
        """Bytes currently stored (a fresh scan)."""
        return sum(size for _, size, _, _ in self._entries())

    def _latest_bytes(self) -> int:
        """The latest sweep's byte count while it is current, else a scan."""
        if self._swept_bytes is None:
            return self.total_bytes()
        return self._swept_bytes

    def _disk_pinned_keys(self) -> set:
        """Keys pinned on disk by any live process (shared mode).

        Markers left behind by dead pids (a worker that crashed holding a
        pin) are deleted on sight, so one stuck request can never wedge
        eviction forever.
        """
        pinned: set = set()
        try:
            names = os.listdir(self._pin_dir())
        except OSError:
            return pinned
        for name in names:
            if not name.endswith(".pin"):
                continue
            stem = name[: -len(".pin")]
            key, _, pid_text = stem.rpartition(".")
            if not key:
                continue
            try:
                pid = int(pid_text)
            except ValueError:
                continue
            if pid != os.getpid() and not _pid_alive(pid):
                try:
                    os.unlink(os.path.join(self._pin_dir(), name))
                except OSError:
                    pass
                continue
            pinned.add(key)
        return pinned

    @contextlib.contextmanager
    def _eviction_lock(self):
        """An exclusive lock over ``<root>/.lock`` while held (shared mode).

        A failure to open or lock the file degrades to a lockless sweep.
        """
        fd = None
        if self.shared and fcntl is not None:
            try:
                os.makedirs(self.root, exist_ok=True)
                fd = os.open(os.path.join(self.root, ".lock"), os.O_CREAT | os.O_RDWR)
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                if fd is not None:
                    os.close(fd)
                    fd = None
        try:
            yield
        finally:
            if fd is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                finally:
                    os.close(fd)

    def _evict_to_fit(self) -> int:
        """Drop LRU entries until the store fits ``max_bytes``.

        Pinned (in-flight) keys are skipped: a build holding a payload it
        just read or wrote must never find it vanished.  In shared mode
        the sweep honours every process's on-disk pins and runs under the
        eviction file lock so two sweeps never race the scan-and-unlink.
        Every fan-out directory the sweep finds or leaves empty is
        removed, and the bytes left stored become :attr:`_swept_bytes`.
        Returns how many entries were evicted.
        """
        if self.max_bytes is None:
            return 0
        with self._eviction_lock():
            pinned = set(self._pinned)
            if self.shared:
                pinned |= self._disk_pinned_keys()
            entries, held = self._scan()
            entries.sort()  # oldest mtime first
            total = sum(size for _, size, _, _ in entries)
            evicted = 0
            for _, size, key, path in entries:
                if total <= self.max_bytes:
                    break
                if key in pinned:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
                held[os.path.dirname(path)] -= 1
            _prune(held)
        self._swept_bytes = total
        self.evictions += evicted
        if self.shared and evicted:
            self.sync_counters()
        return evicted

    # -- shared-mode bookkeeping -------------------------------------------

    def release_pins(self) -> int:
        """Drop every in-flight pin this process holds; returns the count.

        A long-running daemon calls this at the end of each request:
        the payloads have been serialized into the response, so nothing
        references the cache files any more and they become evictable
        again.  Also mirrors the counters (shared mode) so a request's
        hits are visible fleet-wide as soon as it completes.
        """
        released = len(self._pinned)
        if self.shared:
            for key in self._pinned:
                try:
                    os.unlink(self._pin_path(key))
                except OSError:
                    pass
            self.sync_counters()
        self._pinned.clear()
        return released

    def pinned_count(self) -> int:
        """Keys this process currently holds in-flight."""
        return len(self._pinned)

    def pin_files(self) -> List[str]:
        """Every on-disk pin marker currently present (shared mode)."""
        try:
            return sorted(
                name for name in os.listdir(self._pin_dir())
                if name.endswith(".pin")
            )
        except OSError:
            return []

    def sync_counters(self) -> None:
        """Mirror this process's counters to ``counters/<pid>.json``."""
        if not self.shared:
            return
        path = os.path.join(self._counter_dir(), f"{os.getpid()}.json")
        try:
            os.makedirs(self._counter_dir(), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self._counter_dir(), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "pid": os.getpid(),
                        "hits": self.hits,
                        "misses": self.misses,
                        "evictions": self.evictions,
                    },
                    handle,
                )
            os.replace(tmp, path)
        except OSError:
            pass

    def shared_metrics(self) -> Dict[str, int]:
        """Counters summed over every process that used this cache dir.

        Reads every ``counters/<pid>.json`` mirror; each file carries one
        process's monotone totals, so the sum converges to the true
        fleet-wide figures once every process has synced (a torn read of
        a mid-replace file is impossible — mirrors are written with the
        same atomic temp+rename as entries).
        """
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        try:
            names = os.listdir(self._counter_dir())
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json") or name.startswith(".tmp-"):
                continue
            try:
                with open(
                    os.path.join(self._counter_dir(), name),
                    "r",
                    encoding="utf-8",
                ) as handle:
                    doc = json.load(handle)
            except (OSError, ValueError):
                continue
            for field in totals:
                value = doc.get(field)
                if isinstance(value, int):
                    totals[field] += value
        return totals

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every entry and the fan-out directories that empties.

        Returns how many entries were removed.
        """
        self._swept_bytes = None
        entries, held = self._scan()
        for _, _, _, path in entries:
            os.unlink(path)
            held[os.path.dirname(path)] -= 1
        _prune(held)
        return len(entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 with no lookups)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def metrics_dict(self) -> Dict[str, float]:
        """The cache's counters as flat metrics (the build trace's keys).

        ``cache_bytes`` is the latest sweep's count when no ``get`` or
        ``put`` has gone through this handle since, else a fresh scan.
        """
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_bytes": self._latest_bytes(),
        }

    def stats(self) -> str:
        """One line of counters; its bytes are :meth:`metrics_dict`'s."""
        line = (
            f"cache {self.root}: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.evictions} evictions, "
            f"{self._latest_bytes()} bytes stored"
        )
        if self.max_bytes is not None:
            line += f" (max {self.max_bytes})"
        if self.shared:
            line += (
                f"; shared: {len(self.pin_files())} pin(s), "
                f"{self.pinned_count()} in-flight here"
            )
        return line

    def __str__(self) -> str:
        return self.stats()

    def __repr__(self) -> str:
        return f"<ArtifactCache {self.root!r}>"
