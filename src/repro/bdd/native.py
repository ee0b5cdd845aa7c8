"""The native BDD libraries: the manager's kernel and the sift store.

``_bdd_kernel.c`` is the node store and the hot operations of
:class:`~repro.bdd.BddManager` in C (:mod:`repro.bdd.kernel`);
:func:`kernel_library` loads it, and ``BddManager()`` runs on it exactly
when it loads.  ``_sift_store.c`` is the store a sift of χ explores on,
described below.

A sift by a bare :class:`~repro.bdd.SizeProbe` of ``f`` explores on a
private store that holds ``f`` alone (:mod:`repro.bdd.sifting`).
:class:`NativeStore` is that store in C (``_sift_store.c``), in the
canonical form of :class:`~repro.bdd.BddManager` with no handles and no
caches; its size is a C walk of ``f``'s edges, exactly
``Function.size()``.  :meth:`NativeStore.sift_pass` runs one sifting
pass in one C call, with the decisions of the Python pass loop
(``sifting._sift_pass``), which stays the oracle; the swap, size,
checkpoint and rollback methods below drive the same C operations one
at a time, for the tests that compare them with the Python store.

:func:`build_and_load` compiles a C source once with the local ``cc``
and loads it through :mod:`ctypes`.  The first native sift of a process
does that; on any failure every sift of the process runs the Python
store instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

SIFT_SOURCE = Path(__file__).with_name("_sift_store.c")
KERNEL_SOURCE = Path(__file__).with_name("_bdd_kernel.c")
COMPILE = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120.0

#: Native stores and checkpoints not yet freed.
live_objects = 0

_UNLOADED = object()
_sift_library: Any = _UNLOADED
_kernel_library: Any = _UNLOADED


def build_and_load(source: Path) -> Any:
    """Compile ``source`` to a shared object once, and load it.

    The object goes to the ``__pycache__`` beside ``source``, under a name
    keyed by the source's and the platform's SHA-256.  It is compiled to a
    temporary file there and renamed into place, so processes that race
    for it each load a whole object; the objects of the same stem's other
    keys are then removed (a process that loaded one keeps its mapping).
    Raises on any failure; nothing partial is left behind.
    """
    import ctypes
    import subprocess

    target = _object_path(source)
    directory = target.parent
    if not target.exists():
        directory.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(
            prefix=f".{target.name}.", suffix=".tmp", dir=directory
        )
        os.close(fd)
        try:
            subprocess.run(
                [*COMPILE, "-o", partial, str(source)],
                check=True, timeout=COMPILE_TIMEOUT_S,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
        _remove_stale(target, source.stem)
    return ctypes.PyDLL(str(target))


def _object_path(source: Path) -> Path:
    """Where :func:`build_and_load` keeps ``source``'s shared object."""
    import sysconfig

    key = hashlib.sha256(
        source.read_bytes() + sysconfig.get_platform().encode()
    ).hexdigest()
    return source.parent / "__pycache__" / f"{source.stem}.{key[:16]}.so"


def _remove_stale(target: Path, stem: str) -> None:
    """Remove the ``<stem>.<key>.so`` objects of keys other than ``target``'s.

    Only whole objects match; a build's temporary file does not.
    """
    stale = re.compile(re.escape(stem) + r"\.[0-9a-f]{16}\.so")
    for path in target.parent.iterdir():
        if path != target and stale.fullmatch(path.name):
            with contextlib.suppress(OSError):
                path.unlink()


def _declare(lib: Any) -> Any:
    """Declare the library's functions.  An ``int *`` is passed as the
    address of an ``array("i")`` (:func:`_address`)."""
    from ctypes import c_double, c_int, c_void_p

    ints = c_void_p
    for name, restype, argtypes in (
        ("ss_new", c_void_p, [c_int, c_int, ints, ints, ints, c_int]),
        ("ss_sift_pass", c_int, [
            c_void_p, c_void_p, ints, ints, c_int, ints, ints, ints, ints,
            ints, ints, ints, c_double, ints, ints,
        ]),
        ("ss_swap", c_int, [c_void_p, c_int, c_int]),
        ("ss_size", c_int, [c_void_p]),
        ("ss_live", c_int, [c_void_p]),
        ("ss_checkpoint", c_void_p, [c_void_p]),
        ("ss_rollback", None, [c_void_p, c_void_p]),
        ("ss_free_checkpoint", None, [c_void_p]),
        ("ss_free", None, [c_void_p]),
    ):
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def _declare_kernel(lib: Any) -> Any:
    """Declare the kernel's functions (see :func:`_declare`)."""
    from ctypes import c_int, c_longlong, c_void_p, py_object

    ints = c_void_p
    store = c_void_p
    queue = [ints, c_int]  # the handles' reference changes
    for name, restype, argtypes in (
        ("bk_new", c_void_p, [c_longlong]),
        ("bk_free", None, [store]),
        ("bk_set_limit", None, [store, c_longlong]),
        ("bk_add_vars", c_int, [store, c_int]),
        ("bk_mk", c_int, [store, c_int, c_int, c_int]),
        ("bk_ite", c_int, [store, c_int, c_int, c_int]),
        ("bk_fold", c_int, [store, ints, c_int, c_int]),
        ("bk_restrict", c_int, [store, c_int, c_int, c_int]),
        ("bk_exists", c_int, [store, c_int, c_int]),
        ("bk_and_exists", c_int, [store, c_int, c_int, c_int]),
        ("bk_compose", c_int, [store, c_int, c_int, c_int]),
        ("bk_cube", c_int, [store, ints, c_int, ints]),
        ("bk_assignments", c_int, [store, ints, c_int, ints, c_int, c_int]),
        ("bk_conjoin_assignments", c_int, [
            store, c_int, ints, ints, ints, ints,
        ]),
        ("bk_test_step", c_int, [store, c_int, c_int, ints]),
        ("bk_assign_step", c_int, [store, c_int, c_int, c_int, ints]),
        ("bk_size", c_int, [store, c_int, ints]),
        ("bk_reachable_counts", c_int, [store, *queue, ints, c_int, ints]),
        ("bk_support", c_int, [store, c_int, ints]),
        ("bk_is_positive_cube", c_int, [store, c_int]),
        ("bk_eval1", c_int, [store, c_int, py_object]),
        ("bk_evaluate", c_int, [store, ints, py_object]),
        ("bk_slots", c_int, [store]),
        ("bk_node", c_int, [store, c_int, c_int]),
        ("bk_nodes", None, [store, ints, ints, ints]),
        ("bk_copy", c_int, [store, store, c_int, ints, ints]),
        ("bk_sift_store", c_void_p, [store, c_int, c_void_p]),
        ("bk_collect", c_int, [store, *queue]),
        ("bk_swap", c_int, [store, *queue, c_int, c_int, ints, ints]),
        ("bk_move_to_order", c_int, [store, *queue, ints, ints, ints]),
        ("bk_checkpoint", c_void_p, [store, *queue]),
        ("bk_rollback", None, [store, *queue, c_void_p, ints, ints]),
        ("bk_free_checkpoint", None, [c_void_p]),
        ("bk_counters", None, [store, *queue, ints]),
        ("bk_set_counter", None, [store, c_int, c_longlong]),
        ("bk_live_at_level", c_int, [store, *queue, c_int]),
        ("bk_store_stats", None, [store, ints]),
        ("bk_check", c_int, [store, *queue, ints, c_int]),
    ):
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def kernel_library() -> Any:
    """The loaded BDD kernel library, or None: managers run in Python.

    Built and loaded at the first call of a process, never again.
    """
    global _kernel_library
    if _kernel_library is _UNLOADED:
        try:
            _kernel_library = _declare_kernel(build_and_load(KERNEL_SOURCE))
        except Exception:
            _kernel_library = None
    return _kernel_library


def kernel_engine() -> str:
    """``"native"`` or ``"python"``: which engine ``BddManager()`` runs."""
    return "python" if kernel_library() is None else "native"


def load_kernel_library() -> float:
    """Build or load the kernel now; the wall it took, in ms (0.0 once done).

    A build reports it apart from synthesis, so a compile in a fresh
    checkout is not read as the first module's synthesis time.
    """
    if _kernel_library is not _UNLOADED:
        return 0.0
    import time

    start = time.perf_counter()
    kernel_library()
    return (time.perf_counter() - start) * 1000.0


def sift_library() -> Any:
    """The loaded sift store library, or None: the Python engine runs.

    Built and loaded at the first call of a process, never again.
    """
    global _sift_library
    if _sift_library is _UNLOADED:
        try:
            _sift_library = _declare(build_and_load(SIFT_SOURCE))
        except Exception:
            _sift_library = None
    return _sift_library


def _address(values: Optional[array]) -> Optional[int]:
    """Where an ``array("i")``'s items start, for an ``int *`` argument;
    None is NULL.  The caller keeps the array alive across the call."""
    return None if values is None else values.buffer_info()[0]


def sift_engine() -> str:
    """``"native"`` or ``"python"``: which store a private sift explores on."""
    return "python" if sift_library() is None else "native"


class NativeStore:
    """A function alone in a C store, with its manager's variables and order.

    The part of :class:`~repro.bdd.BddManager` a sift reads on the store it
    explores.  The level maps and the swap and skip counters are kept
    here; a swap of two variables not both in the function's support
    takes the interaction fast path, as on the Python private store, whose
    only non-constant root is the function.  Its ITE counters are the
    manager's at the copy (sifting runs no ITE).  The C store keeps, across
    the passes of one sift, the order each block's last sift left it in
    place from.
    """

    def __init__(self, lib: Any, f: Any) -> None:
        global live_objects
        self._ptr = None
        self._buffer: Optional[_NativeCheckpoint] = None
        manager = f.manager
        self._lib = lib
        self._swap, self._size, self._live = lib.ss_swap, lib.ss_size, lib.ss_live
        self._support = frozenset(manager._support_ids(f.id))
        # Arrays, so that a pass in C updates them in place.
        self._level_of_var = array("i", manager._level_of_var)
        self._var_at_level = array("i", manager._var_at_level)
        self.swap_count, self.swap_skips = manager.swap_count, manager.swap_skips
        self.ite_hits, self.ite_misses = manager.ite_hits, manager.ite_misses
        self._ptr = manager._sift_store(lib, f.id)
        if not self._ptr:
            raise MemoryError("native sift store")
        live_objects += 1

    def __del__(self) -> None:
        global live_objects
        if self._ptr:
            self._lib.ss_free(self._ptr)
            self._ptr = None
            live_objects -= 1

    @property
    def num_vars(self) -> int:
        return len(self._level_of_var)

    def level_of(self, var: int) -> int:
        return self._level_of_var[var]

    def current_order(self) -> list:
        return self._var_at_level.tolist()

    def _roots_held(self) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def size(self) -> int:
        """The function's semantic size, exactly ``Function.size()``."""
        return self._size(self._ptr)

    def live_node_count(self) -> int:
        return self._live(self._ptr)

    def interaction_pairs(self) -> Set[Tuple[int, int]]:
        """The pairs of the function's support, its only non-constant root."""
        support = sorted(self._support)
        return {(a, b) for i, a in enumerate(support) for b in support[i + 1:]}

    def swap_levels(
        self, level: int, interaction: Optional[Set[Tuple[int, int]]] = None
    ) -> None:
        """:meth:`BddManager.swap_levels` on the native store."""
        if not 0 <= level < len(self._var_at_level) - 1:
            raise ValueError(f"cannot swap level {level}")
        self.swap_count += 1
        x = self._var_at_level[level]
        y = self._var_at_level[level + 1]
        if interaction is not None and (
            (x, y) if x < y else (y, x)
        ) not in interaction:
            self.swap_skips += 1
        elif self._swap(self._ptr, x, y):
            raise MemoryError("native sift store")
        self._var_at_level[level], self._var_at_level[level + 1] = y, x
        self._level_of_var[x] = level + 1
        self._level_of_var[y] = level

    def _checkpoint(self) -> "_NativeCheckpoint":
        return _NativeCheckpoint(self)

    def _rollback(self, cp: "_NativeCheckpoint", last: bool = False) -> None:
        """Restore ``cp``'s nodes in C and its level maps here."""
        self._lib.ss_rollback(self._ptr, cp._ptr)
        if last:
            self._level_of_var, self._var_at_level = cp.level_of_var, cp.var_at_level
        else:
            self._level_of_var = cp.level_of_var[:]
            self._var_at_level = cp.var_at_level[:]

    def sift_pass(
        self,
        blocks: Sequence[Sequence[int]],
        schedule: Sequence[int],
        relations: Optional[Sequence[array]],
        max_growth: float,
        sampled: bool,
    ) -> List[Tuple[int, int, Dict[str, int]]]:
        """One sifting pass in one C call (``ss_sift_pass``).

        ``blocks`` is the layout, each block's variables top to bottom, and
        ``schedule`` the indices of the blocks in the order they are
        sifted.  ``relations`` bounds them: for each variable, those that
        must stay above it, then those that must stay below it, packed by
        :meth:`~repro.bdd.sifting.PrecedenceConstraints._packed`; None
        bounds nothing.  The level maps and counters follow the swaps made.
        Returns, when ``sampled``, the ``(size, swaps, counters)`` a profile
        samples after each block the Python pass samples.
        """
        flat = array("i", chain.from_iterable(blocks))
        first = array("i", accumulate(map(len, blocks), initial=0))
        if relations is None:
            relations = (None,) * 4
        if self._buffer is None:
            self._buffer = self._checkpoint()  # every block's is taken into it
        schedule = array("i", schedule)
        counts = array("i", (0, 0))
        samples = array("i", (0,)) * (4 * len(blocks)) if sampled else None
        taken = self._lib.ss_sift_pass(
            self._ptr, self._buffer._ptr, _address(self._var_at_level),
            _address(self._level_of_var), len(blocks), _address(first),
            _address(flat), _address(schedule), *map(_address, relations),
            max_growth, _address(counts), _address(samples),
        )
        swaps, skips = self.swap_count, self.swap_skips
        self.swap_count += counts[0]
        self.swap_skips += counts[1]
        if taken < 0:
            raise MemoryError("native sift store")
        return [
            (
                samples[k],
                swaps + samples[k + 1],
                self._counters(
                    swaps + samples[k + 1], skips + samples[k + 2],
                    samples[k + 3],
                ),
            )
            for k in range(0, 4 * taken, 4)
        ]

    def counters(self) -> Dict[str, int]:
        """The :meth:`BddManager.counters` a sift profile samples."""
        return self._counters(
            self.swap_count, self.swap_skips, self.live_node_count()
        )

    def _counters(self, swaps: int, skips: int, live: int) -> Dict[str, int]:
        return {
            "swaps": swaps,
            "swap_skips": skips,
            "live_nodes": live,
            "ite_cache_hits": self.ite_hits,
            "ite_cache_misses": self.ite_misses,
        }


class _NativeCheckpoint:
    """A native store's nodes in C, and its level maps."""

    __slots__ = ("_lib", "_ptr", "level_of_var", "var_at_level")

    def __init__(self, store: NativeStore) -> None:
        global live_objects
        self._lib = store._lib
        self._ptr = store._lib.ss_checkpoint(store._ptr)
        if not self._ptr:
            raise MemoryError("native sift checkpoint")
        live_objects += 1
        self.level_of_var = store._level_of_var[:]
        self.var_at_level = store._var_at_level[:]

    def __del__(self) -> None:
        global live_objects
        if self._ptr:
            self._lib.ss_free_checkpoint(self._ptr)
            self._ptr = None
            live_objects -= 1
