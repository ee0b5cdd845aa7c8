"""The native sift store: χ's exploration in C, under the Python pass loop.

A sift by a bare :class:`~repro.bdd.SizeProbe` of ``f`` explores on a
private store that holds ``f`` alone (:mod:`repro.bdd.sifting`).
:class:`NativeStore` is that store in C (``_sift_store.c``), in the
canonical form of :class:`~repro.bdd.BddManager` with no handles and no
caches, behind the few methods the unchanged pass loop calls on the
store it explores; its size is a C walk of ``f``'s edges, exactly
``Function.size()``.  Every sifting decision stays in Python.

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
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

SIFT_SOURCE = Path(__file__).with_name("_sift_store.c")
COMPILE = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120.0

#: Native stores and checkpoints not yet freed.
live_objects = 0

_UNLOADED = object()
_sift_library: Any = _UNLOADED


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
    import sysconfig

    key = hashlib.sha256(
        source.read_bytes() + sysconfig.get_platform().encode()
    ).hexdigest()
    directory = source.parent / "__pycache__"
    target = directory / f"{source.stem}.{key[:16]}.so"
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
    from ctypes import POINTER, c_int, c_void_p

    ints = POINTER(c_int)
    for name, restype, argtypes in (
        ("ss_new", c_void_p, [c_int, c_int, ints, ints, ints, c_int]),
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


def sift_engine() -> str:
    """``"native"`` or ``"python"``: which store a private sift explores on."""
    return "python" if sift_library() is None else "native"


class NativeStore:
    """A function alone in a C store, with its manager's variables and order.

    The part of :class:`~repro.bdd.BddManager` a sifting pass uses on the
    store it explores.  The level maps and the swap and skip counters are
    kept here; a swap of two variables not both in the function's support
    takes the interaction fast path, as on the Python private store, whose
    only non-constant root is the function.  Its ITE counters are the
    manager's at the copy (sifting runs no ITE).
    """

    def __init__(self, lib: Any, f: Any) -> None:
        global live_objects
        from ctypes import c_int

        self._ptr = None
        manager = f.manager
        var_arr, lo_arr, hi_arr = manager._var, manager._lo, manager._hi
        nodes: Set[int] = set()
        stack = [f.id >> 1]
        while stack:
            nid = stack.pop()
            if nid and nid not in nodes:
                nodes.add(nid)
                stack.append(lo_arr[nid] >> 1)
                stack.append(hi_arr[nid] >> 1)
        level_of = manager._level_of_var
        packed = sorted(nodes, key=lambda n: level_of[var_arr[n]], reverse=True)
        slot = {0: 0}
        for i, nid in enumerate(packed, 1):
            slot[nid] = i
        variables = [var_arr[n] for n in packed]
        los = [slot[lo_arr[n] >> 1] << 1 | lo_arr[n] & 1 for n in packed]
        his = [slot[hi_arr[n] >> 1] << 1 for n in packed]
        array = c_int * len(packed)
        self._lib = lib
        self._swap, self._size, self._live = lib.ss_swap, lib.ss_size, lib.ss_live
        self._support = frozenset(variables)
        self._level_of_var = level_of[:]
        self._var_at_level = manager._var_at_level[:]
        self.swap_count, self.swap_skips = manager.swap_count, manager.swap_skips
        self.ite_hits, self.ite_misses = manager.ite_hits, manager.ite_misses
        self._ptr = lib.ss_new(
            manager.num_vars, len(packed), array(*variables), array(*los),
            array(*his), slot[f.id >> 1] << 1 | f.id & 1,
        )
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
        return list(self._var_at_level)

    def _roots_held(self) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def collect(self) -> int:
        """Nothing to collect: a node is freed when its count drops to zero."""
        return 0

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

    def counters(self) -> Dict[str, int]:
        """The :meth:`BddManager.counters` a sift profile samples."""
        return {
            "swaps": self.swap_count,
            "swap_skips": self.swap_skips,
            "live_nodes": self.live_node_count(),
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
