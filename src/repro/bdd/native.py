"""The native BDD kernel: the manager's store and operations in C.

``_bdd_kernel.c`` is the node store and the hot operations of
:class:`~repro.bdd.BddManager` in C (:mod:`repro.bdd.kernel`);
:func:`kernel_library` loads it, and ``BddManager()`` runs on it exactly
when it loads.  A sift by a bare :class:`~repro.bdd.SizeProbe` explores
on a private copy of the function in a store of its own, so on the
kernel that copy is a kernel store too, and each of its sifting passes
is one C call (:mod:`repro.bdd.sifting`).

:func:`build_and_load` compiles a C source once with the local ``cc``
and loads it through :mod:`ctypes`.  The first manager of a process
does that for the kernel; on any failure every manager of the process
is a Python manager instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
from pathlib import Path
from typing import Any

KERNEL_SOURCE = Path(__file__).with_name("_bdd_kernel.c")
COMPILE = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120.0

_UNLOADED = object()
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


def _declare_kernel(lib: Any) -> Any:
    """Declare the kernel's functions.  An ``int *`` is passed as the
    address of an ``array("i")`` (``buffer_info()[0]``)."""
    from ctypes import c_double, c_int, c_longlong, c_void_p, py_object

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
        ("bk_collect", c_int, [store, *queue]),
        ("bk_swap", c_int, [store, *queue, c_int, c_int, ints, ints]),
        ("bk_move_to_order", c_int, [store, *queue, ints, ints, ints]),
        ("bk_sift_pass", c_int, [
            store, *queue, c_int, c_int, ints, ints, ints, ints, ints, ints,
            ints, c_double, ints, ints, ints, ints,
        ]),
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
