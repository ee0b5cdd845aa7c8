"""The native BDD kernel: :class:`~repro.bdd.BddManager` on a C node store.

``BddManager()`` returns a :class:`NativeManager` whenever
``_bdd_kernel.c`` builds and loads (:func:`repro.bdd.native.kernel_library`).
C holds the nodes, the unique subtables, the reference counts, the dead
set, the free list, the swap quarantine, the ITE, restrict and
quantification caches and the work counters, and runs each operation
whole: an ITE, a balanced conjunction, a restrict, a quantification, a
cube or assignment set, a collect, a swap, a move to a new order, a size
or support walk, a checkpoint or a rollback is one call, and so is a
whole sifting pass on the private copy a sift explores on
(:meth:`NativeManager._sift_blocks`).

Python keeps what Python code reaches: the :class:`~repro.bdd.Function`
handles and their weakref registry, the queue of handle deaths, the held
roots of a sift, the variable names, and mirrors of the level maps in
``array("i")``s that the calls which move variables write in place, so
``level_of``, ``var_at`` and ``current_order`` never call into C.  A
handle's reference, and a ``protect``/``unprotect``, is queued in
``_refq`` (an edge to acquire, ``~edge`` to release) and applied, in
order, by the next call that frees nodes or reads reference counts;
handle deaths join the queue where the Python manager drains them.
Nothing between those calls reads a reference count, so every counter
reads as on the Python manager, which stays the oracle and the engine
without a compiler.

A manager frees its C store when its last reference goes (no reference
cycle holds one).  Pool workers forked from a process that holds stores
never touch them; each is freed in the worker when its Python object
dies there.
"""

from __future__ import annotations

import functools
import weakref
from array import array
from itertools import accumulate, chain
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

from . import native
from .manager import (
    _DEFAULT_CACHE_LIMIT,
    BddManager,
    Function,
    _drop_handle,
)

__all__ = ["NativeManager"]

# Native kernel stores and checkpoints not yet freed.  A dict bound into
# each __del__, which may run at interpreter teardown, after module
# globals are cleared.
_LIVE = {"objects": 0}


def live_objects() -> int:
    """Native kernel stores and checkpoints not yet freed."""
    return _LIVE["objects"]

_INT_MIN = -(1 << 31)
# A codes array holds 64-bit words; wider variable groups go through _mk.
_MAX_CODE_BITS = 62

_COUNTERS = (
    "swaps", "swap_skips", "collects", "nodes_freed", "peak_nodes",
    "live_nodes", "dead_nodes", "ite_cache_hits", "ite_cache_misses",
    "restrict_cache_hits", "restrict_cache_misses", "quant_cache_hits",
    "quant_cache_misses", "cache_resets",
)
# A sift pass's sample: the size, then the counters a profile's timeline
# reads (see _sift_blocks).
_SAMPLE = 6
# NativeManager.__getattr__ builds these on first read.
_VIEWS = frozenset((
    "_one", "_out", "_var", "_lo", "_hi",
    "_c_ite", "_c_restrict", "_c_exists", "_c_mk", "_c_eval1",
))

_CHECKS = {
    1: "level maps are not inverse permutations",
    2: "terminal slot corrupted",
    3: "node chained under another variable",
    4: "unreduced node in unique table",
    5: "complemented then-edge",
    6: "duplicate unique-table entry",
    7: "edge to a freed slot, or ordering violated",
    8: "slot chained twice",
    9: "subtable count",
    10: "dead count",
    11: "allocated, live or dead totals",
    12: "dead set",
    13: "quarantined slot still allocated",
    14: "dead node has references",
    15: "refcount",
    16: "ite cache references a recycled slot",
    17: "restrict cache references a recycled slot",
    18: "quant cache references a recycled slot",
    19: "non-canonical ite cache key",
    20: "non-canonical restrict cache key",
}


def _fail(what: str = "BDD kernel") -> None:
    raise MemoryError(what)


class _Field:
    """One node field of a native store, read one slot per call.

    ``Function.var``, ``.low`` and ``.high`` read through it; walkers
    take :meth:`NativeManager._node_arrays` instead.
    """

    __slots__ = ("_read", "_slots", "_field")

    def __init__(self, lib: Any, ptr: int, field: int) -> None:
        self._read = functools.partial(lib.bk_node, ptr)
        self._slots = functools.partial(lib.bk_slots, ptr)
        self._field = field

    def __getitem__(self, nid: int) -> int:
        value = self._read(nid, self._field)
        if value == _INT_MIN:
            raise IndexError(nid)
        return value

    def __len__(self) -> int:
        return self._slots()


def _counter(index: int) -> property:
    def get(self: "NativeManager") -> int:
        return self._counts()[index]

    def set(self: "NativeManager", value: int) -> None:
        self._lib.bk_set_counter(self._ptr, index, value)

    return property(get, set)


class NativeManager(BddManager):
    """A :class:`~repro.bdd.BddManager` whose store is the C kernel's."""

    _native = True

    def __init__(self, cache_limit: int = _DEFAULT_CACHE_LIMIT) -> None:
        self._ptr = None
        lib = native.kernel_library()
        ptr = lib.bk_new(cache_limit)
        if not ptr:
            _fail()
        self._lib, self._ptr = lib, ptr
        _LIVE["objects"] += 1
        self._cache_limit = cache_limit
        self._level_of_var = array("i")
        self._var_at_level = array("i")
        self._var_names: List[str] = []
        self._handles: Dict[int, "weakref.ref[Function]"] = {}
        self._handle_deaths: List[int] = []
        self._holding_deaths = False
        self._refq = array("i")

    def __getattr__(self, name: str) -> Any:
        """Build the store's Python views at the first read of one: the
        node fields, the bound hot calls and their scratch arrays.  A
        sift's private copy, whose passes are kernel calls, reads none."""
        if name not in _VIEWS or not self.__dict__.get("_ptr"):
            raise AttributeError(name)
        lib, ptr = self._lib, self._ptr
        self._one = array("i", (0,))
        self._out = array("i", (0, 0, 0))
        self._var, self._lo, self._hi = (_Field(lib, ptr, i) for i in range(3))
        bind = functools.partial
        self._c_ite = bind(lib.bk_ite, ptr)
        self._c_restrict = bind(lib.bk_restrict, ptr)
        self._c_exists = bind(lib.bk_exists, ptr)
        self._c_mk = bind(lib.bk_mk, ptr)
        self._c_eval1 = bind(lib.bk_eval1, ptr)
        return self.__dict__[name]

    def __del__(self, _live: Dict[str, int] = _LIVE) -> None:
        if self._ptr:
            self._lib.bk_free(self._ptr)
            self._ptr = None
            _live["objects"] -= 1

    def __reduce_ex__(self, protocol: Any) -> Any:
        # A copy would share, and then free twice, the C store.
        raise TypeError("a native BDD manager cannot be copied or pickled")

    swap_count = _counter(0)
    swap_skips = _counter(1)
    collect_count = _counter(2)
    nodes_freed = _counter(3)
    peak_nodes = _counter(4)
    ite_hits = _counter(7)
    ite_misses = _counter(8)
    restrict_hits = _counter(9)
    restrict_misses = _counter(10)
    quant_hits = _counter(11)
    quant_misses = _counter(12)
    cache_resets = _counter(13)

    @property
    def cache_limit(self) -> int:
        return self._cache_limit

    @cache_limit.setter
    def cache_limit(self, limit: int) -> None:
        self._cache_limit = limit
        self._lib.bk_set_limit(self._ptr, limit)

    # -- the queue and the level maps ---------------------------------------

    def _queue(self, drain: bool) -> array:
        """The queued reference changes, with the handle deaths when
        ``drain`` (a point where the Python manager drains them) and the
        roots are not held.  The caller empties it after its call."""
        q = self._refq
        if drain and not self._holding_deaths:
            deaths = self._handle_deaths
            while deaths:
                q.append(~deaths.pop())
        return q

    def _levels(self) -> Tuple[int, int]:
        return (
            self._level_of_var.buffer_info()[0],
            self._var_at_level.buffer_info()[0],
        )

    def _register_handle(self, handle: Function) -> None:
        key = id(handle)
        edge = handle.id
        self._refq.append(edge)
        self._handles[key] = weakref.ref(
            handle,
            functools.partial(
                _drop_handle, self._handles, self._handle_deaths, key, edge
            ),
        )

    def protect(self, edge: int) -> int:
        self._refq.append(edge)
        return edge

    def unprotect(self, edge: int) -> None:
        self._refq.append(~edge)

    # -- variables ---------------------------------------------------------

    def new_var(self, name: Any = None) -> int:
        var = self._lib.bk_add_vars(self._ptr, 1)
        if var < 0:
            _fail()
        self._level_of_var.append(var)
        self._var_at_level.append(var)
        self._var_names.append(name if name is not None else f"v{var}")
        return var

    # -- construction --------------------------------------------------------

    def _mk(self, var: int, lo: int, hi: int) -> int:
        edge = self._c_mk(var, lo, hi)
        if edge < 0:
            _fail()
        return edge

    def _ite(self, f: int, g: int, h: int) -> int:
        edge = self._c_ite(f, g, h)
        if edge < 0:
            _fail()
        return edge

    def _fold(self, functions: Iterable[Function], op: int) -> Function:
        ids = array("i", [f.id for f in functions])
        if not ids:
            return self.false if op else self.true
        edge = self._lib.bk_fold(self._ptr, *ids.buffer_info(), op)
        if edge < 0:
            _fail()
        return self._wrap(edge)

    def conjoin(self, functions: Iterable[Function]) -> Function:
        return self._fold(functions, 0)

    def disjoin(self, functions: Iterable[Function]) -> Function:
        return self._fold(functions, 1)

    def cube(self, literals: Dict[int, bool]) -> Function:
        variables = array("i", literals)
        values = array("B", [1 if literals[var] else 0 for var in literals])
        edge = self._lib.bk_cube(
            self._ptr, *variables.buffer_info(), values.buffer_info()[0]
        )
        if edge < 0:
            _fail()
        return self._wrap(edge)

    def _positive_cube_id(self, variables: Iterable[int]) -> int:
        variables = array("i", variables)
        edge = self._lib.bk_cube(self._ptr, *variables.buffer_info(), None)
        if edge < 0:
            _fail()
        return edge

    def _assignments_id(
        self, variables: Sequence[int], codes: Iterable[int], inside: int
    ) -> int:
        if len(variables) > _MAX_CODE_BITS:
            return super()._assignments_id(variables, codes, inside)
        variables = array("i", variables)
        codes = array("Q", codes)
        edge = self._lib.bk_assignments(
            self._ptr, *variables.buffer_info(), *codes.buffer_info(), inside
        )
        if edge < 0:
            _fail()
        return edge

    def conjoin_assignments(
        self, parts: Sequence[Tuple[Sequence[int], Iterable[int]]]
    ) -> Function:
        parts = [(array("i", v), array("Q", c)) for v, c in parts]
        if any(len(v) > _MAX_CODE_BITS for v, _ in parts):
            return super().conjoin_assignments(parts)
        sizes = array("i", [len(v) for v, _ in parts])
        counts = array("i", [len(c) for _, c in parts])
        variables = array("i")
        codes = array("Q")
        for v, c in parts:
            variables.extend(v)
            codes.extend(c)
        edge = self._lib.bk_conjoin_assignments(
            self._ptr, len(parts), sizes.buffer_info()[0],
            variables.buffer_info()[0], counts.buffer_info()[0],
            codes.buffer_info()[0],
        )
        if edge == -2:  # the groups' levels interleave
            return self.conjoin(self.assignments(*part) for part in parts)
        if edge < 0:
            _fail()
        return self._wrap(edge)

    # -- cofactors and quantification ----------------------------------------

    def _restrict(self, edge: int, var: int, value: bool) -> int:
        edge = self._c_restrict(edge, var, 1 if value else 0)
        if edge < 0:
            _fail()
        return edge

    def _exists_cube(self, edge: int, cube: int) -> int:
        edge = self._c_exists(edge, cube)
        if edge < 0:
            _fail()
        return edge

    @staticmethod
    def _check_positive_cube(manager: BddManager, edge: int) -> None:
        if not manager._lib.bk_is_positive_cube(manager._ptr, edge):
            raise ValueError("cube must be a conjunction of positive literals")

    def _and_exists(self, f: int, g: int, cube: int) -> int:
        edge = self._lib.bk_and_exists(self._ptr, f, g, cube)
        if edge < 0:
            _fail()
        return edge

    def compose(self, f: Function, var: int, g: Function) -> Function:
        edge = self._lib.bk_compose(self._ptr, f.id, var, g.id)
        if edge < 0:
            _fail()
        return self._wrap(edge)

    def _test_step(self, chi: int, var: int) -> Tuple[int, int]:
        out = self._out
        if self._lib.bk_test_step(self._ptr, chi, var, out.buffer_info()[0]):
            _fail()
        return out[0], out[1]

    def _assign_step(self, chi: int, var: int, cube: int) -> Tuple[int, int, int]:
        out = self._out
        if self._lib.bk_assign_step(
            self._ptr, chi, var, cube, out.buffer_info()[0]
        ):
            _fail()
        return out[0], out[1], out[2]

    # -- inspection ------------------------------------------------------------

    def size(self, f: Function) -> int:
        one = self._one
        one[0] = f.id
        return self._lib.bk_size(self._ptr, 1, one.buffer_info()[0])

    def shared_size(self, functions: Sequence[Function]) -> int:
        roots = array("i", [f.id for f in functions])
        return self._lib.bk_size(self._ptr, len(roots), roots.buffer_info()[0])

    def reachable_counts_by_var(self) -> List[int]:
        q = self._queue(True)
        roots = array("i", self._root_edges())
        counts = array("i", (0,)) * self.num_vars
        self._lib.bk_reachable_counts(
            self._ptr, *q.buffer_info(), *roots.buffer_info(),
            counts.buffer_info()[0],
        )
        del q[:]
        return counts.tolist()

    def _support_ids(self, edge: int) -> FrozenSet[int]:
        found = array("i", (0,)) * self.num_vars
        n = self._lib.bk_support(self._ptr, edge, found.buffer_info()[0])
        return frozenset(found[:n])

    def evaluate(self, f: Function, assignment: Dict[int, bool]) -> bool:
        if type(assignment) is not dict:
            assignment = dict(assignment)
        value = self._c_eval1(f.id, assignment)
        if value < 0:
            raise KeyError(-2 - value)
        return value == 1

    def _evaluate_ids(
        self,
        edges: Sequence[int],
        assignment: Dict[int, bool],
        flips: Sequence[int] = (),
    ) -> List[bool]:
        if type(assignment) is not dict:
            assignment = dict(assignment)
        buf = array("i", (len(edges), len(flips)))
        buf.extend(edges)
        buf.extend(flips)
        missing = self._lib.bk_evaluate(self._ptr, buf.buffer_info()[0], assignment)
        if missing:
            raise KeyError(missing - 1)
        return [value == 1 for value in buf[2:]]

    def _node_arrays(self) -> Tuple[array, array, array]:
        slots = self._lib.bk_slots(self._ptr)
        var, lo, hi = (array("i", (0,)) * slots for _ in range(3))
        self._lib.bk_nodes(
            self._ptr, var.buffer_info()[0], lo.buffer_info()[0],
            hi.buffer_info()[0],
        )
        return var, lo, hi

    # -- collection, counters -----------------------------------------------------

    def _counts(self, drain: bool = False) -> array:
        """:meth:`counters`' values, after the queued reference changes."""
        counts = array("q", (0,)) * len(_COUNTERS)
        q = self._queue(drain)
        self._lib.bk_counters(self._ptr, *q.buffer_info(), counts.buffer_info()[0])
        del q[:]
        return counts

    def counters(self) -> Dict[str, int]:
        return dict(zip(_COUNTERS, self._counts()))

    def sample_counters(self) -> Dict[str, int]:
        swaps, skips, _, _, _, live, _, hits, misses = self._counts()[:9]
        return {
            "swaps": swaps, "swap_skips": skips, "live_nodes": live,
            "ite_cache_hits": hits, "ite_cache_misses": misses,
        }

    def live_node_count(self) -> int:
        return self._counts()[5]

    def live_nodes_at_level(self, level: int) -> int:
        q = self._queue(False)
        live = self._lib.bk_live_at_level(self._ptr, *q.buffer_info(), level)
        del q[:]
        return live

    def collect(self) -> int:
        q = self._queue(True)
        freed = self._lib.bk_collect(self._ptr, *q.buffer_info())
        del q[:]
        return freed

    def store_stats(self) -> Dict[str, float]:
        """Statistics of the C store; its bytes are the kernel's arrays
        and tables, so they do not compare with the Python store's."""
        out = array("q", (0,)) * 4
        self._lib.bk_store_stats(self._ptr, out.buffer_info()[0])
        slots, allocated, store_bytes, complemented = out
        return {
            "allocated_slots": float(slots),
            "allocated_nodes": float(allocated),
            "store_bytes": float(store_bytes),
            "bytes_per_node": store_bytes / allocated if allocated else 0.0,
            "complemented_lo_edges": float(complemented),
            "complement_edge_share": (
                complemented / allocated if allocated else 0.0
            ),
        }

    def check(self) -> None:
        q = self._queue(True)
        roots = array("i", self._root_edges())
        err = self._lib.bk_check(self._ptr, *q.buffer_info(), *roots.buffer_info())
        del q[:]
        if err < 0:
            _fail()
        assert not err, _CHECKS.get(err, f"invariant {err}")

    # -- reordering -------------------------------------------------------------

    def swap_levels(
        self, level: int, interaction: Any = None
    ) -> None:
        if not 0 <= level < self.num_vars - 1:
            raise ValueError(f"cannot swap level {level}")
        skip = 0
        if interaction is not None:
            x = self._var_at_level[level]
            y = self._var_at_level[level + 1]
            skip = ((x, y) if x < y else (y, x)) not in interaction
        q = self._queue(not skip)
        failed = self._lib.bk_swap(
            self._ptr, *q.buffer_info(), level, skip, *self._levels()
        )
        del q[:]
        if failed:
            _fail()

    def _move_to_order(self, order: Sequence[int]) -> None:
        q = self._queue(True)
        order = array("i", order)
        failed = self._lib.bk_move_to_order(
            self._ptr, *q.buffer_info(), order.buffer_info()[0], *self._levels()
        )
        del q[:]
        if failed:
            _fail()

    def _checkpoint(self) -> "_NativeCheckpoint":
        return _NativeCheckpoint(self)

    def _rollback(self, cp: "_NativeCheckpoint", last: bool = False) -> None:
        """Restore ``cp`` (see :meth:`BddManager._rollback`)."""
        assert self._holding_deaths, "a rollback needs the roots held"
        q = self._queue(False)
        self._lib.bk_rollback(
            self._ptr, *q.buffer_info(), cp._ptr, *self._levels()
        )
        del q[:]

    def _copy_function(self, f: Function) -> Function:
        store = NativeManager(self.cache_limit)
        n = self.num_vars
        if n and store._lib.bk_add_vars(store._ptr, n) < 0:
            _fail()
        store._var_names = list(self._var_names)
        store._level_of_var = array("i", range(n))
        store._var_at_level = array("i", range(n))
        edge = self._lib.bk_copy(self._ptr, store._ptr, f.id, *store._levels())
        if edge < 0:
            _fail()
        return store._wrap(edge)

    def _sift_blocks(
        self,
        edge: int,
        blocks: Sequence[Sequence[int]],
        schedule: Sequence[int],
        relations: Optional[Sequence[array]],
        max_growth: float,
        sampled: bool,
    ) -> Tuple[int, int, int, List[Tuple[int, Dict[str, int]]]]:
        """One sifting pass in one C call (``bk_sift_pass``), on a store
        whose one root is ``edge``: the private copy a sift explores on.

        ``blocks`` is the layout, each block's variables top to bottom,
        and ``schedule`` the indices of the blocks in the order they are
        sifted.  ``relations`` bounds them: for each variable, those that
        must stay above it, then those that must stay below it, packed by
        :meth:`~repro.bdd.sifting.PrecedenceConstraints._packed`; None
        bounds nothing.  Returns the root's final size, the swap and skip
        totals, and, when ``sampled``, the ``(size, counters)`` a profile
        samples after each block the Python pass samples: of the counters,
        those a :meth:`~repro.obs.SiftProfile.timeline` reads.
        """
        flat = array("i", chain.from_iterable(blocks))
        first = array("i", accumulate(map(len, blocks), initial=0))
        schedule = array("i", schedule)
        bounds: Sequence[Optional[int]] = (None,) * 4
        if relations is not None:
            bounds = [table.buffer_info()[0] for table in relations]
        out = array("q", (0, 0, 0))
        samples = None
        if sampled:
            samples = array("q", (0,)) * (_SAMPLE * len(blocks))
        q = self._queue(True)
        taken = self._lib.bk_sift_pass(
            self._ptr, *q.buffer_info(), edge, len(blocks),
            first.buffer_info()[0], flat.buffer_info()[0],
            schedule.buffer_info()[0], *bounds, max_growth,
            out.buffer_info()[0],
            None if samples is None else samples.buffer_info()[0],
            *self._levels(),
        )
        del q[:]
        if taken < 0:
            _fail()
        rows = (
            samples[at:at + _SAMPLE] for at in range(0, _SAMPLE * taken, _SAMPLE)
        )
        return out[0], out[1], out[2], [
            (size, {
                "swaps": swaps, "swap_skips": skips, "live_nodes": live,
                "ite_cache_hits": hits, "ite_cache_misses": misses,
            })
            for size, swaps, skips, live, hits, misses in rows
        ]


class _NativeCheckpoint:
    """A copy of a native store's nodes, subtables and order, in C."""

    __slots__ = ("_lib", "_ptr")

    def __init__(self, manager: NativeManager) -> None:
        self._lib = manager._lib
        q = manager._queue(False)
        self._ptr = manager._lib.bk_checkpoint(manager._ptr, *q.buffer_info())
        del q[:]
        if not self._ptr:
            _fail("BDD kernel checkpoint")
        _LIVE["objects"] += 1

    def __del__(self, _live: Dict[str, int] = _LIVE) -> None:
        if self._ptr:
            self._lib.bk_free_checkpoint(self._ptr)
            self._ptr = None
            _live["objects"] -= 1
