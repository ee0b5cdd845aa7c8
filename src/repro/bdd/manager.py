"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This is the core Boolean-function substrate of the reproduction: the paper
represents each CFSM's reactive function as a BDD (Sec. II-B), optimizes it by
dynamic variable reordering (Rudell's sifting, Sec. III-B3), and derives the
s-graph directly from the BDD structure (Theorem 1).

The implementation is a struct-of-arrays, complement-edge ROBDD package in
the style of CUDD:

* the node store is a set of **parallel int arrays** (``_var``, ``_lo``,
  ``_hi``, ``_ref``, ``_next``) indexed by an integer node slot; slot ``0``
  is the single terminal node.  A Boolean function is a plain int **edge**
  ``(node << 1) | complement`` — ``TRUE_ID`` is the regular edge to the
  terminal and ``FALSE_ID`` its complement, and negation is ``edge ^ 1``,
  O(1), no traversal, no allocation;
* canonical form puts the complement bit **never on a then-edge**: ``_mk``
  flips both children and complements the resulting edge instead, so each
  function and its negation share one physical node and node counts roughly
  halve relative to a complement-free store;
* the unique table is a **per-variable chained int subtable**: ``_buckets
  [var]`` holds bucket heads and ``_next`` threads the collision chains
  through the node store itself (slot 0 doubles as the chain terminator) —
  no per-entry tuple keys, no dict of objects, and ``swap_levels`` can
  enumerate one variable's nodes without touching any other level;
* **liveness is reference-counted**: ``_ref[n]`` counts parent edges from
  live nodes plus live external :class:`Function` handles.  When a count
  drops to zero the node is flagged *dead* (its child references are
  released) but stays allocated until :meth:`BddManager.collect` sweeps it —
  and a dead node found again through the unique table or an operation
  cache is *resurrected* instead of being rebuilt.  Because BDDs are DAGs,
  reference counting is exact; there is no mark-and-sweep;
* live/dead totals (and per-variable breakdowns) are maintained
  incrementally by every operation **including adjacent-level swaps**, so
  :meth:`live_node_count` is O(1) and the sifting loop never has to collect
  just to read a size; a :class:`SizeProbe` reads one function's semantic
  size after swaps by recounting only the levels swapped since its
  previous read;
* the operation caches (ITE / restrict / quantification / support) are keyed
  by int edges.  Edges denote *functions*, and in-place level swaps relabel
  nodes without changing the function each edge denotes — so cached results
  stay valid across reordering and are only purged of entries that mention
  freed slots when :meth:`collect` actually frees nodes.  ITE triples are
  complement-normalized (main operand regular, then-operand regular) so a
  triple and its negation share one entry; restrict results are cached on
  the regular edge and re-complemented on the way out.  Caches are bounded
  and count hits/misses (see :meth:`counters`);
* dynamic reordering is implemented with the standard in-place adjacent-level
  swap (with an interaction-matrix fast path for non-interacting variable
  pairs), on top of which :mod:`repro.bdd.sifting` builds constrained
  sifting.

Sizes reported by :meth:`size` / :meth:`shared_size` /
:meth:`reachable_counts_by_var` are **semantic**: they count distinct
reachable edges, i.e. distinct subfunctions — exactly the node counts a
complement-free kernel reports.  Physical allocation (roughly half that) is
visible through :meth:`live_node_count` and :meth:`store_stats`.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import sys
import weakref
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["BddManager", "Function", "SizeProbe", "FALSE_ID", "TRUE_ID"]

# Terminal edges: both point at node slot 0; the complement bit alone
# distinguishes them.  TRUE is the regular edge so that a positive cube's
# spine stays complement-free.
TRUE_ID = 0
FALSE_ID = 1

# Sentinel "variable" of the terminal node (and of freed slots awaiting
# recycling).  It is never a valid variable id and always compares as the
# deepest possible level.
_TERMINAL_VAR = -1

# Default bound on each operation cache.  When an insert would grow a cache
# past the bound the cache is cleared wholesale (deterministic, O(1) amortized)
# and ``cache_resets`` is incremented.
_DEFAULT_CACHE_LIMIT = 1 << 20

# Initial bucket count of each per-variable subtable (always a power of two;
# doubled whenever a subtable's load factor passes 2).
_INITIAL_BUCKETS = 8


def _drop_handle(
    handles: Dict[int, Any], deaths: List[int], key: int, edge: int, _ref: Any
) -> None:
    """Weakref callback of a dead handle: queue its root's decref.

    It holds the manager's two containers, not the manager, so a manager
    is not part of a reference cycle through its handles.
    """
    if handles.pop(key, None) is not None:
        deaths.append(edge)


class Function:
    """A handle to a Boolean function stored in a :class:`BddManager`.

    Handles support the usual operator algebra (``&``, ``|``, ``^``, ``~``,
    ``>>`` for implication) plus the structural operations used by the
    synthesis flow (cofactors, quantification, composition).  Two handles
    compare equal iff they denote the same function, by ROBDD canonicity
    (``id`` is the canonical complement-edge encoding).

    Each live handle holds one reference on its root node; the reference is
    released (via a weakref callback) when the handle is garbage-collected.
    """

    __slots__ = ("manager", "id", "__weakref__")

    def __init__(self, manager: "BddManager", edge: int):
        self.manager = manager
        self.id = edge
        manager._register_handle(self)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Function)
            and other.manager is self.manager
            and other.id == self.id
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.id))

    def __repr__(self) -> str:
        return f"<Function id={self.id} size={self.size()}>"

    # -- constants --------------------------------------------------------

    @property
    def is_false(self) -> bool:
        return self.id == FALSE_ID

    @property
    def is_true(self) -> bool:
        return self.id == TRUE_ID

    @property
    def is_constant(self) -> bool:
        return self.id < 2

    # -- structure --------------------------------------------------------

    @property
    def var(self) -> int:
        """Top variable id (raises on constants)."""
        v = self.manager._var[self.id >> 1]
        if v == _TERMINAL_VAR:
            raise ValueError("constant function has no top variable")
        return v

    @property
    def low(self) -> "Function":
        """The else-cofactor (complement bit propagated through)."""
        m = self.manager
        return m._wrap(m._lo[self.id >> 1] ^ (self.id & 1))

    @property
    def high(self) -> "Function":
        """The then-cofactor (complement bit propagated through)."""
        m = self.manager
        return m._wrap(m._hi[self.id >> 1] ^ (self.id & 1))

    def size(self) -> int:
        """Number of distinct subfunctions (including constants) reachable
        from here — the node count of an equivalent complement-free BDD."""
        return self.manager.size(self)

    def support(self) -> Set[int]:
        """Set of variable ids the function essentially depends on."""
        return self.manager.support(self)

    # -- algebra ----------------------------------------------------------

    def __invert__(self) -> "Function":
        return self.manager.apply_not(self)

    def __and__(self, other: "Function") -> "Function":
        return self.manager.apply_and(self, other)

    def __or__(self, other: "Function") -> "Function":
        return self.manager.apply_or(self, other)

    def __xor__(self, other: "Function") -> "Function":
        return self.manager.apply_xor(self, other)

    def __rshift__(self, other: "Function") -> "Function":
        """Implication ``self -> other``."""
        return self.manager.apply_or(self.manager.apply_not(self), other)

    def iff(self, other: "Function") -> "Function":
        return self.manager.apply_not(self.manager.apply_xor(self, other))

    def ite(self, g: "Function", h: "Function") -> "Function":
        return self.manager.ite(self, g, h)

    # -- cofactors & quantification ----------------------------------------

    def restrict(self, var: int, value: bool) -> "Function":
        return self.manager.restrict(self, var, value)

    def cofactors(self, var: int) -> Tuple["Function", "Function"]:
        return self.restrict(var, False), self.restrict(var, True)

    def exists(self, variables: Iterable[int]) -> "Function":
        return self.manager.exists(self, variables)

    def exists_cube(self, cube: "Function") -> "Function":
        return self.manager.exists_cube(self, cube)

    def forall(self, variables: Iterable[int]) -> "Function":
        return self.manager.forall(self, variables)

    def and_exists(self, other: "Function", variables: Iterable[int]) -> "Function":
        return self.manager.and_exists(self, other, variables)

    def compose(self, var: int, g: "Function") -> "Function":
        return self.manager.compose(self, var, g)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, assignment: Dict[int, bool]) -> bool:
        return self.manager.evaluate(self, assignment)

    def count_sat(self, variables: Optional[Sequence[int]] = None) -> int:
        return self.manager.count_sat(self, variables)

    def iter_sat(self) -> Iterator[Dict[int, bool]]:
        return self.manager.iter_sat(self)


class SizeProbe:
    """``function.size()`` after level swaps, recounting only moved levels.

    Sifting reads the size of one function after every block move
    (Rudell); a full walk per read dominated the pass.  The probe caches,
    per level ``L``, the number of reachable edges whose node sits at
    ``L`` and the set of reachable non-terminal edges *entering* levels
    ``>= L`` from above (children of reachable nodes above ``L``, or the
    root).  A call after swaps recounts only from the highest to the
    lowest level stamped since the previous call, starting from the
    cached entry set of the highest.  The result is exactly what
    :meth:`Function.size` returns, because:

    * the semantic size at one level depends only on the function and on
      which variables lie above that level, so a swap of levels ``L`` and
      ``L + 1`` changes the counts at those two levels only;
    * :meth:`BddManager.swap_levels` rewrites nodes in place, so an edge
      entering the touched range from above keeps denoting the same
      function; the set of edges entering the first level below the
      range is unchanged too, because the same variables lie above it;
    * slots freed during a pass stay quarantined until
      :meth:`BddManager.collect`, and ``collect()`` frees only nodes
      unreachable from the function, so a cached edge never aliases a
      recycled slot.

    On the native kernel a read is the kernel's walk of the function,
    which costs less than the bookkeeping below.

    A non-constant function reaches both terminal edges, so its size is
    2 plus the per-level counts; a constant's size is 1.  The first call
    and a call after :meth:`BddManager.new_var` count every level.

    Levels are stamped by a private clock of the manager, not by
    ``swap_count`` (benches reset that counter).  A swap advances the clock
    by one and stamps its two levels.  A sift's rollback to a checkpoint
    restores the node store without swapping: it stamps every level a swap
    touched since the checkpoint (or since the previous rollback to it),
    which are exactly the levels whose nodes it changes, and advances the
    clock by two, so a rollback is never read as one swap.  A read is
    therefore a function of the variable order alone: the same order gives
    the same size, however the store got there.
    """

    __slots__ = ("function", "_clock", "_counts", "_entry", "_total")

    def __init__(self, function: Function) -> None:
        self.function = function
        self._clock = -1
        self._counts: List[int] = []
        self._entry: List[Set[int]] = []
        self._total = 0

    def __call__(self) -> int:
        manager = self.function.manager
        if manager._native:
            # The kernel's size walk is a C loop: no levels to cache.
            return manager.size(self.function)
        clock = manager._order_clock
        last = self._clock
        if clock == last:
            return self._total
        self._clock = clock
        stamps = manager._level_stamp
        if last < 0 or len(stamps) != len(self._counts):
            self._count_all(manager)
        elif clock == last + 1:
            # One swap, the usual sifting step: its two levels.
            top = stamps.index(clock)
            self._recount(manager, top, top + 1)
        else:
            touched = [level for level, s in enumerate(stamps) if s > last]
            self._recount(manager, touched[0], touched[-1])
        return self._total

    def _count_all(self, manager: "BddManager") -> None:
        """Count every level, starting from the root alone."""
        root = self.function.id
        levels = len(manager._level_stamp)
        self._counts = [0] * levels
        self._entry = [set() for _ in range(levels)]
        if root < 2:
            self._total = 1
        else:
            self._entry[0].add(root)
            self._total = 2
            self._recount(manager, 0, levels - 1)

    def _recount(self, manager: "BddManager", top: int, bottom: int) -> None:
        """Recount levels ``top..bottom`` from the cached entry set of ``top``."""
        var_arr, lo_arr, hi_arr = manager._var, manager._lo, manager._hi
        var_at = manager._var_at_level
        counts, entry = self._counts, self._entry
        total = self._total - sum(counts[top:bottom + 1])
        frontier = entry[top]
        for level in range(top, bottom):
            var = var_at[level]
            here = [e for e in frontier if var_arr[e >> 1] == var]
            counts[level] = len(here)
            below = frontier.difference(here)
            for e in here:
                nid = e >> 1
                c = e & 1
                child = lo_arr[nid] ^ c
                if child > 1:
                    below.add(child)
                child = hi_arr[nid]
                if child > 1:
                    below.add(child ^ c)
            frontier = entry[level + 1] = below
        # The entry set below the range is unchanged: count, don't expand.
        var = var_at[bottom]
        counts[bottom] = len([e for e in frontier if var_arr[e >> 1] == var])
        self._total = total + sum(counts[top:bottom + 1])


class _Checkpoint:
    """A copy of a manager's node store and variable order.

    Taken by :meth:`BddManager._checkpoint`, restored by
    :meth:`BddManager._rollback`.  ``since`` is the order-clock reading
    after which a swap changes the store relative to this copy.
    """

    __slots__ = ("arrays", "buckets", "counts", "since")

    def __init__(
        self, arrays: Tuple[Any, ...], buckets: List[List[int]],
        counts: Tuple[int, int, int], since: int,
    ) -> None:
        self.arrays = arrays
        self.buckets = buckets
        self.counts = counts
        self.since = since


class BddManager:
    """Owner of the node store, unique subtables, and variable order.

    ``BddManager()`` runs on the native kernel (:mod:`repro.bdd.kernel`)
    whenever ``_bdd_kernel.c`` builds and loads, and on this class's
    Python store otherwise; the two read the same functions, sizes,
    orders and counters.
    """

    #: Whether the node store is the native kernel's.
    _native = False

    def __new__(cls, cache_limit: int = _DEFAULT_CACHE_LIMIT) -> "BddManager":
        if cls is BddManager:
            from . import native

            if native.kernel_library() is not None:
                from .kernel import NativeManager

                cls = NativeManager
        return object.__new__(cls)

    def __init__(self, cache_limit: int = _DEFAULT_CACHE_LIMIT) -> None:
        # Node store (struct of arrays).  Slot 0 is the terminal; its
        # self-edges are never followed and its refcount never consulted.
        self._var: List[int] = [_TERMINAL_VAR]
        self._lo: List[int] = [TRUE_ID]
        self._hi: List[int] = [TRUE_ID]
        self._ref: List[int] = [1]
        # Unique-table collision chains, threaded through the store; 0 (the
        # terminal, never chained) doubles as the end-of-chain marker.
        self._next: List[int] = [0]
        # Dead flag: ref hit zero and the node's child references were
        # released.  (ref == 0 without the flag is a newborn whose child
        # references are still held — an intermediate result in flight.)
        self._is_dead: List[bool] = [False]
        # The dead slots, mirrored as a set so swap_levels can sweep them in
        # O(dead): dead nodes never survive a structural swap, which keeps
        # resurrection sound (a resurrected node's structure is guaranteed
        # untouched since it died).
        self._dead_set: Set[int] = set()
        self._free: List[int] = []
        # Slots freed eagerly (by swap_levels) whose edges may still appear
        # in operation caches: quarantined here — detectably stale via
        # ``_var[slot] == _TERMINAL_VAR`` — and only recycled into ``_free``
        # after collect() has purged the caches of them.
        self._pending_free: List[int] = []
        # Handle-death decrefs land here (weakref callbacks can fire at
        # arbitrary allocation points, e.g. mid-swap) and are drained at
        # deterministic safe points: collect(), structural swaps, check().
        # While a sift runs they stay queued (see _roots_held).
        self._handle_deaths: List[int] = []
        self._holding_deaths = False

        # Per-variable unique subtables + allocation accounting.
        self._buckets: List[List[int]] = []
        self._count_of_var: List[int] = []
        self._dead_of_var: List[int] = []
        self._allocated = 0  # non-terminal slots currently in some subtable

        # Operation caches.  Entries survive reordering (edges denote
        # functions; swaps preserve what every edge denotes) and are purged
        # of freed slots by collect().
        self.cache_limit = cache_limit
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._restrict_cache: Dict[Tuple[int, int], int] = {}
        self._quant_cache: Dict[Tuple[int, int, int], int] = {}
        self._support_cache: Dict[int, FrozenSet[int]] = {}

        # Variable order bookkeeping.  ``_level_stamp[level]`` is the
        # ``_order_clock`` reading of the last swap or rollback that changed
        # the level, so a :class:`SizeProbe` can tell which levels moved
        # since it last counted.
        self._level_of_var: List[int] = []
        self._var_at_level: List[int] = []
        self._level_stamp: List[int] = []
        self._order_clock = 0
        self._var_names: List[str] = []

        # Incremental liveness accounting (allocated = live + dead).
        self._live_count = 0
        self._dead_count = 0

        # Live external handles, keyed by object identity (NOT equality —
        # two equal Functions must both keep their nodes alive).
        self._handles: Dict[int, "weakref.ref[Function]"] = {}

        # Profiling counters (read through counters() by the build trace,
        # repro.obs.SiftProfile and the engine bench).
        self.swap_count = 0    # adjacent-level swaps performed
        self.swap_skips = 0    # swaps satisfied by the interaction fast path
        self.peak_nodes = 0    # high-water mark of allocated non-terminals
        self.collect_count = 0  # collect() invocations
        self.nodes_freed = 0    # total nodes reclaimed by collect()
        self.ite_hits = 0
        self.ite_misses = 0
        self.restrict_hits = 0
        self.restrict_misses = 0
        self.quant_hits = 0
        self.quant_misses = 0
        self.cache_resets = 0   # bounded-cache overflows

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def new_var(self, name: Optional[str] = None) -> int:
        """Declare a fresh variable at the bottom of the current order."""
        var = len(self._level_of_var)
        self._level_of_var.append(var)
        self._var_at_level.append(var)
        self._level_stamp.append(self._order_clock)
        self._var_names.append(name if name is not None else f"v{var}")
        self._buckets.append([0] * _INITIAL_BUCKETS)
        self._count_of_var.append(0)
        self._dead_of_var.append(0)
        return var

    @property
    def num_vars(self) -> int:
        return len(self._level_of_var)

    def var_name(self, var: int) -> str:
        return self._var_names[var]

    def level_of(self, var: int) -> int:
        return self._level_of_var[var]

    def var_at(self, level: int) -> int:
        return self._var_at_level[level]

    def current_order(self) -> List[int]:
        """Variables from top level to bottom level."""
        return list(self._var_at_level)

    # ------------------------------------------------------------------
    # Reference counting
    # ------------------------------------------------------------------

    def _mark_dead(self, nid: int) -> None:
        """Slot ``nid`` (ref == 0, child references held) leaves the live set."""
        is_dead = self._is_dead
        ref = self._ref
        lo, hi = self._lo, self._hi
        var = self._var
        dead_of_var = self._dead_of_var
        dead_set = self._dead_set
        stack = [nid]
        is_dead[nid] = True
        dead_set.add(nid)
        dead_of_var[var[nid]] += 1
        self._dead_count += 1
        self._live_count -= 1
        while stack:
            n = stack.pop()
            for c in (lo[n] >> 1, hi[n] >> 1):
                if c:
                    r = ref[c] - 1
                    ref[c] = r
                    if r == 0:
                        is_dead[c] = True
                        dead_set.add(c)
                        dead_of_var[var[c]] += 1
                        self._dead_count += 1
                        self._live_count -= 1
                        stack.append(c)

    def _decref(self, edge: int) -> None:
        """Release one reference on ``edge`` (recursively kills orphans)."""
        nid = edge >> 1
        if nid == 0:
            return
        r = self._ref[nid] - 1
        self._ref[nid] = r
        if r == 0:
            self._mark_dead(nid)

    def _resurrect(self, nid: int) -> None:
        """Bring the dead slot ``nid`` back: re-acquire its child references.

        Dead descendants reached through restored edges are resurrected too
        (CUDD's *reclaim*): a cache or unique-table hit on a dead result is
        a win, not a rebuild.
        """
        is_dead = self._is_dead
        ref = self._ref
        lo, hi = self._lo, self._hi
        var = self._var
        dead_of_var = self._dead_of_var
        dead_set = self._dead_set
        is_dead[nid] = False
        dead_set.discard(nid)
        dead_of_var[var[nid]] -= 1
        self._dead_count -= 1
        self._live_count += 1
        stack = [nid]
        while stack:
            n = stack.pop()
            for c in (lo[n] >> 1, hi[n] >> 1):
                if c:
                    if ref[c] == 0 and is_dead[c]:
                        is_dead[c] = False
                        dead_set.discard(c)
                        dead_of_var[var[c]] -= 1
                        self._dead_count -= 1
                        self._live_count += 1
                        stack.append(c)
                    ref[c] += 1

    def _incref(self, edge: int) -> None:
        """Acquire one reference on ``edge`` (resurrecting its node if dead)."""
        nid = edge >> 1
        if nid == 0:
            return
        if self._ref[nid] == 0 and self._is_dead[nid]:
            self._resurrect(nid)
        self._ref[nid] += 1

    def _is_stale(self, edge: int) -> bool:
        """True for an edge freed by a swap but not yet recycled by collect."""
        nid = edge >> 1
        return nid > 0 and self._var[nid] == _TERMINAL_VAR

    def _free_dead_node(self, nid: int) -> None:
        """Release a dead slot eagerly (during a level swap or a collect).

        Dead nodes hold no child references, so freeing is pure
        bookkeeping; the slot is quarantined in ``_pending_free`` until the
        next collect() purges the operation caches of it.
        """
        var = self._var[nid]
        self._unlink(nid)
        self._dead_of_var[var] -= 1
        self._dead_count -= 1
        self._is_dead[nid] = False
        self._dead_set.discard(nid)
        self._var[nid] = _TERMINAL_VAR
        self._pending_free.append(nid)
        self.nodes_freed += 1

    # ------------------------------------------------------------------
    # Unique subtables
    # ------------------------------------------------------------------

    def _unlink(self, nid: int) -> None:
        """Remove ``nid`` from its variable's collision chain."""
        var = self._var[nid]
        buckets = self._buckets[var]
        nxt = self._next
        slot = (
            (self._lo[nid] * 0x9E3779B1) ^ (self._hi[nid] * 0x45D9F3B)
        ) & (len(buckets) - 1)
        p = buckets[slot]
        if p == nid:
            buckets[slot] = nxt[nid]
        else:
            while nxt[p] != nid:
                p = nxt[p]
            nxt[p] = nxt[nid]
        self._count_of_var[var] -= 1
        self._allocated -= 1

    def _grow_subtable(self, var: int) -> None:
        """Double ``var``'s bucket array and rehash its chains."""
        old = self._buckets[var]
        mask = (len(old) << 1) - 1
        new = [0] * (mask + 1)
        nxt = self._next
        lo_arr, hi_arr = self._lo, self._hi
        for head in old:
            n = head
            while n:
                follow = nxt[n]
                slot = ((lo_arr[n] * 0x9E3779B1) ^ (hi_arr[n] * 0x45D9F3B)) & mask
                nxt[n] = new[slot]
                new[slot] = n
                n = follow
        self._buckets[var] = new

    def _shrink_subtable(self, var: int) -> None:
        """Rehash ``var``'s bucket array down while it is badly underloaded.

        Buckets otherwise only ever grow, and sifting scans every head of a
        subtable per swap — after a level's population collapses, walks over
        a mostly-empty array would dominate the swap.  Shrinking stops at a
        quarter load (growth triggers at 2x) so the two never thrash.
        """
        old = self._buckets[var]
        size = len(old)
        count = self._count_of_var[var]
        while size > _INITIAL_BUCKETS and (count << 2) <= size:
            size >>= 1
        if size == len(old):
            return
        mask = size - 1
        new = [0] * size
        nxt = self._next
        lo_arr, hi_arr = self._lo, self._hi
        for head in old:
            n = head
            while n:
                follow = nxt[n]
                slot = ((lo_arr[n] * 0x9E3779B1) ^ (hi_arr[n] * 0x45D9F3B)) & mask
                nxt[n] = new[slot]
                new[slot] = n
                n = follow
        self._buckets[var] = new

    # ------------------------------------------------------------------
    # Handles & constants
    # ------------------------------------------------------------------

    def _register_handle(self, handle: Function) -> None:
        key = id(handle)
        edge = handle.id
        self._incref(edge)
        self._handles[key] = weakref.ref(
            handle,
            functools.partial(
                _drop_handle, self._handles, self._handle_deaths, key, edge
            ),
        )

    def _drain_handle_deaths(self) -> None:
        """Apply queued handle-death decrefs (at a safe point)."""
        if self._holding_deaths:
            return
        deaths = self._handle_deaths
        while deaths:
            self._decref(deaths.pop())

    @contextlib.contextmanager
    def _roots_held(self) -> Iterator[None]:
        """Keep handle deaths queued, and their roots counted, in the block.

        Sifting runs inside this: every size it reads is then a function of
        the variable order alone, whenever the cyclic collector frees a
        :class:`Function`.  The queued deaths are applied at the first safe
        point after the block.
        """
        held = self._holding_deaths
        self._holding_deaths = True
        try:
            yield
        finally:
            self._holding_deaths = held

    def _root_edges(self) -> List[int]:
        """Edges of the live handles and of the handles whose deaths are
        queued: the references that keep nodes alive from outside."""
        roots = []
        for ref in list(self._handles.values()):
            handle = ref()
            if handle is not None:
                roots.append(handle.id)
        roots.extend(self._handle_deaths)
        return roots

    def _wrap(self, edge: int) -> Function:
        return Function(self, edge)

    # The constants are fresh handles: a handle kept on the manager would
    # hold the manager in a reference cycle.
    @property
    def false(self) -> Function:
        return Function(self, FALSE_ID)

    @property
    def true(self) -> Function:
        return Function(self, TRUE_ID)

    def constant(self, value: bool) -> Function:
        return Function(self, TRUE_ID if value else FALSE_ID)

    def var(self, var: int) -> Function:
        """The projection function of ``var``."""
        return self._wrap(self._mk(var, FALSE_ID, TRUE_ID))

    def nvar(self, var: int) -> Function:
        """The negated projection function of ``var``."""
        return self._wrap(self._mk(var, TRUE_ID, FALSE_ID))

    def cube(self, literals: Dict[int, bool]) -> Function:
        """Conjunction of literals, e.g. ``{a: True, b: False}`` -> a & ~b.

        Built bottom-up with direct ``_mk`` calls (one node per literal) —
        no ITE recursion, no cache churn.
        """
        edge = TRUE_ID
        level_of = self._level_of_var
        for var in sorted(literals, key=level_of.__getitem__, reverse=True):
            if literals[var]:
                edge = self._mk(var, FALSE_ID, edge)
            else:
                edge = self._mk(var, edge, FALSE_ID)
        return self._wrap(edge)

    def _positive_cube_id(self, variables: Iterable[int]) -> int:
        """Edge of the positive cube over ``variables`` (bottom-up).

        A positive cube's spine is complement-free: every node is
        ``(var, FALSE, rest)`` with a regular then-edge, so quantification
        can walk it with plain ``_hi`` reads.
        """
        edge = TRUE_ID
        level_of = self._level_of_var
        for var in sorted(set(variables), key=level_of.__getitem__, reverse=True):
            edge = self._mk(var, FALSE_ID, edge)
        return edge

    def assignments(self, variables: Sequence[int], codes: Iterable[int]) -> Function:
        """The set of full assignments over ``variables`` that ``codes`` spell.

        Bit ``n - 1 - i`` of a code is the value of ``variables[i]`` (the
        first variable is the most significant bit), so a multi-valued
        variable's value is its own code.  Built bottom-up by ``_mk``
        alone: no ITE, no cache traffic, one node per distinct subtree.
        """
        return self._wrap(self._assignments_id(variables, codes, TRUE_ID))

    def conjoin_assignments(
        self, parts: Sequence[Tuple[Sequence[int], Iterable[int]]]
    ) -> Function:
        """AND of :meth:`assignments` sets over disjoint variable groups.

        ``parts`` holds ``(variables, codes)`` pairs.  Where the groups'
        levels do not interleave, each set is built with the AND of the
        sets below it in place of TRUE, so the whole conjunction takes
        ``_mk`` calls only; where they do (an order that splits a group),
        the sets are built apart and AND-ed by ITE.
        """
        level_of = self._level_of_var
        spans = []
        for part in parts:
            levels = [level_of[var] for var in part[0]]
            spans.append((min(levels), max(levels), part))
        spans.sort(key=lambda span: span[0])
        if any(spans[i][1] > spans[i + 1][0] for i in range(len(spans) - 1)):
            return self.conjoin(self.assignments(*part) for part in parts)
        edge = TRUE_ID
        for _, _, (variables, codes) in reversed(spans):
            edge = self._assignments_id(variables, codes, edge)
        return self._wrap(edge)

    def _assignments_id(
        self, variables: Sequence[int], codes: Iterable[int], inside: int
    ) -> int:
        """Edge that is ``inside`` on the assignments ``codes`` spell over
        ``variables`` and FALSE on every other one.

        The variables are taken in level order (each code's bits permuted
        to match) and the edge is built one level at a time from the
        bottom: a node per distinct code prefix, its missing branches
        FALSE.  A full set is cut short to ``inside``, and ``_mk``
        collapses every full subtree below it.  ``inside`` must lie below
        every variable.
        """
        n = len(variables)
        level_of = self._level_of_var
        levels = [level_of[var] for var in variables]
        if levels == sorted(levels):
            layer = dict.fromkeys(codes, inside)
        else:
            ranks = sorted(range(n), key=levels.__getitem__)
            shifts = [(n - 1 - i, n - 1 - j) for j, i in enumerate(ranks)]
            layer = dict.fromkeys(
                (
                    sum(((code >> src) & 1) << dst for src, dst in shifts)
                    for code in codes
                ),
                inside,
            )
            variables = [variables[i] for i in ranks]
        if not layer:
            return FALSE_ID
        if len(layer) == 1 << n:
            return inside
        mk = self._mk
        for var in reversed(variables):
            get = layer.get
            above: Dict[int, int] = {}
            for code in layer:
                parent = code >> 1
                if parent not in above:
                    base = parent << 1
                    above[parent] = mk(var, get(base, FALSE_ID), get(base | 1, FALSE_ID))
            layer = above
        return layer[0]

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def _mk(self, var: int, lo: int, hi: int) -> int:
        """Find-or-create the reduced node for edge cofactors ``(lo, hi)``.

        Canonical form: the then-edge is never complemented.  When ``hi``
        carries the complement bit, both cofactors are flipped and the
        complement moves onto the returned edge, so a function and its
        negation share one physical node.

        The returned node may be dead (resurrection is the caller's
        concern via ``_incref``); a *created* node is a newborn with
        ref == 0 that already holds references on its children.
        """
        if lo == hi:
            return lo
        c = hi & 1
        if c:
            lo ^= 1
            hi ^= 1
        buckets = self._buckets[var]
        mask = len(buckets) - 1
        slot = ((lo * 0x9E3779B1) ^ (hi * 0x45D9F3B)) & mask
        nxt = self._next
        lo_arr, hi_arr = self._lo, self._hi
        n = buckets[slot]
        while n:
            if lo_arr[n] == lo and hi_arr[n] == hi:
                return (n << 1) | c
            n = nxt[n]
        if self._free:
            n = self._free.pop()
            self._var[n] = var
            lo_arr[n] = lo
            hi_arr[n] = hi
            self._ref[n] = 0
        else:
            n = len(self._var)
            self._var.append(var)
            lo_arr.append(lo)
            hi_arr.append(hi)
            self._ref.append(0)
            nxt.append(0)
            self._is_dead.append(False)
        self._incref(lo)
        self._incref(hi)
        nxt[n] = buckets[slot]
        buckets[slot] = n
        count = self._count_of_var[var] + 1
        self._count_of_var[var] = count
        self._allocated += 1
        if self._allocated > self.peak_nodes:
            self.peak_nodes = self._allocated
        self._live_count += 1
        if count > (mask + 1) << 1:
            self._grow_subtable(var)
        return (n << 1) | c

    # ------------------------------------------------------------------
    # Core ITE and derived operators
    # ------------------------------------------------------------------

    def _ite(self, f: int, g: int, h: int) -> int:
        """Iterative ITE with complement-aware standard-triple normalization.

        An explicit work stack replaces Python recursion (one frame tuple
        per pending reduction instead of a full interpreter frame), and
        triples are normalized to canonical form before the cache lookup:

        * equal and complement operands reduce immediately —
          ``ITE(f, f, h) = ITE(f, 1, h)``, ``ITE(f, ~f, h) = ITE(f, 0, h)``
          and dually for ``h``; ``ITE(f, 1, 0) = f``, ``ITE(f, 0, 1) = ~f``;
        * ``ITE(f, 1, h)`` (OR), ``ITE(f, g, 0)`` (AND), ``ITE(f, g, 1)``
          and ``ITE(f, 0, h)`` (via De Morgan rotations) and the XOR shape
          ``ITE(f, g, ~g) = ITE(g, f, ~f)`` are reordered so both argument
          orders share one cache entry;
        * the complement bits are then pulled out of ``f`` (by swapping the
          branches) and out of ``g`` (by negating the whole triple), so the
          cached triple always has a regular main operand and a regular
          then-operand, and a triple and its negation share one entry.
        """
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        level_of = self._level_of_var
        var_at = self._var_at_level
        cache = self._ite_cache
        nvars = len(level_of)
        mk = self._mk

        results: List[int] = []
        # Frames: (0, f, g, h) = evaluate triple; (1, var, key, neg) = reduce.
        tasks: List[Tuple[int, ...]] = [(0, f, g, h)]
        pop = tasks.pop
        push = tasks.append
        while tasks:
            frame = pop()
            if frame[0]:
                _, var, key, neg = frame
                hi_r = results.pop()
                lo_r = results.pop()
                r = mk(var, lo_r, hi_r)
                cache[key] = r
                results.append(r ^ neg)
                continue
            _, f, g, h = frame
            # Terminal rules.
            if f < 2:
                results.append(g if f == TRUE_ID else h)
                continue
            if g == h:
                results.append(g)
                continue
            # Equal/complement-operand reductions.
            if g == f:
                g = TRUE_ID
            elif g == f ^ 1:
                g = FALSE_ID
            if h == f:
                h = FALSE_ID
            elif h == f ^ 1:
                h = TRUE_ID
            if g == h:
                results.append(g)
                continue
            if g == TRUE_ID and h == FALSE_ID:
                results.append(f)
                continue
            if g == FALSE_ID and h == TRUE_ID:
                results.append(f ^ 1)
                continue
            fl = level_of[var_arr[f >> 1]]
            if g == TRUE_ID:
                # OR(f, h): commutative, h is non-terminal here.
                hl = level_of[var_arr[h >> 1]]
                if hl < fl or (hl == fl and h < f):
                    f, h = h, f
                    fl = hl
            elif h == FALSE_ID:
                # AND(f, g): commutative, g is non-terminal here.
                gl = level_of[var_arr[g >> 1]]
                if gl < fl or (gl == fl and g < f):
                    f, g = g, f
                    fl = gl
            elif h == TRUE_ID:
                # ITE(f, g, 1) == ITE(~g, ~f, 1): canonical smaller operand.
                gl = level_of[var_arr[g >> 1]]
                if gl < fl or (gl == fl and (g ^ 1) < f):
                    f, g = g ^ 1, f ^ 1
                    fl = gl
            elif g == FALSE_ID:
                # ITE(f, 0, h) == ITE(~h, 0, ~f).
                hl = level_of[var_arr[h >> 1]]
                if hl < fl or (hl == fl and (h ^ 1) < f):
                    f, h = h ^ 1, f ^ 1
                    fl = hl
            elif h == g ^ 1:
                # XOR shape: ITE(f, g, ~g) == ITE(g, f, ~f).  The operands
                # never share a node here (g == f / g == ~f reduced above).
                gl = level_of[var_arr[g >> 1]]
                if gl < fl or (gl == fl and (g >> 1) < (f >> 1)):
                    f, g, h = g, f, f ^ 1
                    fl = gl
            # Pull complements out: main operand regular (swap branches),
            # then-operand regular (negate the triple, restore on exit).
            if f & 1:
                f ^= 1
                g, h = h, g
            neg = g & 1
            if neg:
                g ^= 1
                h ^= 1
            key = (f, g, h)
            r = cache.get(key)
            # A cached result whose slot was freed by a swap (and not yet
            # recycled) is detectably stale: its var is the terminal marker
            # but it is not the terminal.  Treat as a miss and overwrite.
            if r is not None and (r < 2 or var_arr[r >> 1] != _TERMINAL_VAR):
                self.ite_hits += 1
                results.append(r ^ neg)
                continue
            self.ite_misses += 1
            gv = var_arr[g >> 1]
            gl = nvars if gv < 0 else level_of[gv]
            hv = var_arr[h >> 1]
            hl = nvars if hv < 0 else level_of[hv]
            level = fl
            if gl < level:
                level = gl
            if hl < level:
                level = hl
            # f and g are regular here; only h can carry a complement.
            if fl == level:
                nf = f >> 1
                f0, f1 = lo_arr[nf], hi_arr[nf]
            else:
                f0 = f1 = f
            if gl == level:
                ng = g >> 1
                g0, g1 = lo_arr[ng], hi_arr[ng]
            else:
                g0 = g1 = g
            if hl == level:
                ch = h & 1
                nh = h >> 1
                h0, h1 = lo_arr[nh] ^ ch, hi_arr[nh] ^ ch
            else:
                h0 = h1 = h
            push((1, var_at[level], key, neg))
            push((0, f1, g1, h1))
            push((0, f0, g0, h0))
        if len(cache) > self.cache_limit:
            cache.clear()
            self.cache_resets += 1
        return results[-1]

    def ite(self, f: Function, g: Function, h: Function) -> Function:
        return self._wrap(self._ite(f.id, g.id, h.id))

    def apply_not(self, f: Function) -> Function:
        # Complement edges make negation a bit flip: no traversal, no
        # allocation, no cache traffic.
        return self._wrap(f.id ^ 1)

    def apply_and(self, f: Function, g: Function) -> Function:
        return self._wrap(self._ite(f.id, g.id, FALSE_ID))

    def apply_or(self, f: Function, g: Function) -> Function:
        return self._wrap(self._ite(f.id, TRUE_ID, g.id))

    def apply_xor(self, f: Function, g: Function) -> Function:
        return self._wrap(self._ite(f.id, g.id ^ 1, g.id))

    def conjoin(self, functions: Iterable[Function]) -> Function:
        """AND of ``functions``, combined as a balanced tree.

        Pairwise rounds keep intermediate BDDs small compared to a left
        fold (the classic array-reduction trick); the result is canonical
        either way.
        """
        ids = [f.id for f in functions]
        if not ids:
            return self.true
        ite = self._ite
        while len(ids) > 1:
            nxt = [
                ite(ids[i], ids[i + 1], FALSE_ID)
                for i in range(0, len(ids) - 1, 2)
            ]
            if len(ids) % 2:
                nxt.append(ids[-1])
            ids = nxt
        return self._wrap(ids[0])

    def disjoin(self, functions: Iterable[Function]) -> Function:
        """OR of ``functions``, combined as a balanced tree."""
        ids = [f.id for f in functions]
        if not ids:
            return self.false
        ite = self._ite
        while len(ids) > 1:
            nxt = [
                ite(ids[i], TRUE_ID, ids[i + 1])
                for i in range(0, len(ids) - 1, 2)
            ]
            if len(ids) % 2:
                nxt.append(ids[-1])
            ids = nxt
        return self._wrap(ids[0])

    # ------------------------------------------------------------------
    # Raw-edge API
    # ------------------------------------------------------------------
    #
    # Hot loops (the s-graph builder's Theorem-1 smoothing, the estimator's
    # guard walk) work on plain int edges and skip Function allocation and
    # the weakref handle registry entirely.  A raw edge holds NO reference:
    # callers that keep one across an operation that can collect must
    # protect()/unprotect() it.

    def protect(self, edge: int) -> int:
        """Acquire a reference on a raw edge; returns the edge."""
        self._incref(edge)
        return edge

    def unprotect(self, edge: int) -> None:
        """Release a reference taken with :meth:`protect`."""
        self._decref(edge)

    def wrap(self, edge: int) -> Function:
        """Create a :class:`Function` handle for a raw edge.

        The handle holds its own reference (released when the handle is
        garbage-collected), so this is how a raw-edge computation hands a
        result back to handle-level code.
        """
        return Function(self, edge)

    def not_id(self, edge: int) -> int:
        """Negation of a raw edge (a bit flip)."""
        return edge ^ 1

    def ite_ids(self, f: int, g: int, h: int) -> int:
        """ITE over raw edges."""
        return self._ite(f, g, h)

    def and_ids(self, f: int, g: int) -> int:
        """AND over raw edges."""
        return self._ite(f, g, FALSE_ID)

    def or_ids(self, f: int, g: int) -> int:
        """OR over raw edges."""
        return self._ite(f, TRUE_ID, g)

    def restrict_id(self, edge: int, var: int, value: bool) -> int:
        """Cofactor of a raw edge by ``var = value``."""
        return self._restrict(edge, var, value)

    def exists_cube_id(self, edge: int, cube: int) -> int:
        """Existential quantification of a raw edge by a positive-cube edge."""
        return self._exists_cube(edge, cube)

    # ------------------------------------------------------------------
    # Cofactors, quantification, composition
    # ------------------------------------------------------------------

    def _restrict(self, edge: int, var: int, value: bool) -> int:
        nid = edge >> 1
        if nid == 0:
            return edge
        var_arr = self._var
        level = self._level_of_var[var_arr[nid]]
        target_level = self._level_of_var[var]
        if level > target_level:
            return edge
        c = edge & 1
        if level == target_level:
            return (self._hi[nid] if value else self._lo[nid]) ^ c
        # Restriction commutes with complement, so the cache is keyed on the
        # regular edge and the result re-complemented on the way out:
        # restrict(~f) = ~restrict(f) shares one entry.
        cache_key = (nid << 1, (var << 1) | value)
        cached = self._restrict_cache.get(cache_key)
        if cached is not None and not self._is_stale(cached):
            self.restrict_hits += 1
            return cached ^ c
        self.restrict_misses += 1
        lo = self._restrict(self._lo[nid], var, value)
        hi = self._restrict(self._hi[nid], var, value)
        result = self._mk(var_arr[nid], lo, hi)
        cache = self._restrict_cache
        cache[cache_key] = result
        if len(cache) > self.cache_limit:
            cache.clear()
            self.cache_resets += 1
        return result ^ c

    def restrict(self, f: Function, var: int, value: bool) -> Function:
        return self._wrap(self._restrict(f.id, var, value))

    def _exists_cube(self, edge: int, cube: int) -> int:
        """Existentially quantify the positive-cube ``cube`` out of ``edge``.

        One traversal for the whole variable set (instead of one
        restrict+OR pass per variable), with early termination on TRUE
        and its own cache (``_quant_cache``).  Unlike restrict, existential
        quantification does NOT commute with complement (exists x.~f !=
        ~exists x.f), so entries are keyed on the edge as-is.
        """
        if edge < 2 or cube == TRUE_ID:
            return edge
        var_arr = self._var
        level_of = self._level_of_var
        hi_arr = self._hi
        nl = level_of[var_arr[edge >> 1]]
        # Drop cube variables above the node: vacuously quantified.  Cube
        # spines are complement-free, so plain _hi reads walk them.
        while cube and level_of[var_arr[cube >> 1]] < nl:
            cube = hi_arr[cube >> 1]
        if not cube:
            return edge
        key = (edge, cube, -1)
        cached = self._quant_cache.get(key)
        if cached is not None and not self._is_stale(cached):
            self.quant_hits += 1
            return cached
        self.quant_misses += 1
        lo_arr = self._lo
        c = edge & 1
        nid = edge >> 1
        if level_of[var_arr[cube >> 1]] == nl:
            # Quantified variable: OR of the cofactor results.
            rest = hi_arr[cube >> 1]
            r0 = self._exists_cube(lo_arr[nid] ^ c, rest)
            if r0 == TRUE_ID:
                result = TRUE_ID
            else:
                r1 = self._exists_cube(hi_arr[nid] ^ c, rest)
                result = self._ite(r0, TRUE_ID, r1)
        else:
            r0 = self._exists_cube(lo_arr[nid] ^ c, cube)
            r1 = self._exists_cube(hi_arr[nid] ^ c, cube)
            result = self._mk(var_arr[nid], r0, r1)
        cache = self._quant_cache
        cache[key] = result
        if len(cache) > self.cache_limit:
            cache.clear()
            self.cache_resets += 1
        return result

    @staticmethod
    def _check_positive_cube(manager: "BddManager", edge: int) -> None:
        while edge >= 2:
            if (edge & 1) or manager._lo[edge >> 1] != FALSE_ID:
                raise ValueError("cube must be a conjunction of positive literals")
            edge = manager._hi[edge >> 1]
        if edge != TRUE_ID:
            raise ValueError("cube must be a conjunction of positive literals")

    def exists(self, f: Function, variables: Iterable[int]) -> Function:
        return self._wrap(
            self._exists_cube(f.id, self._positive_cube_id(variables))
        )

    def exists_cube(self, f: Function, cube: Function) -> Function:
        """Like :meth:`exists` but over a prebuilt positive cube.

        Callers quantifying the same variable set repeatedly (e.g. the
        s-graph builder's per-level smoothing) build the cube once and
        reuse it, keeping the quantification cache hot.
        """
        self._check_positive_cube(self, cube.id)
        return self._wrap(self._exists_cube(f.id, cube.id))

    def forall(self, f: Function, variables: Iterable[int]) -> Function:
        # By duality: forall x.f == ~exists x.~f — both negations are bit
        # flips on the complement-edge store.
        return self._wrap(
            self._exists_cube(f.id ^ 1, self._positive_cube_id(variables)) ^ 1
        )

    def _and_exists(self, f: int, g: int, cube: int) -> int:
        """Relational product: exists cube . (f & g), in one traversal."""
        if f == FALSE_ID or g == FALSE_ID or g == f ^ 1:
            return FALSE_ID
        if f == TRUE_ID:
            return self._exists_cube(g, cube)
        if g == TRUE_ID or f == g:
            return self._exists_cube(f, cube)
        if g < f:  # AND is commutative: canonical operand order
            f, g = g, f
        var_arr = self._var
        level_of = self._level_of_var
        fl = level_of[var_arr[f >> 1]]
        gl = level_of[var_arr[g >> 1]]
        top = fl if fl < gl else gl
        hi_arr = self._hi
        while cube and level_of[var_arr[cube >> 1]] < top:
            cube = hi_arr[cube >> 1]
        if not cube:
            return self._ite(f, g, FALSE_ID)
        key = (f, g, cube)
        cached = self._quant_cache.get(key)
        if cached is not None and not self._is_stale(cached):
            self.quant_hits += 1
            return cached
        self.quant_misses += 1
        lo_arr = self._lo
        if fl == top:
            cf = f & 1
            nf = f >> 1
            f0, f1 = lo_arr[nf] ^ cf, hi_arr[nf] ^ cf
        else:
            f0 = f1 = f
        if gl == top:
            cg = g & 1
            ng = g >> 1
            g0, g1 = lo_arr[ng] ^ cg, hi_arr[ng] ^ cg
        else:
            g0 = g1 = g
        if level_of[var_arr[cube >> 1]] == top:
            rest = hi_arr[cube >> 1]
            r0 = self._and_exists(f0, g0, rest)
            if r0 == TRUE_ID:
                result = TRUE_ID
            else:
                r1 = self._and_exists(f1, g1, rest)
                result = self._ite(r0, TRUE_ID, r1)
        else:
            r0 = self._and_exists(f0, g0, cube)
            r1 = self._and_exists(f1, g1, cube)
            result = self._mk(self._var_at_level[top], r0, r1)
        cache = self._quant_cache
        cache[key] = result
        if len(cache) > self.cache_limit:
            cache.clear()
            self.cache_resets += 1
        return result

    def and_exists(
        self, f: Function, g: Function, variables: Iterable[int]
    ) -> Function:
        """``exists variables . (f & g)`` without building ``f & g``."""
        return self._wrap(
            self._and_exists(f.id, g.id, self._positive_cube_id(variables))
        )

    def compose(self, f: Function, var: int, g: Function) -> Function:
        """Substitute ``g`` for ``var`` in ``f``."""
        lo = self._restrict(f.id, var, False)
        hi = self._restrict(f.id, var, True)
        return self._wrap(self._ite(g.id, hi, lo))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def size(self, f: Function) -> int:
        """Distinct subfunctions reachable from ``f`` (semantic size).

        Counts distinct reachable *edges* — a function and its negation
        count separately, as do both constants — which is exactly the node
        count of an equivalent complement-free BDD.  Physical slots shared
        through complement edges are roughly half of this.
        """
        seen: Set[int] = set()
        stack = [f.id]
        lo_arr, hi_arr = self._lo, self._hi
        while stack:
            edge = stack.pop()
            if edge in seen:
                continue
            seen.add(edge)
            nid = edge >> 1
            if nid:
                c = edge & 1
                stack.append(lo_arr[nid] ^ c)
                stack.append(hi_arr[nid] ^ c)
        return len(seen)

    def shared_size(self, functions: Sequence[Function]) -> int:
        """Semantic node count of the shared DAG rooted at ``functions``."""
        seen: Set[int] = set()
        stack = [f.id for f in functions]
        lo_arr, hi_arr = self._lo, self._hi
        while stack:
            edge = stack.pop()
            if edge in seen:
                continue
            seen.add(edge)
            nid = edge >> 1
            if nid:
                c = edge & 1
                stack.append(lo_arr[nid] ^ c)
                stack.append(hi_arr[nid] ^ c)
        return len(seen)

    def reachable_counts_by_var(self) -> List[int]:
        """Distinct reachable subfunctions per top variable, over live handles.

        The sifting pass sorts its schedule by these counts: they equal the
        per-variable node populations a complement-free kernel would report
        right after a collect, so sifting decisions (and hence final
        variable orders) are independent of the complement-edge sharing.
        """
        self._drain_handle_deaths()
        counts = [0] * self.num_vars
        seen: Set[int] = set()
        stack = self._root_edges()
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        while stack:
            edge = stack.pop()
            if edge in seen:
                continue
            seen.add(edge)
            nid = edge >> 1
            if nid:
                counts[var_arr[nid]] += 1
                c = edge & 1
                stack.append(lo_arr[nid] ^ c)
                stack.append(hi_arr[nid] ^ c)
        return counts

    def _support_ids(self, edge: int) -> FrozenSet[int]:
        """Support of ``edge``, memoized per node slot (purged on collect).

        Supports are complement- and order-independent, so the memo is
        keyed by node slot (not edge) and entries survive reordering like
        the other caches.
        """
        nid = edge >> 1
        empty: FrozenSet[int] = frozenset()
        if nid == 0:
            return empty
        cache = self._support_cache
        cached = cache.get(nid)
        if cached is not None:
            return cached
        lo_arr, hi_arr, var_arr = self._lo, self._hi, self._var
        stack = [nid]
        while stack:
            n = stack[-1]
            if n in cache:
                stack.pop()
                continue
            lo_n = lo_arr[n] >> 1
            hi_n = hi_arr[n] >> 1
            ready = True
            if lo_n and lo_n not in cache:
                stack.append(lo_n)
                ready = False
            if hi_n and hi_n not in cache:
                stack.append(hi_n)
                ready = False
            if ready:
                stack.pop()
                cache[n] = (
                    frozenset({var_arr[n]})
                    | cache.get(lo_n, empty)
                    | cache.get(hi_n, empty)
                )
        return cache[nid]

    def support(self, f: Function) -> Set[int]:
        return set(self._support_ids(f.id))

    def interaction_pairs(self) -> Set[Tuple[int, int]]:
        """Pairs ``(a, b)``, ``a < b``, co-occurring in some live root's support.

        Two variables that never interact can swap levels without touching
        a single node — the sifting loop uses this to skip the subtable
        scan entirely (see :meth:`swap_levels`).  The matrix is computed
        from the current live handles; it stays valid for the duration of
        one sifting pass because reordering never changes the function any
        root denotes.
        """
        pairs: Set[Tuple[int, int]] = set()
        seen_roots: Set[int] = set()
        for edge in self._root_edges():
            if (edge >> 1) in seen_roots:
                continue
            seen_roots.add(edge >> 1)
            sup = sorted(self._support_ids(edge))
            for i, a in enumerate(sup):
                for b in sup[i + 1:]:
                    pairs.add((a, b))
        return pairs

    def evaluate(self, f: Function, assignment: Dict[int, bool]) -> bool:
        edge = f.id
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        while edge >= 2:
            nid = edge >> 1
            edge = (
                hi_arr[nid] if assignment[var_arr[nid]] else lo_arr[nid]
            ) ^ (edge & 1)
        return edge == TRUE_ID

    def _evaluate_ids(
        self,
        edges: Sequence[int],
        assignment: Dict[int, bool],
        flips: Sequence[int] = (),
    ) -> List[bool]:
        """Each of ``edges`` under one assignment, then ``edges[0]`` under
        that assignment with each variable of ``flips`` inverted in turn.

        Callers that read several functions of one input (a reaction's
        action conditions, the labels on an s-graph path, χ against each
        single-output change) hand them all in at once: on the native
        kernel that is one call.  A variable a walk needs and
        ``assignment`` leaves out raises ``KeyError``.
        """
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi

        def walk(edge: int, values: Dict[int, bool]) -> bool:
            while edge >= 2:
                nid = edge >> 1
                edge = (
                    hi_arr[nid] if values[var_arr[nid]] else lo_arr[nid]
                ) ^ (edge & 1)
            return edge == TRUE_ID

        results = [walk(edge, assignment) for edge in edges]
        for var in flips:
            flipped = dict(assignment)
            flipped[var] = not flipped[var]
            results.append(walk(edges[0], flipped))
        return results

    def _node_arrays(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """Every slot's variable, else-edge and then-edge, in one read.

        The walkers below, and callers that lower a BDD node by node,
        index these instead of building a :class:`Function` per node.
        They stay valid until the next operation that builds, swaps or
        collects.
        """
        return self._var, self._lo, self._hi

    def count_sat(self, f: Function, variables: Optional[Sequence[int]] = None) -> int:
        """Number of satisfying assignments over ``variables``.

        ``variables`` defaults to all manager variables; it must contain the
        support of ``f``.
        """
        if variables is None:
            count_vars = set(range(self.num_vars))
        else:
            count_vars = set(variables)
            missing = self.support(f) - count_vars
            if missing:
                names = ", ".join(self._var_names[v] for v in sorted(missing))
                raise ValueError(f"count_sat variables missing support: {names}")
        levels = sorted(self._level_of_var[v] for v in count_vars)
        n = len(levels)
        var_arr, lo_arr, hi_arr = self._node_arrays()
        level_of = self._level_of_var
        nvars = len(level_of)

        def rank(edge: int) -> int:
            """Number of counted levels strictly above ``edge``'s level."""
            nid = edge >> 1
            level = level_of[var_arr[nid]] if nid else nvars
            return bisect.bisect_left(levels, level)

        memo: Dict[int, int] = {}

        def count(edge: int) -> int:
            # Satisfying assignments over counted vars at/below this level.
            if edge == FALSE_ID:
                return 0
            here = rank(edge)
            if edge == TRUE_ID:
                return 1 << (n - here)
            if edge in memo:
                return memo[edge]
            c = edge & 1
            nid = edge >> 1
            lo = lo_arr[nid] ^ c
            hi = hi_arr[nid] ^ c
            lo_gap = rank(lo) - here - 1
            hi_gap = rank(hi) - here - 1
            total = (count(lo) << lo_gap) + (count(hi) << hi_gap)
            memo[edge] = total
            return total

        return count(f.id) << rank(f.id)

    def iter_sat(self, f: Function) -> Iterator[Dict[int, bool]]:
        """Iterate over satisfying cubes (partial assignments over support)."""
        var_arr, lo_arr, hi_arr = self._node_arrays()

        def walk(edge: int, partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if edge == FALSE_ID:
                return
            if edge == TRUE_ID:
                yield dict(partial)
                return
            c = edge & 1
            nid = edge >> 1
            var = var_arr[nid]
            partial[var] = False
            yield from walk(lo_arr[nid] ^ c, partial)
            partial[var] = True
            yield from walk(hi_arr[nid] ^ c, partial)
            del partial[var]

        yield from walk(f.id, {})

    def pick_sat(self, f: Function) -> Optional[Dict[int, bool]]:
        """One satisfying cube, or ``None`` if unsatisfiable."""
        for cube in self.iter_sat(f):
            return cube
        return None

    def to_dot(self, f: Function, name: str = "bdd") -> str:
        """Graphviz DOT rendering of the BDD rooted at ``f``.

        Rendered over distinct reachable edges (one vertex per
        subfunction), so the drawing matches the complement-free BDD of the
        same function rather than exposing the shared physical slots.
        """
        lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
        var_arr, lo_arr, hi_arr = self._node_arrays()
        seen: Set[int] = set()
        stack = [f.id]
        while stack:
            edge = stack.pop()
            if edge in seen:
                continue
            seen.add(edge)
            nid = edge >> 1
            if nid == 0:
                label = "1" if edge == TRUE_ID else "0"
                lines.append(f'  n{edge} [label="{label}", shape=box];')
                continue
            c = edge & 1
            lines.append(
                f'  n{edge} [label="{self.var_name(var_arr[nid])}", '
                f"shape=circle];"
            )
            lo = lo_arr[nid] ^ c
            hi = hi_arr[nid] ^ c
            lines.append(f"  n{edge} -> n{lo} [style=dashed];")
            lines.append(f"  n{edge} -> n{hi};")
            stack.append(lo)
            stack.append(hi)
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def live_node_count(self) -> int:
        """Non-terminal slots holding references, in O(1).

        This is *physical* occupancy — with complement edges roughly half
        the semantic size.  Maintained incrementally by every operation
        including :meth:`swap_levels` — the sifting loop reads this between
        swaps without collecting.
        """
        return self._live_count

    def live_nodes_at_level(self, level: int) -> int:
        """Live physical node count of one level, in O(1)."""
        var = self._var_at_level[level]
        return self._count_of_var[var] - self._dead_of_var[var]

    def collect(self) -> int:
        """Reclaim unreferenced nodes; returns nodes freed.

        Reference counts are exact on a DAG, so collection is a sweep of
        the dead set (plus any in-flight intermediate roots that were
        never referenced), not a mark-and-sweep.  Operation caches are
        *purged of entries mentioning freed slots* rather than cleared —
        everything else they hold is still valid — after which the
        quarantined slots (both this sweep's and any freed eagerly by swaps
        since the last collect) are recycled into the allocation freelist.
        """
        self.collect_count += 1
        self._drain_handle_deaths()
        ref = self._ref
        is_dead = self._is_dead
        var_arr = self._var
        # Unreferenced newborns (intermediate results nobody wrapped) are
        # garbage too: release their child references so they join the
        # dead set, then sweep everything flagged.
        for nid in range(1, len(var_arr)):
            if var_arr[nid] != _TERMINAL_VAR and ref[nid] == 0 and not is_dead[nid]:
                self._mark_dead(nid)
        freed = len(self._dead_set)
        while self._dead_set:
            self._free_dead_node(next(iter(self._dead_set)))
        if self._pending_free:
            self._purge_caches(set(self._pending_free))
            self._free.extend(self._pending_free)
            self._pending_free.clear()
        return freed

    def _purge_caches(self, freed: Set[int]) -> None:
        """Drop cache entries that mention any freed node slot.

        Freed slots are recycled by ``_mk`` and would otherwise alias new,
        unrelated functions; every entry that never touched a freed slot
        remains valid and stays.  Cache fields are edges (slot = edge >> 1)
        except sentinel ``-1`` (which shifts to ``-1``, never a slot) and
        the restrict key's packed ``(var, value)`` field, which is skipped.
        """
        self._ite_cache = {
            k: v
            for k, v in self._ite_cache.items()
            if v >> 1 not in freed
            and k[0] >> 1 not in freed
            and k[1] >> 1 not in freed
            and k[2] >> 1 not in freed
        }
        self._restrict_cache = {
            k: v
            for k, v in self._restrict_cache.items()
            if k[0] >> 1 not in freed and v >> 1 not in freed
        }
        self._quant_cache = {
            k: v
            for k, v in self._quant_cache.items()
            if v >> 1 not in freed
            and k[0] >> 1 not in freed
            and k[1] >> 1 not in freed
            and k[2] >> 1 not in freed
        }
        self._support_cache = {
            k: v for k, v in self._support_cache.items() if k not in freed
        }

    # ------------------------------------------------------------------
    # Dynamic reordering primitive: adjacent level swap
    # ------------------------------------------------------------------

    def swap_levels(
        self, level: int, interaction: Optional[Set[Tuple[int, int]]] = None
    ) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Every live :class:`Function` handle keeps denoting the same Boolean
        function; edges are stable, only labels/children are rewritten.
        Reference counts and per-level live totals are maintained
        incrementally, and the operation caches are left intact (edges
        keep denoting the same functions across a swap, so every cached
        entry stays valid).

        ``interaction`` (from :meth:`interaction_pairs`) enables the fast
        path: when the two variables co-occur in no live root's support, no
        node can have the lower variable in its cofactor structure, so the
        swap reduces to exchanging the two level map entries.
        """
        if not 0 <= level < self.num_vars - 1:
            raise ValueError(f"cannot swap level {level}")
        self.swap_count += 1
        self._order_clock += 1
        stamp = self._level_stamp
        stamp[level] = stamp[level + 1] = self._order_clock
        x = self._var_at_level[level]
        y = self._var_at_level[level + 1]
        if interaction is not None:
            pair = (x, y) if x < y else (y, x)
            if pair not in interaction:
                self.swap_skips += 1
                self._var_at_level[level], self._var_at_level[level + 1] = y, x
                self._level_of_var[x] = level + 1
                self._level_of_var[y] = level
                return
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        nxt = self._next
        ref = self._ref
        is_dead = self._is_dead
        count_of_var = self._count_of_var
        self._drain_handle_deaths()
        # Sweep ALL dead nodes into the quarantine pool before touching
        # structure.  Relabeling a corpse would manufacture two fresh dead
        # children per swap (compounding swap over swap with collection
        # deferred to once per pass), and any dead node left behind while
        # the levels move could later be resurrected with structure that no
        # longer means what it did when the node died.  Freeing instead is
        # safe: dead nodes hold no child references, and the slots stay
        # un-recycled until collect() purges the caches of them (stale
        # cache hits are screened out by _is_stale).  The sweep is O(dead)
        # via _dead_set and each node is freed at most once, so the
        # amortized cost per swap is bounded by the swap's own work.
        dead_set = self._dead_set
        if dead_set:
            dead_of_var = self._dead_of_var
            buckets_all = self._buckets
            pending = self._pending_free
            for nid in dead_set:
                v = var_arr[nid]
                buckets = buckets_all[v]
                slot = (
                    (lo_arr[nid] * 0x9E3779B1) ^ (hi_arr[nid] * 0x45D9F3B)
                ) & (len(buckets) - 1)
                p = buckets[slot]
                if p == nid:
                    buckets[slot] = nxt[nid]
                else:
                    while nxt[p] != nid:
                        p = nxt[p]
                    nxt[p] = nxt[nid]
                count_of_var[v] -= 1
                dead_of_var[v] -= 1
                is_dead[nid] = False
                var_arr[nid] = _TERMINAL_VAR
                pending.append(nid)
            n_dead = len(dead_set)
            self._allocated -= n_dead
            self._dead_count -= n_dead
            self.nodes_freed += n_dead
            dead_set.clear()
        # Snapshot the x-nodes with a y-labeled child (in either cofactor —
        # the complement bit never changes which node an edge targets).
        buckets_x = self._buckets[x]
        if count_of_var[x] << 3 < len(buckets_x):
            self._shrink_subtable(x)
            buckets_x = self._buckets[x]
        affected: List[int] = []
        for head in buckets_x:
            nid = head
            while nid:
                if (
                    var_arr[lo_arr[nid] >> 1] == y
                    or var_arr[hi_arr[nid] >> 1] == y
                ):
                    affected.append(nid)
                nid = nxt[nid]
        # The relabel loop below is the kernel's hottest code: the subtable
        # and refcount operations are inlined on local bindings, and the
        # child decrefs are DEFERRED to a batch after the loop.  Deferral is
        # what makes the old per-node clash lookup unnecessary: with no
        # deaths mid-loop the unique subtables hold live nodes only, a live
        # (y, g0, g1) occupant is impossible before the swap (one of g0/g1
        # is always x-labeled, which would violate the pre-swap order), and
        # two relabeled nodes never collide (they denote distinct
        # functions).  Refcounts also guarantee every child's structure
        # stays valid for the whole loop: a child of a not-yet-processed
        # affected node is still referenced by it.
        buckets_y = self._buckets[y]
        mask_x = len(buckets_x) - 1
        mask_y = len(buckets_y) - 1
        free = self._free
        pending_decref: List[int] = []
        deferred = pending_decref.append
        created = 0
        for nid in affected:
            f0 = lo_arr[nid]
            f1 = hi_arr[nid]  # regular, by the canonical form
            c0 = f0 & 1
            n0 = f0 >> 1
            if var_arr[n0] == y:
                f00 = lo_arr[n0] ^ c0
                f01 = hi_arr[n0] ^ c0
            else:
                f00 = f01 = f0
            n1 = f1 >> 1
            if var_arr[n1] == y:
                f10 = lo_arr[n1]
                f11 = hi_arr[n1]
            else:
                f10 = f11 = f1
            # g0 = mk(x, f00, f10), plus one reference for the new parent.
            # Children of live nodes are live, so the increfs never need
            # the resurrection path.
            if f00 == f10:
                g0 = f00
                ng = g0 >> 1
                if ng:
                    ref[ng] += 1
            else:
                cg = f10 & 1
                if cg:
                    glo = f00 ^ 1
                    ghi = f10 ^ 1
                else:
                    glo = f00
                    ghi = f10
                slot = ((glo * 0x9E3779B1) ^ (ghi * 0x45D9F3B)) & mask_x
                n = buckets_x[slot]
                while n:
                    if lo_arr[n] == glo and hi_arr[n] == ghi:
                        break
                    n = nxt[n]
                if n:
                    ref[n] += 1
                else:
                    if free:
                        n = free.pop()
                        var_arr[n] = x
                        lo_arr[n] = glo
                        hi_arr[n] = ghi
                        ref[n] = 1
                    else:
                        n = len(var_arr)
                        var_arr.append(x)
                        lo_arr.append(glo)
                        hi_arr.append(ghi)
                        ref.append(1)
                        nxt.append(0)
                        is_dead.append(False)
                    nglo = glo >> 1
                    if nglo:
                        ref[nglo] += 1
                    nghi = ghi >> 1
                    if nghi:
                        ref[nghi] += 1
                    nxt[n] = buckets_x[slot]
                    buckets_x[slot] = n
                    created += 1
                g0 = (n << 1) | cg
            # g1 = mk(x, f01, f11): f11 comes off a regular then-edge, so
            # g1 is always regular and the relabeled node keeps the
            # canonical form.
            if f01 == f11:
                g1 = f01
                ng = g1 >> 1
                if ng:
                    ref[ng] += 1
            else:
                slot = ((f01 * 0x9E3779B1) ^ (f11 * 0x45D9F3B)) & mask_x
                n = buckets_x[slot]
                while n:
                    if lo_arr[n] == f01 and hi_arr[n] == f11:
                        break
                    n = nxt[n]
                if n:
                    ref[n] += 1
                else:
                    if free:
                        n = free.pop()
                        var_arr[n] = x
                        lo_arr[n] = f01
                        hi_arr[n] = f11
                        ref[n] = 1
                    else:
                        n = len(var_arr)
                        var_arr.append(x)
                        lo_arr.append(f01)
                        hi_arr.append(f11)
                        ref.append(1)
                        nxt.append(0)
                        is_dead.append(False)
                    nglo = f01 >> 1
                    if nglo:
                        ref[nglo] += 1
                    nghi = f11 >> 1
                    if nghi:
                        ref[nghi] += 1
                    nxt[n] = buckets_x[slot]
                    buckets_x[slot] = n
                    created += 1
                g1 = n << 1
            # Relabel nid from an x-node into a y-node: unlink from x's
            # chain, rewrite in place, push onto y's chain.
            slot = ((f0 * 0x9E3779B1) ^ (f1 * 0x45D9F3B)) & mask_x
            p = buckets_x[slot]
            if p == nid:
                buckets_x[slot] = nxt[nid]
            else:
                while nxt[p] != nid:
                    p = nxt[p]
                nxt[p] = nxt[nid]
            var_arr[nid] = y
            lo_arr[nid] = g0
            hi_arr[nid] = g1
            slot = ((g0 * 0x9E3779B1) ^ (g1 * 0x45D9F3B)) & mask_y
            nxt[nid] = buckets_y[slot]
            buckets_y[slot] = nid
            deferred(f0)
            deferred(f1)
        if affected or created:
            n_moved = len(affected)
            count_of_var[x] += created - n_moved
            count_of_var[y] += n_moved
            self._allocated += created
            self._live_count += created
            if self._allocated > self.peak_nodes:
                self.peak_nodes = self._allocated
            # Deferred subtable growth (chains were allowed to lengthen for
            # the duration of the loop so the masks stayed stable).
            while count_of_var[x] > (len(self._buckets[x]) << 1):
                self._grow_subtable(x)
            while count_of_var[y] > (len(self._buckets[y]) << 1):
                self._grow_subtable(y)
            # Batched child decrefs, with the _mark_dead cascade inlined:
            # corpses stay in their subtables with structure intact
            # (resurrectable) until the next sweep.
            dead_of_var = self._dead_of_var
            dead_add = dead_set.add
            deaths = 0
            for edge in pending_decref:
                nn = edge >> 1
                if nn:
                    r = ref[nn] - 1
                    ref[nn] = r
                    if r == 0:
                        is_dead[nn] = True
                        dead_add(nn)
                        dead_of_var[var_arr[nn]] += 1
                        deaths += 1
                        stack = [nn]
                        while stack:
                            m = stack.pop()
                            c = lo_arr[m] >> 1
                            if c:
                                rc = ref[c] - 1
                                ref[c] = rc
                                if rc == 0:
                                    is_dead[c] = True
                                    dead_add(c)
                                    dead_of_var[var_arr[c]] += 1
                                    deaths += 1
                                    stack.append(c)
                            c = hi_arr[m] >> 1
                            if c:
                                rc = ref[c] - 1
                                ref[c] = rc
                                if rc == 0:
                                    is_dead[c] = True
                                    dead_add(c)
                                    dead_of_var[var_arr[c]] += 1
                                    deaths += 1
                                    stack.append(c)
            if deaths:
                self._dead_count += deaths
                self._live_count -= deaths
        self._var_at_level[level], self._var_at_level[level + 1] = y, x
        self._level_of_var[x] = level + 1
        self._level_of_var[y] = level

    # ------------------------------------------------------------------
    # Checkpoints and copies: a sift's exploration, off the live store
    # ------------------------------------------------------------------

    def _checkpoint(self) -> _Checkpoint:
        """Copy the node store, the subtables and the variable order.

        Work counters (``swap_count``, ``swap_skips``, ``nodes_freed``,
        ``peak_nodes``, ``collect_count``) are not part of it: they count
        work done.  Nor are the operation caches and the handles: swaps add
        no cache entries, and every edge denotes the same function in the
        checkpoint as after any swaps that follow it.
        """
        store = (
            self._var, self._lo, self._hi, self._ref, self._next,
            self._is_dead, self._count_of_var, self._dead_of_var,
            self._dead_set, self._free, self._pending_free,
            self._level_of_var, self._var_at_level,
        )
        return _Checkpoint(
            tuple(a.copy() for a in store),
            [buckets[:] for buckets in self._buckets],
            (self._allocated, self._live_count, self._dead_count),
            self._order_clock,
        )

    def _rollback(self, cp: _Checkpoint, last: bool = False) -> None:
        """Restore the store and the order of ``cp``, without swapping.

        Sound only between swaps and inside :meth:`_roots_held`, with no
        BDD built since ``cp`` was taken: a handle death applied, or a node
        built, after the checkpoint would be undone with it.  ``last`` says
        this is the checkpoint's last use, so its copies can be taken
        instead of copied again.

        The level stamps are not restored: every level a swap touched since
        the checkpoint (or since the previous rollback to it) is stamped
        anew, and the clock advances by two (see :class:`SizeProbe`).
        """
        assert self._holding_deaths, "a rollback needs the roots held"
        arrays, buckets = cp.arrays, cp.buckets
        if not last:
            arrays = tuple(a.copy() for a in arrays)
            buckets = [b[:] for b in buckets]
        (
            self._var, self._lo, self._hi, self._ref, self._next,
            self._is_dead, self._count_of_var, self._dead_of_var,
            self._dead_set, self._free, self._pending_free,
            self._level_of_var, self._var_at_level,
        ) = arrays
        self._buckets = buckets
        self._allocated, self._live_count, self._dead_count = cp.counts
        self._order_clock += 2
        clock = self._order_clock
        stamps = self._level_stamp
        since = cp.since
        for level, stamp in enumerate(stamps):
            if stamp > since:
                stamps[level] = clock
        cp.since = clock

    def _copy_function(self, f: Function) -> Function:
        """``f`` alone, in a new manager with these variables at this order.

        Variable ids, names and levels are this manager's, so a variable,
        a group or a precedence pair means the same in both.  The copy is
        built bottom-up through ``_mk``, so it is in canonical form.
        """
        store = BddManager(self.cache_limit)
        for name in self._var_names:
            store.new_var(name)
        store._level_of_var = self._level_of_var[:]
        store._var_at_level = self._var_at_level[:]
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        nodes: Set[int] = set()
        stack = [f.id >> 1]
        while stack:
            nid = stack.pop()
            if nid and nid not in nodes:
                nodes.add(nid)
                stack.append(lo_arr[nid] >> 1)
                stack.append(hi_arr[nid] >> 1)
        level_of = self._level_of_var
        copied = {0: TRUE_ID}  # slot here -> regular edge in the copy
        for nid in sorted(nodes, key=lambda n: level_of[var_arr[n]], reverse=True):
            lo, hi = lo_arr[nid], hi_arr[nid]
            copied[nid] = store._mk(
                var_arr[nid],
                copied[lo >> 1] ^ (lo & 1),
                copied[hi >> 1] ^ (hi & 1),
            )
        return store._wrap(copied[f.id >> 1] ^ (f.id & 1))

    def _move_to_order(self, order: Sequence[int]) -> None:
        """Move to ``order`` (top to bottom) by adjacent swaps, one
        variable at a time from the top, as ``move_var_to_level`` does."""
        for target, var in enumerate(order):
            level = self._level_of_var[var]
            while level < target:
                self.swap_levels(level)
                level += 1
            while level > target:
                self.swap_levels(level - 1)
                level -= 1

    # ------------------------------------------------------------------
    # The s-graph builder's steps (Theorem 1)
    # ------------------------------------------------------------------

    def _test_step(self, chi: int, var: int) -> Tuple[int, int]:
        """Both cofactors of ``chi`` by ``var``: a TEST vertex."""
        return self._restrict(chi, var, False), self._restrict(chi, var, True)

    def _assign_step(self, chi: int, var: int, cube: int) -> Tuple[int, int, int]:
        """The ASSIGN vertex of output ``var``: ``(kind, label, child)``.

        ``label`` is 1 exactly where assigning 1 is valid and assigning 0
        is not, for some completion of the outputs in the positive cube
        ``cube`` (-1 for none), which are smoothed away.  ``kind`` is the
        label on the valid inputs: 0 FALSE, 1 TRUE, 2 the label itself.
        ``child`` is the chi the vertex leads to, both cofactors OR-ed.
        """
        c0 = self._restrict(chi, var, False)
        c1 = self._restrict(chi, var, True)
        can0, can1 = c0, c1
        if cube >= 0:
            can0 = self._exists_cube(c0, cube)
            can1 = self._exists_cube(c1, cube)
        ite = self._ite
        label = ite(can1, can0 ^ 1, FALSE_ID)
        valid = ite(can0, TRUE_ID, can1)
        if ite(valid, label ^ 1, FALSE_ID) == FALSE_ID:
            kind = 1
        elif ite(valid, label, FALSE_ID) == FALSE_ID:
            kind = 0
        else:
            kind = 2
        return kind, label, ite(c0, TRUE_ID, c1)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Snapshot of the engine's performance counters."""
        return {
            "swaps": self.swap_count,
            "swap_skips": self.swap_skips,
            "collects": self.collect_count,
            "nodes_freed": self.nodes_freed,
            "peak_nodes": self.peak_nodes,
            "live_nodes": self._live_count,
            "dead_nodes": self._dead_count,
            "ite_cache_hits": self.ite_hits,
            "ite_cache_misses": self.ite_misses,
            "restrict_cache_hits": self.restrict_hits,
            "restrict_cache_misses": self.restrict_misses,
            "quant_cache_hits": self.quant_hits,
            "quant_cache_misses": self.quant_misses,
            "cache_resets": self.cache_resets,
        }

    def sample_counters(self) -> Dict[str, int]:
        """The counters a sift profile samples: those
        :meth:`~repro.obs.SiftProfile.timeline` reads, and the swap count."""
        return {
            "swaps": self.swap_count,
            "swap_skips": self.swap_skips,
            "live_nodes": self._live_count,
            "ite_cache_hits": self.ite_hits,
            "ite_cache_misses": self.ite_misses,
        }

    def store_stats(self) -> Dict[str, float]:
        """Memory and complement-edge statistics of the node store.

        ``bytes_per_node`` divides the concrete interpreter footprint of
        the parallel arrays and bucket tables by the allocated node count;
        ``complement_edge_share`` is the fraction of allocated nodes whose
        else-edge carries the complement bit (then-edges never do, by the
        canonical form).  Figures are interpreter-dependent — benches
        report them but gates must not compare them.
        """
        arrays = (
            self._var, self._lo, self._hi, self._ref, self._next, self._is_dead
        )
        store_bytes = sum(sys.getsizeof(a) for a in arrays)
        store_bytes += sys.getsizeof(self._buckets)
        complemented = 0
        for var in range(self.num_vars):
            buckets = self._buckets[var]
            store_bytes += sys.getsizeof(buckets)
            for head in buckets:
                nid = head
                while nid:
                    if self._lo[nid] & 1:
                        complemented += 1
                    nid = self._next[nid]
        allocated = self._allocated
        return {
            "allocated_slots": float(len(self._var) - 1),
            "allocated_nodes": float(allocated),
            "store_bytes": float(store_bytes),
            "bytes_per_node": store_bytes / allocated if allocated else 0.0,
            "complemented_lo_edges": float(complemented),
            "complement_edge_share": (
                complemented / allocated if allocated else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Debug invariants
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Validate manager invariants (used by the test-suite)."""
        self._drain_handle_deaths()
        assert sorted(self._var_at_level) == list(range(self.num_vars))
        for var, level in enumerate(self._level_of_var):
            assert self._var_at_level[level] == var
        assert self._var[0] == _TERMINAL_VAR and self._ref[0] >= 1
        allocated: Set[int] = set()
        keys: Set[Tuple[int, int, int]] = set()
        for var in range(self.num_vars):
            count = 0
            dead_here = 0
            for head in self._buckets[var]:
                nid = head
                while nid:
                    assert self._var[nid] == var
                    lo, hi = self._lo[nid], self._hi[nid]
                    assert lo != hi, "unreduced node in unique table"
                    assert hi & 1 == 0, "complemented then-edge"
                    key = (var, lo, hi)
                    assert key not in keys, "duplicate unique-table entry"
                    keys.add(key)
                    for child in (lo, hi):
                        cn = child >> 1
                        if cn:
                            cv = self._var[cn]
                            assert cv != _TERMINAL_VAR, "edge to a freed slot"
                            assert (
                                self._level_of_var[cv] > self._level_of_var[var]
                            ), "ordering violated"
                    assert nid not in allocated, "slot chained twice"
                    allocated.add(nid)
                    count += 1
                    if self._is_dead[nid]:
                        dead_here += 1
                    nid = self._next[nid]
            assert count == self._count_of_var[var], (
                f"subtable count of var {var}: {count} != {self._count_of_var[var]}"
            )
            assert dead_here == self._dead_of_var[var], (
                f"dead count of var {var}: {dead_here} != {self._dead_of_var[var]}"
            )
        assert self._allocated == len(allocated)
        assert self._dead_count == sum(self._dead_of_var)
        assert self._live_count == len(allocated) - self._dead_count
        assert self._dead_set == {n for n in allocated if self._is_dead[n]}
        for nid in self._pending_free:
            assert self._var[nid] == _TERMINAL_VAR and nid not in allocated
        # Reference counts must equal edges-from-live-nodes plus handles.
        expected: Dict[int, int] = {nid: 0 for nid in allocated}
        for nid in allocated:
            if self._is_dead[nid]:
                assert self._ref[nid] == 0, f"dead node {nid} has references"
                continue
            for child in (self._lo[nid] >> 1, self._hi[nid] >> 1):
                if child:
                    expected[child] += 1
        for edge in self._root_edges():
            if edge >= 2:
                expected[edge >> 1] += 1
        for nid in allocated:
            if not self._is_dead[nid]:
                assert self._ref[nid] == expected[nid], (
                    f"refcount of {nid}: {self._ref[nid]} != {expected[nid]}"
                )
        # Caches may mention allocated/terminal slots, or quarantined slots
        # (freed by a swap, screened out on lookup by _is_stale, recycled
        # only after the next collect purges them).
        valid = allocated | {0} | set(self._pending_free)
        for (f, g, h), r in self._ite_cache.items():
            assert {f >> 1, g >> 1, h >> 1, r >> 1} <= valid, (
                "ite cache references a recycled slot"
            )
            assert f & 1 == 0 and g & 1 == 0, "non-canonical ite cache key"
        for (edge, _), r in self._restrict_cache.items():
            assert edge >> 1 in valid and r >> 1 in valid, (
                "restrict cache references a recycled slot"
            )
            assert edge & 1 == 0, "non-canonical restrict cache key"
        for (a, b, c), r in self._quant_cache.items():
            fields = {a >> 1, r >> 1}
            if b >= 0:
                fields.add(b >> 1)
            if c >= 0:
                fields.add(c >> 1)
            assert fields <= valid, "quant cache references a recycled slot"
        for nid in self._support_cache:
            assert nid in valid, "support cache references a recycled slot"
