"""Dynamic variable reordering by sifting (Rudell, ICCAD'93).

The paper optimizes the size of the characteristic-function BDD — and hence
of the generated code — by sifting, "mov[ing] one variable at a time up and
down in the ordering, and freez[ing] it in the position where the BDD size is
minimized", with the added *precedence constraint* "that no output can sift
before any input in its support" (Sec. III-B3b).

Two extensions needed by the synthesis flow are provided here:

* **precedence constraints** — arbitrary ``before -> after`` pairs restrict
  the range a variable may sift through (used for output-after-support and
  for the stricter all-outputs-after-all-inputs variant of Table II);
* **group sifting** — variables may be tied into contiguous blocks that move
  as a unit (used for the binary encodings of multi-valued variables, see
  :mod:`repro.bdd.mdd`).

A pass is engineered around the manager's incremental bookkeeping:

* it garbage-collects **exactly once, up front** — afterwards a size
  probe never collects: the default metric is the manager's O(1)
  :meth:`~repro.bdd.BddManager.live_node_count`, and the synthesis flow's
  :class:`~repro.bdd.SizeProbe` recounts only the levels swapped since
  its previous read;
* the *interaction matrix* (variable pairs co-occurring in some live root's
  support) is computed once per pass and threaded into every
  ``swap_levels`` call, turning swaps of non-interacting pairs into pure
  level-map updates;
* the block layout and the ``var -> block index`` map are built once per
  pass and maintained across moves instead of being recomputed per block.

A block's sift takes Rudell's decisions: down to the bottom of its range,
up to the top, then back to the best position seen, each leg ending early
once the size grows past ``max_growth`` times the best.  Every size it
reads is a function of the variable order alone, so swaps are spent only
on positions not yet measured:

* **held deaths** — while :func:`sift` or :func:`sift_to_convergence`
  runs, handle deaths stay queued and their edges still count as roots
  (``BddManager._roots_held``), so a :class:`~repro.bdd.Function` the
  cyclic collector frees mid-sift changes nothing until the sift returns.
  The deaths apply at the first safe point after it; deaths queued before
  it are applied by its first ``collect()``, as always;
* **replay** — the climb back through the positions the descent measured
  reads sizes already recorded, so the pass tests them against the abort
  rule instead of swapping through them;
* **checkpoint and rollback** — the node store is copied when a block's
  sift starts (``BddManager._checkpoint``), and the block returns to its
  start by restoring the copy (``BddManager._rollback``) instead of by
  swaps: before it climbs past its start, and again when its best
  position lies at or below the start and is nearer the start than the
  block's current position;
* **clean blocks** — :func:`sift_to_convergence` remembers each block its
  sift left in place, with the order it was sifted from, and skips it
  while the order is unchanged: it would read the same sizes and stay put;
* **private store** — a bare :class:`~repro.bdd.SizeProbe` of ``f`` reads
  ``f`` alone, so the sift copies ``f`` once into a manager of its own,
  with the same variables at the same order, and explores there: swaps,
  probe reads, checkpoints, rollbacks and the clean-block skip touch
  ``f``'s nodes only.  Each pass still ranks its schedule by the shared
  manager's counts over every held root, and the shared manager then
  moves to the order the pass found, unless it is unchanged.  Its swap
  counters take over the private ones, so they count every swap made;
* **a pass in C** — that private store is a manager of the shared one's
  engine, so it is a native kernel store (:mod:`repro.bdd.kernel`)
  whenever the local ``cc`` builds the kernel.  A pass there is one C
  call, ``bk_sift_pass``, handed the block layout, the schedule ranked
  here, the packed precedence constraints and ``max_growth``; it takes
  the decisions of :func:`_sift_pass` with the kernel's own swaps, size
  walks, checkpoints and rollbacks, keeps the clean blocks' orders across
  the passes of one sift, and returns the samples a profile takes.
  :func:`_sift_pass` stays the oracle the tests hold the C pass to, and
  the engine of the Python manager, which runs without a compiler, and
  of in-place sifts.

The final orders, returned orders and sizes are those of the return-trip
engine, which swaps through every leg (kept as the reference in the test
suite); only the swap count falls.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .manager import BddManager, SizeProbe

__all__ = ["PrecedenceConstraints", "sift", "sift_to_convergence", "move_var_to_level"]


class PrecedenceConstraints:
    """A partial order on BDD variables: ``before`` must stay above ``after``.

    Used to encode the paper's requirement that an output variable of the
    reactive function never sifts above any input in its support.
    """

    def __init__(self) -> None:
        self._above: Dict[int, Set[int]] = {}  # var -> vars that must stay above it
        self._below: Dict[int, Set[int]] = {}  # var -> vars that must stay below it

    def add(self, before: int, after: int) -> None:
        if before == after:
            raise ValueError("variable cannot precede itself")
        self._above.setdefault(after, set()).add(before)
        self._below.setdefault(before, set()).add(after)

    def add_output_support(self, output: int, support: Iterable[int]) -> None:
        for var in support:
            self.add(var, output)

    def must_stay_above(self, var: int) -> Set[int]:
        return self._above.get(var, set())

    def must_stay_below(self, var: int) -> Set[int]:
        return self._below.get(var, set())

    def _packed(self, num_vars: int) -> List[array]:
        """The must-stay-above, then the must-stay-below relation of
        ``num_vars`` variables, each as two ``array("i")``, ``first`` and
        ``flat``: var v's related variables are ``flat[first[v]:first[v + 1]]``.
        """
        tables = []
        for relation in (self._above, self._below):
            related = [relation.get(var, ()) for var in range(num_vars)]
            tables.append(array("i", accumulate(map(len, related), initial=0)))
            tables.append(array("i", chain.from_iterable(related)))
        return tables

    def is_satisfied(self, manager: BddManager) -> bool:
        for after, aboves in self._above.items():
            for before in aboves:
                if manager.level_of(before) >= manager.level_of(after):
                    return False
        return True


def move_var_to_level(manager: BddManager, var: int, target: int) -> None:
    """Move a single variable to ``target`` level by adjacent swaps."""
    level = manager.level_of(var)
    while level < target:
        manager.swap_levels(level)
        level += 1
    while level > target:
        manager.swap_levels(level - 1)
        level -= 1


def _block_list(
    manager: BddManager, groups: Optional[Sequence[Sequence[int]]]
) -> List[List[int]]:
    """Partition all variables into blocks ordered by current level.

    Declared groups must be contiguous in the current order; every remaining
    variable forms a singleton block.
    """
    blocks: List[List[int]] = []
    grouped: Set[int] = set()
    if groups:
        for group in groups:
            levels = sorted(manager.level_of(v) for v in group)
            if levels != list(range(levels[0], levels[0] + len(levels))):
                raise ValueError("group variables must be contiguous in the order")
            blocks.append(sorted(group, key=manager.level_of))
            grouped.update(group)
    for var in range(manager.num_vars):
        if var not in grouped:
            blocks.append([var])
    blocks.sort(key=lambda block: manager.level_of(block[0]))
    return blocks


def _swap_adjacent_blocks(
    manager: BddManager,
    top: List[int],
    bottom: List[int],
    interaction: Optional[Set[Tuple[int, int]]] = None,
) -> None:
    """Exchange two adjacent contiguous blocks via elementary swaps."""
    # Move each variable of `top` below all of `bottom`, bottom-most first.
    for var in sorted(top, key=manager.level_of, reverse=True):
        for _ in range(len(bottom)):
            manager.swap_levels(manager.level_of(var), interaction=interaction)


def _block_index_bounds(
    blocks: List[List[int]],
    index: int,
    constraints: Optional[PrecedenceConstraints],
    where: Optional[Dict[int, int]] = None,
) -> Tuple[int, int]:
    """Allowed inclusive (min_index, max_index) positions for blocks[index].

    ``where`` (var -> block index) may be passed in by a caller that already
    maintains it; otherwise it is derived from ``blocks``.
    """
    if constraints is None:
        return 0, len(blocks) - 1
    block_set = set(blocks[index])
    lo_idx, hi_idx = 0, len(blocks) - 1
    if where is None:
        where = {var: j for j, block in enumerate(blocks) for var in block}
    for var in block_set:
        for above in constraints.must_stay_above(var):
            if above in block_set:
                continue
            j = where[above]
            # After removing/reinserting, our block must land strictly below j.
            lo_idx = max(lo_idx, j + 1 if j < index else j)
        for below in constraints.must_stay_below(var):
            if below in block_set:
                continue
            j = where[below]
            hi_idx = min(hi_idx, j - 1 if j > index else j)
    return lo_idx, hi_idx


def sift(
    manager: BddManager,
    constraints: Optional[PrecedenceConstraints] = None,
    groups: Optional[Sequence[Sequence[int]]] = None,
    max_growth: float = 2.0,
    metric=None,
    profile=None,
) -> int:
    """One sifting pass over all variables (or groups); returns final size.

    Blocks are processed from largest node population to smallest; each is
    moved through its admissible range of positions and frozen where
    ``metric()`` is minimal.  The search for one block aborts early once
    the size grows past ``max_growth`` times the best size seen.

    ``metric`` defaults to the physical
    :meth:`~repro.bdd.BddManager.live_node_count`, which the manager keeps
    current across swaps, so each read is O(1).  The synthesis flow passes
    a :class:`~repro.bdd.SizeProbe` of its characteristic function
    instead: a read recounts only the levels changed since the previous
    one, and returns exactly that function's ``size()``.  The pass performs
    exactly one :meth:`~repro.bdd.BddManager.collect` of the manager
    (here, up front); no probe collects.  A metric must be a function of
    the variable order, as both of these are while the sift holds the
    roots fixed, and must not build BDDs.

    Only new positions are reached by swapping: the climb back through
    positions the descent measured is replayed from the recorded sizes,
    and a block returns to its start by rolling the store back to a
    checkpoint taken when its sift began.  A bare ``SizeProbe`` of ``f``
    is read on a private copy of ``f``, where the pass explores (in one C
    call on the native kernel), and the manager then moves to the order
    found.  Handle deaths queued while the pass runs are applied after it
    returns (see the module docstring).

    ``profile`` (a :class:`repro.obs.SiftProfile`) receives one sample per
    block placement — the reorder-over-time trajectory.
    """
    manager.collect()
    store, metric = _exploration(manager, metric)
    with manager._roots_held(), store._roots_held():
        return _pass(
            manager, store, constraints, groups, max_growth, metric, profile, {}
        )


def _exploration(
    manager: BddManager, metric
) -> Tuple[BddManager, Callable[[], int]]:
    """The store a sift explores on, and the metric read there.

    A bare :class:`SizeProbe` of ``f`` reads ``f`` alone, so the sift
    explores on a private copy of ``f`` with the manager's variables and
    order (:meth:`~repro.bdd.BddManager._copy_function`, a manager of the
    same engine).  Its swap and ITE counters start from the manager's, so
    the samples a profile takes there read sift totals and the manager's
    ITE hit rate.  Any other metric may read any root, and the sift
    explores in place.
    """
    if metric is None:
        return manager, manager.live_node_count
    if type(metric) is not SizeProbe or metric.function.manager is not manager:
        return manager, metric
    root = manager._copy_function(metric.function)
    store = root.manager
    counters = manager.sample_counters()
    store.swap_count = counters["swaps"]
    store.swap_skips = counters["swap_skips"]
    store.ite_hits = counters["ite_cache_hits"]
    store.ite_misses = counters["ite_cache_misses"]
    return store, SizeProbe(root)


def _pass(
    manager: BddManager,
    store: BddManager,
    constraints: Optional[PrecedenceConstraints],
    groups: Optional[Sequence[Sequence[int]]],
    max_growth: float,
    metric,
    profile,
    clean: Dict[FrozenSet[int], List[int]],
) -> int:
    """One pass exploring on ``store``; the caller has collected
    ``manager`` and holds the roots of both.

    The schedule is ranked by ``manager``'s counts over every root.  A
    pass on a private store is one C call on the native kernel; after it,
    ``manager`` takes over the store's swap counters and moves to its
    order.
    """
    counts = manager.reachable_counts_by_var()
    if store is manager:
        return _sift_pass(
            manager, constraints, groups, max_growth, metric, profile, clean,
            counts,
        )
    if store._native:
        size, swaps, skips = _native_pass(
            store, metric.function.id, constraints, groups, max_growth,
            profile, counts,
        )
    else:
        store.collect()
        size = _sift_pass(
            store, constraints, groups, max_growth, metric, profile, clean,
            counts,
        )
        swaps, skips = store.swap_count, store.swap_skips
    manager.swap_count, manager.swap_skips = swaps, skips
    order = store.current_order()
    if order != manager.current_order():
        manager._move_to_order(order)
        store.swap_count = manager.swap_count
    return size


def _native_pass(
    store: BddManager,
    edge: int,
    constraints: Optional[PrecedenceConstraints],
    groups: Optional[Sequence[Sequence[int]]],
    max_growth: float,
    profile,
    counts: List[int],
) -> Tuple[int, int, int]:
    """:func:`_sift_pass` in one C call on a private kernel store whose
    one root is ``edge``: the root's final size, and the store's swaps
    and skips.

    The blocks, their schedule by ``counts`` and every decision are
    :func:`_sift_pass`'s; the store keeps the clean blocks' orders.  The
    samples taken in C are replayed into ``profile``.
    """
    blocks = _block_list(store, groups)
    # The populations, largest first; a stable sort keeps equal ones in
    # layout order, as _sift_pass's does.
    population = [sum(map(counts.__getitem__, block)) for block in blocks]
    schedule = sorted(
        range(len(blocks)), key=population.__getitem__, reverse=True
    )
    relations = None
    if constraints is not None:
        relations = constraints._packed(store.num_vars)
    size, swaps, skips, samples = store._sift_blocks(
        edge, blocks, schedule, relations, max_growth, profile is not None
    )
    for block_size, counters in samples:
        profile.sample("block", block_size, counters["swaps"], counters)
    if constraints is not None:
        assert constraints.is_satisfied(store), "sifting violated constraints"
    return size, swaps, skips


def _sift_pass(
    manager: BddManager,
    constraints: Optional[PrecedenceConstraints],
    groups: Optional[Sequence[Sequence[int]]],
    max_growth: float,
    metric,
    profile,
    clean: Dict[FrozenSet[int], List[int]],
    counts: List[int],
) -> int:
    """One pass; the caller has collected and holds the roots.

    Blocks are scheduled by ``counts``, the per-variable populations of
    :meth:`~repro.bdd.BddManager.reachable_counts_by_var`.  ``clean`` maps
    a block to the variable order from which its last sift left it in
    place; the block is skipped while the order is still that one, and the
    map is updated as blocks are sifted.
    """
    # One interaction matrix per pass: swaps between variables that co-occur
    # in no live root's support reduce to O(1) level-map updates.
    interaction = manager.interaction_pairs()
    # One block layout per pass, maintained across moves (the old
    # implementation re-derived blocks and the where-map for every block).
    blocks = _block_list(manager, groups)
    where: Dict[int, int] = {
        var: j for j, block in enumerate(blocks) for var in block
    }
    # Schedule by *semantic* per-variable population (distinct reachable
    # subfunctions per top variable).  On the complement-edge store this is
    # what the per-variable physical node counts of a complement-free kernel
    # would be, so the processing order — and hence the final variable order
    # — is independent of complement-edge sharing.
    schedule: List[FrozenSet[int]] = [frozenset(block) for block in blocks]
    schedule.sort(key=lambda block: -sum(counts[v] for v in block))

    for block_vars in schedule:
        start = where[next(iter(block_vars))]
        block = blocks[start]
        lo_idx, hi_idx = _block_index_bounds(blocks, start, constraints, where)
        if lo_idx == hi_idx == start:
            continue
        order = manager.current_order()
        if clean.get(block_vars) == order:
            # Sifted from this very order before and left in place: the
            # same sizes would be read and it would stay put again.
            if profile is not None:
                profile.sample(
                    "block", metric(), manager.swap_count, manager.sample_counters()
                )
            continue

        best_size = metric()
        best_pos = current = start
        checkpoint = manager._checkpoint()

        def move(direction: int) -> None:
            nonlocal current
            neighbor = blocks[current + direction]
            if direction > 0:
                _swap_adjacent_blocks(manager, block, neighbor, interaction)
            else:
                _swap_adjacent_blocks(manager, neighbor, block, interaction)
            blocks[current], blocks[current + direction] = (
                blocks[current + direction],
                blocks[current],
            )
            for var in blocks[current]:
                where[var] = current
            for var in blocks[current + direction]:
                where[var] = current + direction
            current += direction

        def return_to_start(last: bool) -> None:
            nonlocal current
            manager._rollback(checkpoint, last)
            blocks.insert(start, blocks.pop(current))
            for j in range(min(start, current), max(start, current) + 1):
                for var in blocks[j]:
                    where[var] = j
            current = start

        # Phase 1: sift down towards hi_idx, recording each size.
        sizes = [best_size]  # sizes[pos - start]
        while current < hi_idx:
            move(+1)
            size = metric()
            sizes.append(size)
            if size < best_size:
                best_size, best_pos = size, current
            elif size > best_size * max_growth:
                break
        # Phase 2 climbs back through the positions phase 1 measured before
        # it reaches new ones.  Their sizes are recorded and none is below
        # the best, so only the abort rule could end the climb there; if it
        # does not, return by rollback and climb on from the start.
        limit = best_size * max_growth
        if lo_idx < start and all(
            size <= limit for size in sizes[:current - start]
        ):
            if current != start:
                return_to_start(last=False)
            while current > lo_idx:
                move(-1)
                size = metric()
                if size < best_size:
                    best_size, best_pos = size, current
                elif size > best_size * max_growth:
                    break
        # Phase 3: freeze at the best position seen, from the start when
        # that is nearer.
        if current != start and abs(best_pos - start) < abs(best_pos - current):
            return_to_start(last=True)
        while current < best_pos:
            move(+1)
        while current > best_pos:
            move(-1)
        if current == start:
            clean[block_vars] = order
        if profile is not None:
            profile.sample(
                "block", metric(), manager.swap_count, manager.sample_counters()
            )

    if constraints is not None:
        assert constraints.is_satisfied(manager), "sifting violated constraints"
    return metric()


def sift_to_convergence(
    manager: BddManager,
    constraints: Optional[PrecedenceConstraints] = None,
    groups: Optional[Sequence[Sequence[int]]] = None,
    max_passes: int = 8,
    metric=None,
    profile=None,
) -> int:
    """Repeat sifting passes until the size metric stops improving.

    Each pass is a :func:`sift` (one ``collect()`` each), and a bare
    ``SizeProbe`` is read on one private copy for all of them.  A block
    whose previous sift left it in place is skipped while the variable
    order is the one it was sifted from, so the last pass, which only
    confirms convergence, skips every block sifted since the order last
    changed, and moves nothing.

    ``profile`` collects the start/per-pass/end size-and-swap trajectory.
    """
    manager.collect()
    store, metric = _exploration(manager, metric)
    with manager._roots_held(), store._roots_held():
        size = metric()
        if profile is not None:
            counters = store.sample_counters()
            profile.start(size, counters["swaps"], counters)
        clean: Dict[FrozenSet[int], List[int]] = {}
        try:
            for _ in range(max_passes):
                manager.collect()
                new_size = _pass(
                    manager, store, constraints, groups, 2.0, metric, profile,
                    clean,
                )
                if profile is not None:
                    counters = store.sample_counters()
                    profile.sample("pass", new_size, counters["swaps"], counters)
                if new_size >= size:
                    return new_size
                size = new_size
            return size
        finally:
            if profile is not None:
                counters = store.sample_counters()
                profile.sample("end", metric(), counters["swaps"], counters)
