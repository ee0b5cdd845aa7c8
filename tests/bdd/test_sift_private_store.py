"""Sifting by a bare SizeProbe explores on a private copy of the function.

:func:`repro.bdd.sift` and :func:`repro.bdd.sift_to_convergence` copy the
probed function into a store of its own (``BddManager._copy_function``),
explore there, and move the shared manager to each pass's order.  The
copy must be the same function at the same order, and the sift must take
the decisions of a sift that explores in place.
"""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (
    BddManager,
    SizeProbe,
    apply_order,
    sift,
    sift_to_convergence,
)
from repro.obs import SiftProfile

from .test_property import N_VARS, boolexprs, build_bdd
from .test_size_probe import _physical_nodes, _random_dnf

EXTRA_VARS = 3

seeds = st.integers(min_value=0, max_value=2**30)


def named_manager():
    m = BddManager()
    for i in range(N_VARS + EXTRA_VARS):
        m.new_var(f"x{i}")
    return m


def assignments(m):
    for bits in itertools.product((False, True), repeat=m.num_vars):
        yield dict(enumerate(bits))


def probe_counts(f):
    probe = SizeProbe(f)
    size = probe()
    return size, probe._counts


def assert_same_function(f, copy):
    m, store = f.manager, copy.manager
    assert store is not m
    assert store.current_order() == m.current_order()
    assert [store.var_name(v) for v in range(store.num_vars)] == [
        m.var_name(v) for v in range(m.num_vars)
    ]
    assert copy.size() == f.size()
    assert probe_counts(copy) == probe_counts(f)
    for bits in assignments(m):
        assert copy(bits) == f(bits)
    store.check()


# -- the copy ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(boolexprs(), seeds)
def test_copy_is_the_same_function_at_the_same_order(tree, seed):
    m = named_manager()
    f = build_bdd(tree, m)
    g = m.var(N_VARS) & (m.var(N_VARS + 1) | ~m.var(N_VARS + 2)) | f
    rng = random.Random(seed)
    for _ in range(rng.randint(0, 12)):
        m.swap_levels(rng.randrange(m.num_vars - 1))
    for root in (f, ~f, g, ~g):
        assert_same_function(root, m._copy_function(root))
    m.check()


def test_copy_of_constants_and_complemented_roots():
    m = named_manager()
    for root in (m.true, m.false):
        copy = m._copy_function(root)
        assert copy.id == root.id
        assert_same_function(root, copy)
    f = m.var(0) | (m.var(1) & ~m.var(2))
    assert (~f).id & 1
    copy = m._copy_function(~f)
    assert copy.id & 1
    assert_same_function(~f, copy)
    # The copy holds f's nodes only: one slot per node, none for g.
    g = m.var(3) ^ m.var(4)
    copy = m._copy_function(f)
    assert copy.manager.live_node_count() == _physical_nodes(m, [f.id])
    assert g.size() > 1


# -- sifting on the private store ----------------------------------------------


def trees(tree, other):
    """``f`` and ``h`` from expression trees, and ``g`` over extra variables."""

    def build(m):
        for i in range(N_VARS + EXTRA_VARS):
            m.new_var(f"x{i}")
        f = build_bdd(tree, m)
        h = build_bdd(other, m)
        g = m.var(N_VARS) & (m.var(N_VARS + 1) | ~m.var(N_VARS + 2)) | h
        apply_order(m, list(range(m.num_vars))[::-1])
        return f, [g, h]

    return build


def dnfs(seed):
    """``f`` over ten variables, and a larger ``g`` over six of them."""

    def build(m):
        rng = random.Random(seed)
        variables = [m.new_var() for _ in range(10)]
        f = _random_dnf(m, rng, variables, 10)
        g = _random_dnf(m, rng, variables[4:], 14)
        apply_order(m, variables[::2] + variables[1::2])
        return f, [g]

    return build


def sift_outcome(run, build, private, groups=None):
    """Sift ``f`` with the other roots ``build`` made live in its manager.

    ``private`` sifts by a bare probe of ``f``; otherwise by a closure,
    which explores in place.  The shared manager's own swaps are counted
    apart: on the private path they are the moves to each pass's order.
    """
    m = BddManager()
    f, others = build(m)
    before = m.swap_count
    moves = []
    move_to_order = m._move_to_order

    def counted(order):
        start = m.swap_count
        move_to_order(order)
        moves.append(m.swap_count - start)

    m._move_to_order = counted
    metric = SizeProbe(f) if private else (lambda: f.size())
    final = run(m, groups=groups, metric=metric)
    del m._move_to_order
    m.check()
    assert all(root.manager is m for root in others)  # live to the end
    return (m.current_order(), final, f.size()), m.swap_count - before, sum(moves)


def assert_private_matches_in_place(run, build, groups=None):
    outcome, swaps, moves = sift_outcome(run, build, True, groups)
    in_place, explored, _ = sift_outcome(run, build, False, groups)
    assert outcome == in_place
    assert swaps == explored + moves


@pytest.mark.parametrize("run", [sift, sift_to_convergence])
@settings(max_examples=40, deadline=None)
@given(boolexprs(), boolexprs())
def test_private_sift_matches_in_place_sift(run, tree, other):
    for groups in (None, [[0, 1], [2, 3, 4], [N_VARS, N_VARS + 1]]):
        assert_private_matches_in_place(run, trees(tree, other), groups)


@pytest.mark.parametrize("seed", range(6))
def test_private_sift_ranks_blocks_by_every_root(seed):
    # g outweighs f on its variables, so ranking the schedule by f alone
    # would take other decisions.
    assert_private_matches_in_place(sift_to_convergence, dnfs(seed))


# -- a shared handle dropped mid-sift ------------------------------------------


class DroppingProfile(SiftProfile):
    """Frees the reference cycle holding ``g`` at the ``at``-th sample."""

    def __init__(self, at, drop):
        super().__init__()
        self.at = at
        self.drop = drop

    def sample(self, phase, size, swaps, counters=None):
        super().sample(phase, size, swaps, counters)
        if len(self.samples) == self.at:
            self.drop()
            gc.collect()


def _sift_dropping_at(at):
    m = BddManager()
    rng = random.Random(5)
    variables = [m.new_var() for _ in range(10)]
    f = _random_dnf(m, rng, variables, 10)
    holder = [_random_dnf(m, rng, variables[4:], 14)]
    holder.append(holder)
    roots = [f.id] if at else [f.id, holder[0].id]
    apply_order(m, variables[::2] + variables[1::2])

    def drop():
        nonlocal holder
        holder = None

    profile = DroppingProfile(at, drop)
    before = m.swap_count
    final = sift_to_convergence(m, metric=SizeProbe(f), profile=profile)
    outcome = (m.current_order(), final, m.swap_count - before)
    assert at is None or holder is None, "the drop never happened"
    assert profile.passes >= 2
    m.collect()
    assert m.live_node_count() == _physical_nodes(m, roots)
    m.check()
    return outcome


@pytest.mark.parametrize("at", [2, 3, 8, 12, 20])
def test_shared_handle_dropped_mid_sift(at):
    kept = _sift_dropping_at(None)
    assert _sift_dropping_at(at) == kept
