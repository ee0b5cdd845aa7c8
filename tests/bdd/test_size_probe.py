"""SizeProbe must return exactly ``Function.size()`` whatever moved in between."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (
    BddManager,
    SizeProbe,
    apply_order,
    move_var_to_level,
    sift_to_convergence,
)

from .test_property import N_VARS, boolexprs, build_bdd

# Variables of a second root ``g`` with a support disjoint from ``f``'s, so
# a swap between one of them and one of ``f``'s variables takes the
# interaction fast path.
EXTRA_VARS = 3

seeds = st.integers(min_value=0, max_value=2**30)


def manager_with(tree):
    m = BddManager()
    for _ in range(N_VARS + EXTRA_VARS):
        m.new_var()
    f = build_bdd(tree, m)
    g = m.var(N_VARS) & (m.var(N_VARS + 1) | ~m.var(N_VARS + 2))
    return m, f, g


def random_swaps(m, rng, count, interaction=None):
    for _ in range(count):
        m.swap_levels(rng.randrange(m.num_vars - 1), interaction=interaction)


@settings(max_examples=60, deadline=None)
@given(boolexprs(), seeds)
def test_probe_equals_size_between_random_swaps(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    rng = random.Random(seed)
    assert probe() == f.size()
    for _ in range(25):
        random_swaps(m, rng, rng.randint(0, 3))
        assert probe() == f.size()


@settings(max_examples=40, deadline=None)
@given(boolexprs(), seeds)
def test_variable_moved_away_and_back(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    rng = random.Random(seed)
    random_swaps(m, rng, 6)
    assert probe() == f.size()
    order = m.current_order()
    var = rng.randrange(m.num_vars)
    home = m.level_of(var)
    move_var_to_level(m, var, rng.choice([0, m.num_vars - 1]))
    move_var_to_level(m, var, home)
    # The same order again, but the nodes the moves rebuilt sit in new slots.
    assert m.current_order() == order
    assert probe() == f.size()


@settings(max_examples=40, deadline=None)
@given(boolexprs(), seeds)
def test_interaction_fast_path_swaps(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    assert probe() == f.size()
    interaction = m.interaction_pairs()
    # f's last variable and g's first never share a root: a pure relabel.
    m.swap_levels(N_VARS - 1, interaction=interaction)
    assert m.swap_skips == 1
    assert probe() == f.size()
    rng = random.Random(seed)
    for _ in range(15):
        random_swaps(m, rng, rng.randint(1, 3), interaction=interaction)
        assert probe() == f.size()


@settings(max_examples=40, deadline=None)
@given(boolexprs(), seeds)
def test_collect_between_probes(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    rng = random.Random(seed)
    for _ in range(8):
        random_swaps(m, rng, rng.randint(1, 4))
        assert probe() == f.size()
        random_swaps(m, rng, rng.randint(1, 4))
        garbage = m.var(rng.randrange(m.num_vars)) ^ g
        del garbage
        m.collect()
        # New nodes may take slots the collect just recycled.
        h = g | m.var(rng.randrange(N_VARS))
        random_swaps(m, rng, rng.randint(0, 2))
        assert probe() == f.size()
        del h


@settings(max_examples=40, deadline=None)
@given(boolexprs(), seeds)
def test_new_var_after_construction(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    rng = random.Random(seed)
    random_swaps(m, rng, 4)
    assert probe() == f.size()
    var = m.new_var()
    assert probe() == f.size()
    move_var_to_level(m, var, rng.randrange(m.num_vars))
    assert probe() == f.size()
    random_swaps(m, rng, 5)
    assert probe() == f.size()


def sift_outcome(tree, metric_of, groups=None):
    m, f, g = manager_with(tree)
    probed = metric_of(f)
    checks = []

    def metric():
        size = probed()
        checks.append(size == f.size())
        return size

    final = sift_to_convergence(m, groups=groups, metric=metric)
    assert checks and all(checks)
    return m.current_order(), final, f.size(), m.swap_count


@settings(max_examples=40, deadline=None)
@given(boolexprs())
def test_sift_with_probe_matches_full_walk(tree):
    for groups in (None, [[0, 1], [2, 3, 4], [N_VARS, N_VARS + 1]]):
        with_probe = sift_outcome(tree, SizeProbe, groups)
        with_walk = sift_outcome(tree, lambda f: (lambda: f.size()), groups)
        assert with_probe == with_walk


def test_constant_function():
    m = BddManager()
    for _ in range(3):
        m.new_var()
    probe = SizeProbe(m.true)
    assert probe() == 1
    m.swap_levels(0)
    m.swap_levels(1)
    assert probe() == m.true.size() == 1


# -- checkpoints and rollbacks -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(boolexprs(), seeds)
def test_probe_after_rollback(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    rng = random.Random(seed)
    random_swaps(m, rng, rng.randint(0, 4))
    assert probe() == f.size()
    order = m.current_order()
    with m._roots_held():
        checkpoint = m._checkpoint()
        for last in (False, False, True):
            random_swaps(m, rng, rng.randint(1, 6))
            assert probe() == f.size()
            m._rollback(checkpoint, last=last)
            assert m.current_order() == order
            assert probe() == f.size()
            m.check()
    random_swaps(m, rng, rng.randint(1, 4))
    assert probe() == f.size()
    m.check()


@settings(max_examples=60, deadline=None)
@given(boolexprs(), seeds)
def test_rollback_is_the_only_change_since_the_last_read(tree, seed):
    m, f, g = manager_with(tree)
    probe = SizeProbe(f)
    rng = random.Random(seed)
    assert probe() == f.size()
    with m._roots_held():
        checkpoint = m._checkpoint()
        # The top variable sinks to the bottom: every level changes.
        move_var_to_level(m, m.var_at(0), m.num_vars - 1)
        random_swaps(m, rng, rng.randint(0, 3))
        assert probe() == f.size()
        m._rollback(checkpoint, last=True)
        assert probe() == f.size()
    m.check()


# -- a handle dropped mid-sift -------------------------------------------------


def _random_dnf(m, rng, variables, cubes):
    f = m.false
    for _ in range(cubes):
        cube = m.true
        for var in rng.sample(variables, rng.randint(2, 4)):
            cube = cube & (m.var(var) if rng.random() < 0.5 else m.nvar(var))
        f = f | cube
    return f


def _physical_nodes(m, edges):
    seen = set()
    stack = [edge >> 1 for edge in edges]
    while stack:
        nid = stack.pop()
        if nid and nid not in seen:
            seen.add(nid)
            stack.append(m._lo[nid] >> 1)
            stack.append(m._hi[nid] >> 1)
    return len(seen)


def _sift_dropping_at(read):
    """Sift ``f`` by its probe while ``g``, held only by a reference cycle,
    is freed by the cyclic collector at the metric's ``read``-th call."""
    m = BddManager()
    rng = random.Random(5)
    variables = [m.new_var() for _ in range(10)]
    f = _random_dnf(m, rng, variables, 10)
    holder = [_random_dnf(m, rng, variables[4:], 14)]
    holder.append(holder)
    roots = [f.id] if read else [f.id, holder[0].id]
    apply_order(m, variables[::2] + variables[1::2])
    probe = SizeProbe(f)
    reads = 0

    def metric():
        nonlocal reads, holder
        reads += 1
        if reads == read:
            holder = None
            gc.collect()
        return probe()

    before = m.swap_count
    final = sift_to_convergence(m, metric=metric)
    outcome = (m.current_order(), final, m.swap_count - before)
    assert read is None or reads >= read, "the drop never happened"
    m.collect()
    assert m.live_node_count() == _physical_nodes(m, roots)
    m.check()
    return outcome


@pytest.mark.parametrize("read", [1, 2, 17, 60, 150])
def test_handle_dropped_mid_sift(read):
    kept = _sift_dropping_at(None)
    assert _sift_dropping_at(read) == kept
