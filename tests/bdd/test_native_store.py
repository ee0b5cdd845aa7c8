"""The native sift store reads what the Python private store reads.

:class:`repro.bdd.native.NativeStore` holds one function in C and is
driven through the methods a sifting pass calls on the store it explores.
Under any sequence of swaps, checkpoints and rollbacks it must read the
sizes, live-node counts, orders and interaction fast-path skips of the
Python private store (``BddManager._copy_function``) driven the same way,
and sifting on either store must take the same decisions, profile the
same timeline and leave the shared manager with the same counters.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager, SizeProbe, native
from repro.frontend import compile_source
from repro.obs import SiftProfile
from repro.sgraph import sifted_order
from repro.synthesis import synthesize_reactive

from .sift_reference import EXAMPLES, REPO, engine
from .test_property import N_VARS, boolexprs, build_bdd

pytestmark = pytest.mark.skipif(
    native.sift_library() is None, reason="the native sift store did not build"
)

EXTRA_VARS = 3
LEVELS = N_VARS + EXTRA_VARS

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("swap"), st.integers(0, LEVELS - 2), st.booleans()
        ),
        st.just(("checkpoint",)),
        st.just(("rollback",)),
    ),
    max_size=40,
)


def stores(root):
    """``root`` alone in a native store and in a Python private store."""
    return (
        native.NativeStore(native.sift_library(), root),
        root.manager._copy_function(root),
    )


def assert_same(store, copy):
    python = copy.manager
    assert store.current_order() == python.current_order()
    assert [store.level_of(v) for v in range(LEVELS)] == [
        python.level_of(v) for v in range(LEVELS)
    ]
    assert store.size() == copy.size() == SizeProbe(copy)()
    assert store.live_node_count() == python.live_node_count()
    assert store.swap_skips == python.swap_skips
    assert store.swap_count == python.swap_count


def drive(root, script):
    store, copy = stores(root)
    python = copy.manager
    assert store.interaction_pairs() == python.interaction_pairs()
    assert_same(store, copy)
    pairs = python.interaction_pairs()
    checkpoints = None
    with python._roots_held():
        for step in script:
            if step[0] == "swap":
                _, level, fast = step
                interaction = pairs if fast else None
                store.swap_levels(level, interaction)
                python.swap_levels(level, interaction)
            elif step[0] == "checkpoint":
                checkpoints = store._checkpoint(), python._checkpoint()
            elif checkpoints is not None:
                store._rollback(checkpoints[0])
                python._rollback(checkpoints[1])
            assert_same(store, copy)
        if checkpoints is not None:
            store._rollback(checkpoints[0], last=True)
            python._rollback(checkpoints[1], last=True)
            assert_same(store, copy)
    python.check()


def named_manager():
    m = BddManager()
    for i in range(LEVELS):
        m.new_var(f"x{i}")
    return m


@settings(max_examples=80, deadline=None)
@given(boolexprs(), steps)
def test_swaps_checkpoints_and_rollbacks_read_as_in_python(tree, script):
    m = named_manager()
    f = build_bdd(tree, m)
    g = m.var(N_VARS) & (m.var(N_VARS + 1) | ~m.var(N_VARS + 2))
    for root in (f, ~f, f | g):
        drive(root, script)
    assert m.current_order() == list(range(LEVELS))


def test_constants_and_complemented_roots():
    m = named_manager()
    script = [("swap", level, fast) for level in range(LEVELS - 1)
              for fast in (True, False)]
    for root in (m.true, m.false):
        store, _ = stores(root)
        assert store.size() == 1 and store.live_node_count() == 0
        assert store.interaction_pairs() == set()
        drive(root, script + [("checkpoint",), ("swap", 0, False), ("rollback",)])
    f = (m.var(0) ^ m.var(3)) | (m.var(1) & ~m.var(2))
    complemented = f if f.id & 1 else ~f
    assert complemented.id & 1
    drive(complemented, script[::-1] + [("checkpoint",)] + script + [("rollback",)] * 2)


def test_repeated_rollbacks_to_one_checkpoint():
    m = named_manager()
    f = (m.var(0) & m.var(4)) | (m.var(1) & m.var(3)) | (m.var(2) ^ m.var(5))
    script = [("checkpoint",)]
    for level in (0, 1, 2, 3, 4, 2, 0):
        script += [("swap", level, True), ("swap", level + 1, False), ("rollback",)]
    drive(f, script)


# -- sifting on either store ---------------------------------------------------


class CountingProfile(SiftProfile):
    """Records how many native objects are live at every sample."""

    def __init__(self):
        super().__init__()
        self.live = []

    def sample(self, phase, size, swaps, counters=None):
        super().sample(phase, size, swaps, counters)
        self.live.append(native.live_objects)


def example_sifts(profile_type=SiftProfile):
    """Sift each example module with both schemes from the naive order."""
    outcomes = []
    for name in EXAMPLES:
        cfsm = compile_source(
            (REPO / "examples" / "rsl" / f"{name}.rsl").read_text(encoding="utf-8")
        )
        for strict in (False, True):
            rf = synthesize_reactive(cfsm)
            profile = profile_type()
            order = sifted_order(rf, strict=strict, profile=profile)
            outcomes.append({
                "order": order,
                "levels": rf.manager.current_order(),
                "chi": rf.chi.size(),
                "timeline": profile.timeline(),
                "counters": rf.manager.counters(),
                "profile": profile,
            })
    return outcomes


def test_both_engines_sift_the_examples_alike():
    with engine("python"):
        python = example_sifts()
    with engine("native"):
        native_ = example_sifts()
    assert len(native_) == 34
    for a, b in zip(native_, python):
        assert a.pop("profile").passes == b.pop("profile").passes
        assert a == b


def test_native_stores_and_checkpoints_are_freed():
    before = native.live_objects
    with engine("native"):
        outcomes = example_sifts(CountingProfile)
    live = [n for outcome in outcomes for n in outcome["profile"].live]
    assert max(live) >= before + 2  # a store and a block's checkpoint
    assert native.live_objects == before
