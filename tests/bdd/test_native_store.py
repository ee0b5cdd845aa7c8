"""The sifting pass in C takes the decisions of the Python pass loop.

A sift by a bare size probe explores on a private copy of χ
(``BddManager._copy_function``), a manager of the shared one's engine.
On the native kernel each pass there is one C call (``bk_sift_pass``,
run by ``sifting._native_pass``); on the Python manager it is
``sifting._sift_pass``, the C pass's oracle.  Sifting on either kernel
must take the same decisions, profile the same samples (the sizes and
the counters a timeline reads) and leave the shared manager with the
same counters, and every private store must be freed.  The copies a
pass explores on read alike on both kernels under scripted swaps,
checkpoints and rollbacks; random programs of them are
``test_kernel_engines``'s.
"""

from collections import Counter

import pytest

from repro.bdd import (
    BddManager,
    SizeProbe,
    kernel,
    native,
    sift,
    sift_to_convergence,
)
from repro.frontend import compile_source
from repro.obs import SiftProfile
from repro.sgraph import naive_order, sifted_order
from repro.synthesis import synthesize_reactive

from .engines import ENGINES, engine
from .sift_reference import (
    EXAMPLES,
    REPO,
    build_cold_machine,
    example_machine,
    fuzz_machine,
)

pytestmark = pytest.mark.skipif(
    native.kernel_library() is None, reason="the native BDD kernel did not build"
)

LEVELS = 9


def named_manager():
    m = BddManager()
    for i in range(LEVELS):
        m.new_var(f"x{i}")
    return m


# -- the copies a pass explores on ---------------------------------------------


def assert_same(copies):
    (native_copy, python_copy) = copies
    a, b = native_copy.manager, python_copy.manager
    assert a._native and not b._native
    assert a.current_order() == b.current_order()
    assert native_copy.size() == python_copy.size() == SizeProbe(python_copy)()
    assert a.counters() == b.counters()


def drive(build, script):
    """Copy the root ``build`` makes on each kernel, run ``script`` on both
    copies, and compare them after every step."""
    copies = []
    for name in ENGINES:
        with engine(name):
            m = named_manager()
            copies.append(m._copy_function(build(m)))
    stores = [copy.manager for copy in copies]
    pairs = stores[1].interaction_pairs()
    assert stores[0].interaction_pairs() == pairs
    assert_same(copies)
    checkpoints = None
    with stores[0]._roots_held(), stores[1]._roots_held():
        for step in script:
            if step[0] == "swap":
                _, level, fast = step
                for store in stores:
                    store.swap_levels(level, pairs if fast else None)
            elif step[0] == "checkpoint":
                checkpoints = [store._checkpoint() for store in stores]
            elif checkpoints is not None:
                for store, cp in zip(stores, checkpoints):
                    store._rollback(cp)
            assert_same(copies)
        if checkpoints is not None:
            for store, cp in zip(stores, checkpoints):
                store._rollback(cp, last=True)
            assert_same(copies)
    for store in stores:
        store.check()


def test_constants_and_complemented_roots():
    script = [("swap", level, fast) for level in range(LEVELS - 1)
              for fast in (True, False)]
    for value in (True, False):
        drive(
            lambda m: m.constant(value),
            script + [("checkpoint",), ("swap", 0, False), ("rollback",)],
        )

    def complemented(m):
        f = (m.var(0) ^ m.var(3)) | (m.var(1) & ~m.var(2))
        f = f if f.id & 1 else ~f
        assert f.id & 1
        return f

    drive(
        complemented,
        script[::-1] + [("checkpoint",)] + script + [("rollback",)] * 2,
    )


def test_repeated_rollbacks_to_one_checkpoint():
    script = [("checkpoint",)]
    for level in (0, 1, 2, 3, 4, 2, 0):
        script += [("swap", level, True), ("swap", level + 1, False), ("rollback",)]
    drive(
        lambda m: (m.var(0) & m.var(4)) | (m.var(1) & m.var(3)) | (m.var(2) ^ m.var(5)),
        script,
    )


# -- sifting on either kernel --------------------------------------------------


class CountingProfile(SiftProfile):
    """Records how many native objects are live at every sample."""

    def __init__(self):
        super().__init__()
        self.live = []

    def sample(self, phase, size, swaps, counters=None):
        super().sample(phase, size, swaps, counters)
        self.live.append(kernel.live_objects())


#: The counters the C pass samples after each block.
SAMPLED = ("swaps", "swap_skips", "live_nodes", "ite_cache_hits", "ite_cache_misses")


def samples(profile):
    """Every sample but its wall, with the counters the C pass samples."""
    return [
        (s.phase, s.size, s.swaps, {key: s.counters[key] for key in SAMPLED})
        for s in profile.samples
    ]


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
                "samples": samples(profile),
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
    before = kernel.live_objects()
    with engine("native"):
        outcomes = example_sifts(CountingProfile)
    live = [n for outcome in outcomes for n in outcome["profile"].live]
    assert max(live) >= before + 2  # the shared manager and its private copy
    assert kernel.live_objects() == before


# -- the paths the example sifts above do not take ----------------------------

#: The examples whose encodings tie variables into groups.
GROUPED = ("wheel_filter", "speedo", "odometer", "tacho", "belt_alarm", "diagnostics")


def on_both_engines(run):
    """``run()`` on each kernel: the outcomes must be equal and every
    native store freed."""
    before = kernel.live_objects()
    outcomes = []
    for name in ENGINES:
        with engine(name):
            outcomes.append(run())
    assert outcomes[0] == outcomes[1]
    assert kernel.live_objects() == before
    return outcomes[0]


def sift_outcome(rf, sifter, strict, profile, **options):
    """Sift ``rf``'s χ with ``sifter``; what it did."""
    manager = rf.manager
    size = sifter(
        manager,
        constraints=rf.strict_constraints() if strict else rf.support_constraints(),
        groups=rf.encoding.sifting_groups(),
        metric=SizeProbe(rf.chi),
        profile=profile,
        **options,
    )
    return {
        "order": manager.current_order(),
        "size": size,
        "swaps": manager.swap_count,
        "swap_skips": manager.swap_skips,
        "samples": None if profile is None else samples(profile),
        "counters": manager.counters(),
    }


def test_one_pass_sifts_alike():
    """``sift()``: one pass on a store of its own, also under a tighter
    growth bound, which ends more legs early."""
    def run():
        return [
            sift_outcome(
                synthesize_reactive(example_machine(name)), sift, strict,
                SiftProfile(), max_growth=max_growth,
            )
            for name in GROUPED
            for strict in (False, True)
            for max_growth in (2.0, 1.05)
        ]

    outcomes = on_both_engines(run)
    assert sum(o["swaps"] for o in outcomes) > 0
    assert any(len(o["samples"]) > 1 for o in outcomes)


def test_strict_constraints_with_groups_sift_alike():
    """``sift-strict`` keeps every output below every input while groups of
    two and three variables move as units."""
    machines = [fuzz_machine(i) for i in (29, 42, 85, 184, 253)]
    machines += [build_cold_machine(i) for i in (2, 23, 29, 63)]

    def run():
        return [
            sift_outcome(
                synthesize_reactive(cfsm), sift_to_convergence, True,
                SiftProfile(),
            )
            for cfsm in machines
        ]

    outcomes = on_both_engines(run)
    assert all(o["swaps"] > 0 for o in outcomes)


def test_unprofiled_sifts_alike():
    """No profile: the C pass takes no samples."""
    def run():
        return [
            sift_outcome(
                synthesize_reactive(example_machine(name)),
                sift_to_convergence, strict, None,
            )
            for name in EXAMPLES
            for strict in (False, True)
        ]

    on_both_engines(run)


# -- what a profile costs --------------------------------------------------------


class CountingKernel:
    """The kernel library, counting the calls made through it."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        entry = getattr(self.lib, name)

        def call(*args):
            self.calls[name] += 1
            return entry(*args)

        return call


def sift_calls(monkeypatch, profile):
    """The kernel calls of one sift of damping_logic's χ."""
    lib = CountingKernel(native.kernel_library())
    monkeypatch.setattr(native, "_kernel_library", lib)
    rf = synthesize_reactive(example_machine("damping_logic"))
    naive_order(rf)
    rf.chi  # built at its first read
    before = Counter(lib.calls)
    rf.sift(strict=False, profile=profile)
    return lib.calls - before


def test_a_profiled_sift_reads_each_sample_in_one_kernel_call(monkeypatch):
    """The start, each pass and the end read their counters in one call
    (the end reads the size too); the blocks' samples come back from the
    passes' own calls."""
    plain = sift_calls(monkeypatch, None)
    profile = SiftProfile()
    profiled = sift_calls(monkeypatch, profile)
    assert profile.passes >= 2
    assert profiled - plain == Counter(
        {"bk_counters": profile.passes + 2, "bk_size": 1}
    )
    assert plain - profiled == Counter()


def test_a_private_copy_builds_its_python_views_on_first_use():
    m = named_manager()
    f = (m.var(0) & m.var(3)) | m.var(5)
    copy = m._copy_function(f)
    assert not kernel._VIEWS & copy.manager.__dict__.keys()
    assert copy.manager.size(copy) == m.size(f)
    assert kernel._VIEWS <= copy.manager.__dict__.keys()
    assert copy.var == f.var
