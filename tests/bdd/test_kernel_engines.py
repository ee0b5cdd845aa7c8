"""The native BDD kernel against the Python manager, its oracle.

Random programs run step by step on one manager of each engine; after
every step both must hold the same functions (truth tables over every
assignment), sizes, supports, per-variable reachable counts and every
work counter, and both must pass ``check()``.  Then the cache policy the
counters rest on, on both engines: each standard triple's rotation hits
its entry, and a hit on a slot a swap freed is a miss.  Then: a kernel
that fails to build or load runs the Python engine with the same bytes,
a failed allocation raises ``MemoryError`` and leaves a valid store, and
a dropped manager frees its C store without the cyclic collector.
"""

import copy
import ctypes
import gc
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import dashboard_network
from repro.bdd import BddManager, native
from repro.bdd.sifting import move_var_to_level
from repro.flow import build_system
from repro.pipeline import BuildTrace

from .engines import engine

N_VARS = 6
SRC = Path(native.__file__).resolve().parents[2]

needs_kernel = pytest.mark.skipif(
    native.kernel_library() is None, reason="the native BDD kernel did not build"
)

# One step: an opcode and four small operands, read modulo what they index.
steps = st.lists(
    st.tuples(*[st.integers(0, 255)] * 5), min_size=1, max_size=24
)
limits = st.sampled_from([3, 12, 1 << 20])


def _pick(pool, index):
    return pool[index % len(pool)]


def _vars(bits, count=N_VARS):
    return [v for v in range(count) if (bits >> v) & 1]


def apply_step(m, pool, step):
    """Run one step on manager ``m`` and its pool of live handles."""
    op, a, b, c, d = step
    op %= 16
    f, g, h = _pick(pool, a), _pick(pool, b), _pick(pool, c)
    var = d % N_VARS
    if op == 0:
        pool.append(m.ite(f, g, h))
    elif op == 1:
        pool.append(f & g)
    elif op == 2:
        pool.append(f | g)
    elif op == 3:
        pool.append(f ^ g)
    elif op == 4:
        pool.append(~f)
    elif op == 5:
        pool.append(f.restrict(var, bool(b & 1)))
    elif op == 6:
        pool.append(f.exists(_vars(d)))
    elif op == 7:
        pool.append(f.and_exists(g, _vars(d)))
    elif op == 8:
        pool.append(f.compose(var, g))
    elif op == 9:
        variables = [(var + i) % N_VARS for i in range(1 + b % 3)]
        codes = [(c * 7 + i * d) % (1 << len(variables)) for i in range(d % 5)]
        pool.append(m.assignments(variables, codes))
    elif op == 10:
        pool.append(m.cube({v: bool((c >> v) & 1) for v in _vars(d)}))
    elif op == 11:
        if len(pool) > 2:
            del pool[a % len(pool)]
    elif op == 12:
        m.collect()
    elif op == 13:
        m.swap_levels(d % (N_VARS - 1))
    elif op == 14:
        order = m.current_order()
        with m._roots_held():
            cp = m._checkpoint()
            for level in (a, b, c):
                m.swap_levels(level % (N_VARS - 1))
            m._rollback(cp, last=bool(d & 1))
        assert m.current_order() == order
    else:
        parts = [([var], [b & 1]), ([(var + 1 + c % 5) % N_VARS], [0, 1][: 1 + d % 2])]
        if parts[0][0] != parts[1][0]:
            pool.append(m.conjoin_assignments(parts))
        if b & 2:
            pool.append(m.conjoin([f, g, h]) if c & 1 else m.disjoin([f, g, h]))


def observe(m, pool):
    """Everything both engines must agree on."""
    assignments = [
        dict(zip(range(N_VARS), bits))
        for bits in itertools.product((False, True), repeat=N_VARS)
    ]
    ids = [f.id for f in pool]
    tables = [tuple(m._evaluate_ids(ids, a)) for a in assignments]
    return {
        "tables": tables,
        "single": [f(assignments[5]) for f in pool],
        "sizes": [f.size() for f in pool],
        "shared": m.shared_size(pool),
        "supports": [sorted(f.support()) for f in pool],
        "reachable": m.reachable_counts_by_var(),
        "order": m.current_order(),
        "counters": m.counters(),
        "sat": [f.count_sat() for f in pool[-2:]],
    }


def start(cache_limit):
    m = BddManager(cache_limit)
    for i in range(N_VARS):
        m.new_var(f"x{i}")
    pool = [m.var(v) for v in range(N_VARS)] + [m.true, m.false]
    return m, pool


@needs_kernel
@settings(max_examples=120, deadline=None)
@given(steps, limits)
def test_random_programs_agree_on_both_engines(program, cache_limit):
    with engine("native"):
        nm, npool = start(cache_limit)
    with engine("python"):
        pm, ppool = start(cache_limit)
    assert nm._native and not pm._native
    for step in program:
        apply_step(nm, npool, step)
        apply_step(pm, ppool, step)
        assert observe(nm, npool) == observe(pm, ppool), step
        nm.check()
        pm.check()


# Each standard triple and its rotation: the second reads the first's
# cache entry.
ROTATIONS = {
    "or": lambda f, g, t, e: ((f, t, g), (g, t, f)),
    "and": lambda f, g, t, e: ((f, g, e), (g, f, e)),
    "implies": lambda f, g, t, e: ((f, g, t), (~g, ~f, t)),
    "and-not": lambda f, g, t, e: ((f, e, g), (~g, e, ~f)),
    "xnor": lambda f, g, t, e: ((f, g, ~g), (g, f, ~f)),
}


@pytest.mark.parametrize("kernel", ["native", "python"])
@pytest.mark.parametrize("shape", sorted(ROTATIONS))
def test_standard_triples_share_one_entry(kernel, shape):
    if kernel == "native" and native.kernel_library() is None:
        pytest.skip("the native BDD kernel did not build")
    with engine(kernel):
        m, pool = start(1 << 20)
    x = pool[:N_VARS]
    f = (x[0] & x[2]) | x[3]  # top variable x0
    g = x[1] ^ x[4]           # top variable x1, below f's
    first, second = ROTATIONS[shape](f, g, m.true, m.false)
    want = m.ite(*first)
    before = m.counters()
    assert m.ite(*second) == want
    after = m.counters()
    assert after["ite_cache_misses"] == before["ite_cache_misses"]
    assert after["ite_cache_hits"] == before["ite_cache_hits"] + 1


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_a_hit_on_a_slot_a_swap_freed_is_a_miss(kernel):
    if kernel == "native" and native.kernel_library() is None:
        pytest.skip("the native BDD kernel did not build")
    with engine(kernel):
        m, pool = start(1 << 20)
    x = pool[:N_VARS]
    h = x[0] & x[1]
    del h  # its node dies at the swap's drain, which then frees it
    m.swap_levels(3)
    before = m.counters()
    again = x[0] & x[1]
    after = m.counters()
    assert after["ite_cache_misses"] == before["ite_cache_misses"] + 1
    assert after["ite_cache_hits"] == before["ite_cache_hits"]
    assert again({0: True, 1: True}) and not again({0: True, 1: False})
    m.check()


@needs_kernel
def test_walkers_and_copies_agree():
    def run():
        m, pool = start(1 << 20)
        f = (pool[0] & ~pool[1]) | (pool[2] ^ pool[3])
        move_var_to_level(m, 0, N_VARS - 1)
        twin = m._copy_function(f)
        # The drawing up to its vertex names, which are edges.
        dot = sorted(re.sub(r"n\d+", "n", line) for line in m.to_dot(f).splitlines())
        return (
            dot, list(f.iter_sat()), f.count_sat(),
            m.store_stats()["allocated_nodes"], twin.size(),
            twin.manager.current_order(), f.var, f.low.size(), f.high.size(),
        )

    with engine("native"):
        native_view = run()
    with engine("python"):
        python_view = run()
    assert native_view == python_view


@needs_kernel
def test_a_small_function_among_many_variables_packs():
    """More variables than the store has slots: packing for a copy and
    for the sift store must not outgrow the kernel's scratch space."""
    with engine("native"):
        m = BddManager()
    for i in range(300):
        m.new_var(f"x{i}")
    f = m.var(0) & ~m.var(299)
    twin = m._copy_function(f)
    assert twin.size() == f.size() == 4
    assert twin.manager.current_order() == m.current_order()
    twin.manager.check()
    lib = native.sift_library()
    if lib is not None:
        assert native.NativeStore(lib, f).size() == f.size()
    with pytest.raises(TypeError):  # a copy would free the C store twice
        copy.copy(m)


def dashboard_build(directory):
    """The dashboard's files as ``repro build`` writes them, and the
    kernel engines its ``order`` passes report."""
    trace = BuildTrace()
    build_system(dashboard_network(), trace=trace).write_to(str(directory))
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    engines = [
        event["metrics"]["bdd_engine"]
        for event in trace.to_dict()["events"]
        if event["kind"] == "pass" and event["name"] == "order"
    ]
    return files, engines


def refuse_to_load(path, *args, **kwargs):
    raise OSError(f"cannot load {path}")


@needs_kernel
@pytest.mark.parametrize("failure", ["compile", "load"])
def test_a_failed_build_or_load_runs_the_python_engine(failure, tmp_path, monkeypatch):
    want, engines = dashboard_build(tmp_path / "native")
    assert engines and set(engines) == {"native"}
    native.sift_library()  # loaded before the loader is refused
    source = tmp_path / "src" / native.KERNEL_SOURCE.name
    source.parent.mkdir()
    text = native.KERNEL_SOURCE.read_text(encoding="utf-8")
    if failure == "compile":
        text += "\n#error does not compile\n"
    else:
        monkeypatch.setattr(ctypes, "PyDLL", refuse_to_load)
    source.write_text(text, encoding="utf-8")
    monkeypatch.setattr(native, "KERNEL_SOURCE", source)
    monkeypatch.setattr(native, "_kernel_library", native._UNLOADED)
    got, engines = dashboard_build(tmp_path / failure)
    assert native.kernel_engine() == "python"
    assert engines and set(engines) == {"python"}
    assert got == want


OUT_OF_MEMORY = """
import random, resource
from repro.bdd import BddManager

m = BddManager()
assert m._native
variables = [m.new_var() for _ in range(40)]
keep = m.var(0) & m.var(1)
rng = random.Random(1)
codes = [rng.getrandbits(40) for _ in range(200_000)]


def address_space():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024


soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (address_space() + (48 << 20), hard))
try:
    m.assignments(variables, codes)
except MemoryError:
    failed = True
else:
    failed = False
finally:
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
assert failed, "the node store never ran out of room"
m.check()
m.collect()
m.check()
assert keep({0: True, 1: True}) and not keep({0: True, 1: False})
print("valid after MemoryError")
"""


@needs_kernel
@pytest.mark.skipif(
    "asan" in os.environ.get("LD_PRELOAD", "") or not sys.platform.startswith("linux"),
    reason="needs RLIMIT_AS and /proc (AddressSanitizer reserves address space)",
)
def test_a_failed_allocation_raises_memory_error_and_leaves_a_valid_store():
    """Some 2.3 million nodes do not fit in 48 MiB more address space: the
    kernel's arrays fail to grow, the call raises ``MemoryError``, and the
    store still passes ``check()``, before and after a collect."""
    done = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "valid after MemoryError\n"


@needs_kernel
def test_a_dropped_manager_frees_its_store_without_the_collector():
    from repro.bdd import kernel

    gc.collect()
    before = kernel.live_objects()
    gc.disable()
    try:
        with engine("native"):
            m, pool = start(1 << 20)
        f = pool[0] & pool[1] | pool[2]
        with m._roots_held():
            cp = m._checkpoint()
            m.swap_levels(0)
            m._rollback(cp)
        assert kernel.live_objects() == before + 2
        del m, pool, f, cp
        assert kernel.live_objects() == before
    finally:
        gc.enable()
