"""BDD-ENGINE — micro-benchmarks of the Boolean substrate.

Not a paper table: library-grade performance tracking for the ROBDD
package every experiment stands on.  Exercises the three operations the
synthesis flow leans on hardest — ITE-based construction, adjacent-level
swaps, and constrained sifting — on the real characteristic functions of
the dashboard modules plus a synthetic stress function.

Two modes:

* **pytest-benchmark** (``pytest benchmarks/bench_bdd_engine.py``) — the
  timing fixtures below;
* **report script** (``python benchmarks/bench_bdd_engine.py --json
  BENCH_bdd.json``) — emits the machine-readable ``repro-bdd-bench/v2``
  document the repo tracks at its root.  ``--check REFERENCE`` additionally
  compares the *deterministic* counters (sift swap/skip counts, collect()
  calls, final sizes) against a committed reference and exits non-zero on
  any regression — the CI gate.  ``REPRO_BENCH_SMOKE=1`` or ``--smoke``
  shrinks the timed workloads (the deterministic sift scenarios always run
  in full so the gate compares like with like).

v2 additions over v1: a ``store`` section with the struct-of-arrays
footprint (bytes per node) and complement-edge share; a
``cofactor_quantify`` workload plus a quantification drive in the counter
run, so the restrict/quant cache counters are exercised (under v1 the
counter run was the stress sift alone, which never cofactors or
quantifies — the zeros were vacuous, not dead counters); and an
``independent`` sift scenario over disjoint root supports where the
interaction-matrix fast path provably fires (the stress DNF makes every
variable pair interact, so its ``swap_skips: 0`` is correct behavior).

Every scenario above sifts by the physical live-node count.  The ``chi``
scenario is the synthesis flow's own sift path instead: ``sifted_order``
over the shock absorber's ``damping_logic`` characteristic function,
whose size probe (:class:`repro.bdd.SizeProbe`) recounts only the levels
each move swapped.  That sift explores on a private copy of χ, so its
swaps are the exploration's plus the moves of the shared manager to each
pass's order.  The copy is the native C store whenever it builds, and
``chi`` times both engines: ``wall_s`` is the native store's, and
``python_wall_s`` the Python store's, from best-of runs of the two
alternating in the same process, so both see the same host;
``engine_speedup`` is their ratio.  Both must read the same counters.

The ``kernel`` section times two steps on both BDD kernels:
``reactive`` (below) and ``chi`` (the sift above, on the native store
whenever it builds), each the best of ``BEST_OF`` runs alternating the
native kernel and the Python manager in the same process, so both see
the same host period.  ``wall_s`` is the native kernel's,
``python_wall_s`` the Python manager's, and ``kernel_speedup`` their
ratio; both kernels must read the same counters.

The ``reactive`` section times the step before sifting,
``synthesize_reactive`` (care set, conditions, χ) over the 17 example
modules, and reports its summed χ size, ITE cache misses and peak nodes;
``--check`` gates the χ size and the ITE misses.  The ``provenance``
block records where the figures were taken.

Each timed scenario (the sift scenarios and ``reactive``) times the best
of ``BEST_OF`` runs on fresh inputs; a full report's ``wall_s`` is the
median of ``RUNS`` such best-of runs (smoke mode: one), and ``speedup``
is taken from that median.
"""

import argparse
import contextlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

from repro.bdd import BddManager, apply_order, native, sift_to_convergence
from repro.obs import BDD_BENCH_FORMAT, validate_bdd_bench

# Baselines the sift scenarios below report a speedup against.  wall_s is
# machine-bound; swaps/final_size are deterministic.
#
# * small / stress: the kernel before the rewrite (refcounted GC,
#   incremental swap sizing, interaction matrix), recorded from the same
#   container class CI uses.
# * chi: the same scenario with ``chi.size()``, a full walk of the
#   function, as the sift metric (the code before SizeProbe): the median
#   of 13 best-of-5 runs, interleaved with runs of the probe, on the 2-core
#   VM that measured BENCH_bdd.json (the probe's median there: 0.0734 s).
# * reactive: the construction that OR-ed one cube per enumerated joint
#   assignment into the care set and left-folded conditions and spec:
#   the median of 13 best-of-5 runs, interleaved with runs of the
#   distinct-cube construction, on the same VM (their median: 0.0326 s).
_BASELINE = {
    "small": {"wall_s": 1.0905, "swaps": 2925, "final_size": 484},
    "stress": {"wall_s": 4.2605, "swaps": 3041, "final_size": 1487},
    "chi": {"wall_s": 0.1487, "swaps": 4514, "final_size": 86},
    "reactive": {
        "wall_s": 0.0524,
        "chi_size": 675,
        "ite_misses": 5728,
        "peak_nodes": 5595,
    },
}

# Timed scenarios report the best of this many runs, and a full report
# the median of RUNS such best-of runs.
BEST_OF = 5
RUNS = 5

ROOT = Path(__file__).resolve().parents[1]


def _stress_function(manager, n_pairs=8, seed=3, cubes=24):
    """A messy random DNF over interleaved variable pairs."""
    rng = random.Random(seed)
    variables = [manager.new_var() for _ in range(2 * n_pairs)]
    f = manager.false
    for _ in range(cubes):
        cube = manager.true
        for var in rng.sample(variables, rng.randint(3, 6)):
            literal = manager.var(var) if rng.random() < 0.5 else manager.nvar(var)
            cube = cube & literal
        f = f | cube
    return variables, f


# ----------------------------------------------------------------------
# pytest-benchmark mode
# ----------------------------------------------------------------------


def test_bdd_construction_throughput(benchmark):
    def build():
        manager = BddManager()
        _, f = _stress_function(manager)
        return f.size()

    size = benchmark(build)
    assert size > 10


def test_bdd_swap_throughput(benchmark):
    manager = BddManager()
    variables, f = _stress_function(manager)
    keep = f  # hold the root alive

    def swap_ladder():
        for level in range(len(variables) - 1):
            manager.swap_levels(level)
        for level in reversed(range(len(variables) - 1)):
            manager.swap_levels(level)
        return keep.size()

    size = benchmark(swap_ladder)
    assert size == keep.size()


def test_bdd_sifting_on_real_characteristic_function(benchmark, dashboard_net):
    from repro.synthesis import synthesize_reactive

    machine = dashboard_net.machine("belt_alarm")

    def sift():
        return synthesize_reactive(machine).sift()

    size = benchmark(sift)
    assert size > 0


def test_bdd_quantification(benchmark):
    manager = BddManager()
    variables, f = _stress_function(manager, n_pairs=7)

    def quantify():
        return f.exists(variables[::3]).size()

    size = benchmark(quantify)
    assert size >= 1


# ----------------------------------------------------------------------
# report-script mode (BENCH_bdd.json)
# ----------------------------------------------------------------------


def _timed_ops(fn, ops):
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return {
        "ops": ops,
        "wall_s": round(wall, 6),
        "ops_per_sec": round(ops / wall, 1) if wall > 0 else 0.0,
    }


def _workload_construction(repeats):
    def run():
        for _ in range(repeats):
            manager = BddManager()
            _stress_function(manager)

    return _timed_ops(run, repeats)


def _workload_swap_ladder(repeats):
    manager = BddManager()
    variables, f = _stress_function(manager)
    keep = f
    swaps_per_round = 2 * (len(variables) - 1)

    def run():
        for _ in range(repeats):
            for level in range(len(variables) - 1):
                manager.swap_levels(level)
            for level in reversed(range(len(variables) - 1)):
                manager.swap_levels(level)

    result = _timed_ops(run, repeats * swaps_per_round)
    assert keep.size() > 0
    return result


def _workload_quantification(repeats):
    manager = BddManager()
    variables, f = _stress_function(manager, n_pairs=7)

    def run():
        for _ in range(repeats):
            f.exists(variables[::3])

    return _timed_ops(run, repeats)


def _workload_cofactor_quantify(repeats):
    """Cofactor + smoothing mix — the s-graph builder's access pattern.

    One op is a restrict (both cofactors of one variable) or an
    existential quantification; drives the restrict and quant caches so
    their counters in BENCH_bdd.json are non-vacuous.
    """
    manager = BddManager()
    variables, f = _stress_function(manager, n_pairs=7)

    def run():
        for _ in range(repeats):
            for var in variables:
                f.cofactors(var)
            f.exists(variables[::3])
            f.exists(variables[1::3])

    return _timed_ops(run, repeats * (len(variables) + 2))


def _sift_scenario(prepare, cubes):
    """Sift ``prepare()``'s manager to convergence by its live-node count.

    Deterministic by construction (fixed seeds, fixed tie-breaks): the
    swap count, collect() count, and final size must reproduce exactly on
    every machine; only wall_s, the best of BEST_OF runs on fresh
    managers, varies.
    """
    walls = []
    for _ in range(BEST_OF):
        manager, roots = prepare()
        manager.swap_count = 0
        manager.swap_skips = 0
        manager.collect_count = 0
        t0 = time.perf_counter()
        final_size = sift_to_convergence(manager)
        walls.append(time.perf_counter() - t0)
        assert all(r.size() > 0 for r in roots)  # every root stayed live
    return {
        "n_vars": manager.num_vars,
        "cubes": cubes,
        "wall_s": round(min(walls), 4),
        "swaps": manager.swap_count,
        "swap_skips": manager.swap_skips,
        "collects": manager.collect_count,
        "final_size": final_size,
    }


def _stress_input(n_pairs, cubes):
    """Pessimized-order stress DNF: the kernel's headline scenario."""
    manager = BddManager()
    variables, f = _stress_function(manager, n_pairs=n_pairs, cubes=cubes)
    order = [v for v in variables if v % 2 == 0] + [
        v for v in variables if v % 2 == 1
    ]
    apply_order(manager, order)
    return manager, [f]


def _independent_input(n_clusters=4, vars_per_cluster=5, cubes=10, seed=11):
    """Disjoint root supports: the interaction-matrix showcase.

    Each cluster's function touches only its own variables, the clusters
    are interleaved into a pessimal order, and every root is kept live —
    so cross-cluster swaps are non-interacting and reduce to pure
    level-map updates (``swap_skips``, part of the CI gate).
    """
    manager = BddManager()
    rng = random.Random(seed)
    clusters = []
    roots = []
    for _ in range(n_clusters):
        cluster = [manager.new_var() for _ in range(vars_per_cluster)]
        clusters.append(cluster)
        f = manager.false
        for _ in range(cubes):
            cube = manager.true
            for var in rng.sample(cluster, rng.randint(2, 4)):
                literal = (
                    manager.var(var) if rng.random() < 0.5 else manager.nvar(var)
                )
                cube = cube & literal
            f = f | cube
        roots.append(f)
    order = [
        clusters[c][i]
        for i in range(vars_per_cluster)
        for c in range(n_clusters)
    ]
    apply_order(manager, order)
    # The last cube and literal built stay live too: the gated counters
    # were pinned with them among the roots.
    return manager, roots + [cube, literal]


def _independent_scenario():
    scenario = _sift_scenario(_independent_input, cubes=40)
    assert scenario["swap_skips"] > 0, "interaction fast path never fired"
    return scenario


@contextlib.contextmanager
def _engine(name):
    """Sift on the ``"native"`` or the ``"python"`` private store in the block."""
    loaded = native.sift_library()
    native._sift_library = loaded if name == "native" else None
    try:
        yield
    finally:
        native._sift_library = loaded


def _chi_scenario():
    """The synthesis flow's heaviest sift, through its own entry point.

    ``sifted_order`` on the shock absorber's ``damping_logic`` (41
    variables): reset to the naive order, then sift to convergence by the
    characteristic function's semantic size, probed after every move.
    wall_s is the best of BEST_OF runs on fresh reactive functions, on
    the native store when it builds; python_wall_s the best of as many
    runs on the Python store, alternating with them.  The counters are
    deterministic and equal in every run of either engine.
    """
    from repro.apps import shock_network
    from repro.sgraph import sifted_order
    from repro.synthesis import synthesize_reactive

    machine = shock_network().machine("damping_logic")
    engines = ("native", "python") if native.sift_library() else ("python",)
    walls = {name: [] for name in engines}
    counters = set()
    for _ in range(BEST_OF):
        for name in engines:
            rf = synthesize_reactive(machine)
            manager = rf.manager
            manager.swap_count = 0
            manager.swap_skips = 0
            manager.collect_count = 0
            with _engine(name):
                t0 = time.perf_counter()
                sifted_order(rf)
                walls[name].append(time.perf_counter() - t0)
            counters.add((
                manager.swap_count, manager.swap_skips, manager.collect_count,
                rf.chi.size(),
            ))
    assert len(counters) == 1, f"the engines' counters differ: {counters}"
    ((swaps, swap_skips, collects, final_size),) = counters
    scenario = {
        "n_vars": manager.num_vars,
        "wall_s": round(min(walls[engines[0]]), 4),
        "swaps": swaps,
        "swap_skips": swap_skips,
        "collects": collects,
        "final_size": final_size,
    }
    if len(engines) == 2:
        scenario["python_wall_s"] = round(min(walls["python"]), 4)
    return scenario


@contextlib.contextmanager
def _kernel(name):
    """Make managers on the ``"native"`` kernel or the ``"python"`` one."""
    loaded = native.kernel_library()
    native._kernel_library = loaded if name == "native" else None
    try:
        yield
    finally:
        native._kernel_library = loaded


def _reactive_once(machines):
    """One ``reactive`` run: its wall and its summed counters."""
    from repro.synthesis import synthesize_reactive

    chi_size = ite_misses = peak_nodes = 0
    wall = 0.0
    for machine in machines:
        t0 = time.perf_counter()
        rf = synthesize_reactive(machine)
        chi = rf.chi
        wall += time.perf_counter() - t0
        chi_size += chi.size()
        ite_misses += rf.manager.ite_misses
        peak_nodes += rf.manager.peak_nodes
    return wall, (chi_size, ite_misses, peak_nodes)


def _chi_once(machine):
    """One ``chi`` sift on a fresh reactive function: wall and counters."""
    from repro.sgraph import sifted_order
    from repro.synthesis import synthesize_reactive

    rf = synthesize_reactive(machine)
    manager = rf.manager
    before = manager.swap_count, manager.swap_skips, manager.collect_count
    t0 = time.perf_counter()
    sifted_order(rf)
    wall = time.perf_counter() - t0
    return wall, (
        manager.swap_count - before[0], manager.swap_skips - before[1],
        manager.collect_count - before[2], rf.chi.size(),
    )


def _example_machines():
    from repro.frontend import compile_source

    return [
        compile_source(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "examples" / "rsl").glob("*.rsl"))
    ]


def _kernel_scenario():
    """``reactive`` and ``chi`` on both kernels, alternating in one process.

    Each leg is the best of BEST_OF runs per kernel; the counters must be
    the same in every run of either.
    """
    from repro.apps import shock_network

    legs = {
        "reactive": (_reactive_once, _example_machines()),
        "chi": (_chi_once, shock_network().machine("damping_logic")),
    }
    report = {}
    for leg, (once, arg) in legs.items():
        walls = {name: [] for name in ("native", "python")}
        counters = set()
        for _ in range(BEST_OF):
            for name in walls:
                with _kernel(name):
                    wall, seen = once(arg)
                walls[name].append(wall)
                counters.add(seen)
        assert len(counters) == 1, f"the kernels' counters differ: {counters}"
        report[leg] = {
            "wall_s": round(min(walls["native"]), 4),
            "python_wall_s": round(min(walls["python"]), 4),
        }
    return report


def _median_kernel(runs):
    """``_kernel_scenario`` ``runs`` times: the median of each wall."""
    results = [_kernel_scenario() for _ in range(runs)]
    report = {}
    for leg in results[0]:
        summary = {
            field: round(statistics.median(r[leg][field] for r in results), 4)
            for field in ("wall_s", "python_wall_s")
        }
        if summary["wall_s"] > 0:
            summary["kernel_speedup"] = round(
                summary["python_wall_s"] / summary["wall_s"], 2
            )
        report[leg] = summary
    return report


def _reactive_scenario():
    """``synthesize_reactive`` over the 17 example modules, fresh managers.

    Builds each module's encoding, care set, conditions and χ at the
    naive order, with no sifting; χ is built at its first read, so the
    timed span reads it.  wall_s is the best of BEST_OF runs over all 17;
    χ size, ITE cache misses and peak nodes are summed over the modules
    and equal in every run.
    """
    machines = _example_machines()
    walls = []
    for _ in range(BEST_OF):
        wall, (chi_size, ite_misses, peak_nodes) = _reactive_once(machines)
        walls.append(wall)
    return {
        "modules": len(machines),
        "wall_s": round(min(walls), 4),
        "chi_size": chi_size,
        "ite_misses": ite_misses,
        "peak_nodes": peak_nodes,
    }


def _median_of_runs(runs, scenario, *args):
    """Run ``scenario(*args)`` ``runs`` times; the counters must repeat,
    and each wall (wall_s, python_wall_s) becomes the median of the runs'
    best-of walls."""
    results = [scenario(*args) for _ in range(runs)]
    medians = {}
    for field in ("wall_s", "python_wall_s"):
        walls = [result.pop(field) for result in results if field in result]
        if walls:
            medians[field] = round(statistics.median(walls), 4)
    assert all(r == results[0] for r in results), "counters moved between runs"
    summary = {**results[0], **medians}
    if "python_wall_s" in summary and summary["wall_s"] > 0:
        summary["engine_speedup"] = round(
            summary["python_wall_s"] / summary["wall_s"], 2
        )
    return summary


def _with_speedup(scenario, baseline):
    """Attach ``baseline`` and the wall-clock speedup against it."""
    scenario["baseline"] = dict(baseline)
    if scenario["wall_s"] > 0:
        scenario["speedup"] = round(baseline["wall_s"] / scenario["wall_s"], 2)
    else:
        scenario["speedup"] = float("inf")


def run_report(smoke=False):
    """Build the full ``repro-bdd-bench/v2`` report document."""
    from provenance import bench_provenance  # benchmarks/, beside this file

    repeats = 3 if smoke else 20
    runs = 1 if smoke else RUNS
    workloads = {
        "construction": _workload_construction(repeats),
        "swap_ladder": _workload_swap_ladder(repeats),
        "quantification": _workload_quantification(repeats),
        "cofactor_quantify": _workload_cofactor_quantify(repeats),
    }
    # The sift scenarios always run in full: their counters are the CI
    # regression gate and must be comparable between smoke and full runs.
    sift = {
        "small": _median_of_runs(
            runs, _sift_scenario, lambda: _stress_input(8, 24), 24
        ),
        "stress": _median_of_runs(
            runs, _sift_scenario, lambda: _stress_input(10, 48), 48
        ),
        "independent": _median_of_runs(runs, _independent_scenario),
        "chi": _median_of_runs(runs, _chi_scenario),
    }
    for name, scenario in sift.items():
        baseline = _BASELINE.get(name)
        if baseline is not None:
            _with_speedup(scenario, baseline)
    reactive = _median_of_runs(runs, _reactive_scenario)
    _with_speedup(reactive, _BASELINE["reactive"])
    kernel = _median_kernel(runs) if native.kernel_library() else None
    # Aggregate kernel counters from a representative run: the stress sift
    # re-executed on a fresh manager, followed by a cofactor/quantification
    # drive on the sifted function.  Sifting alone never restricts or
    # quantifies, so without the drive those cache counters read zero
    # vacuously (the v1 report did exactly that).
    manager = BddManager()
    variables, f = _stress_function(manager, n_pairs=10, cubes=48)
    apply_order(
        manager,
        [v for v in variables if v % 2 == 0] + [v for v in variables if v % 2 == 1],
    )
    sift_to_convergence(manager)
    for var in variables:
        f.cofactors(var)
    f.exists(variables[::3])
    f.exists(variables[1::3])
    counters = dict(manager.counters())
    for cache in ("ite", "restrict", "quant"):
        total = counters[f"{cache}_cache_hits"] + counters[f"{cache}_cache_misses"]
        counters[f"{cache}_cache_hit_rate"] = (
            round(counters[f"{cache}_cache_hits"] / total, 4) if total else 0.0
        )
    store = {k: round(v, 4) for k, v in manager.store_stats().items()}
    report = {
        "format": BDD_BENCH_FORMAT,
        "smoke": smoke,
        "workloads": workloads,
        "sift": sift,
        "reactive": reactive,
        "counters": counters,
        "store": store,
        "provenance": bench_provenance(best_of=BEST_OF, runs=runs),
    }
    if kernel is not None:
        report["kernel"] = kernel
    return report


def check_against_reference(report, reference):
    """Compare deterministic counters against the committed reference.

    Gates the sift counters and the ``reactive`` fields the reference
    lists (χ size and ITE misses).  Returns a list of regression strings
    (empty means the gate passes).  Wall-clock is intentionally not
    gated — only counted quantities.
    """
    problems = []
    for field, want in reference.get("reactive", {}).items():
        got = report["reactive"][field]
        if got != want:
            problems.append(f"reactive.{field}: {got} != reference {want}")
    for name, ref in reference.get("sift", {}).items():
        got = report["sift"].get(name)
        if got is None:
            problems.append(f"sift scenario {name!r} missing from report")
            continue
        for field in ("swaps", "swap_skips", "collects", "final_size"):
            if got[field] != ref[field]:
                problems.append(
                    f"sift[{name}].{field}: {got[field]} != reference {ref[field]}"
                )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default="BENCH_bdd.json",
                        help="where to write the report document")
    parser.add_argument("--check", metavar="REFERENCE", default=None,
                        help="fail on counter regressions vs this reference JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink timed workloads (or set REPRO_BENCH_SMOKE=1)")
    args = parser.parse_args(argv)
    smoke = args.smoke or os.environ.get("REPRO_BENCH_SMOKE") == "1"

    report = run_report(smoke=smoke)
    errors = validate_bdd_bench(report)
    if errors:
        for err in errors:
            print(f"schema: {err}", file=sys.stderr)
        return 1
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")
    for name, scenario in report["sift"].items():
        line = (
            f"  sift[{name}]: {scenario['wall_s']}s, "
            f"{scenario['swaps']} swaps ({scenario['swap_skips']} skipped), "
            f"{scenario['collects']} collects, final {scenario['final_size']}"
        )
        if "speedup" in scenario:
            line += f", {scenario['speedup']}x vs baseline"
        if "engine_speedup" in scenario:
            line += (
                f"; python store {scenario['python_wall_s']}s, native "
                f"{scenario['engine_speedup']}x faster"
            )
        print(line)
    reactive = report["reactive"]
    print(
        f"  reactive[{reactive['modules']} modules]: {reactive['wall_s']}s, "
        f"chi {reactive['chi_size']}, {reactive['ite_misses']} ITE misses, "
        f"peak {reactive['peak_nodes']}, {reactive['speedup']}x vs baseline"
    )
    for leg, timing in report.get("kernel", {}).items():
        print(
            f"  kernel[{leg}]: native {timing['wall_s']}s, python "
            f"{timing['python_wall_s']}s, {timing['kernel_speedup']}x"
        )

    if args.check:
        with open(args.check) as fh:
            reference = json.load(fh)
        problems = check_against_reference(report, reference)
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        print(f"counters match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
