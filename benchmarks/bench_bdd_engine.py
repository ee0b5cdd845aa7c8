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
each move swapped.
"""

import argparse
import json
import os
import random
import sys
import time

from repro.bdd import BddManager, apply_order, sift_to_convergence
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
_BASELINE = {
    "small": {"wall_s": 1.0905, "swaps": 2925, "final_size": 484},
    "stress": {"wall_s": 4.2605, "swaps": 3041, "final_size": 1487},
    "chi": {"wall_s": 0.1487, "swaps": 4514, "final_size": 86},
}


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


def _sift_scenario(n_pairs, cubes):
    """Pessimized-order stress sift: the kernel's headline scenario.

    Deterministic by construction (fixed seed, fixed tie-breaks): the swap
    count, collect() count, and final size must reproduce exactly on every
    machine; only wall_s varies.
    """
    manager = BddManager()
    variables, f = _stress_function(manager, n_pairs=n_pairs, cubes=cubes)
    order = [v for v in variables if v % 2 == 0] + [
        v for v in variables if v % 2 == 1
    ]
    apply_order(manager, order)
    manager.swap_count = 0
    manager.swap_skips = 0
    manager.collect_count = 0
    t0 = time.perf_counter()
    final_size = sift_to_convergence(manager)
    wall = time.perf_counter() - t0
    assert f.size() > 0  # root stayed live throughout
    return {
        "n_vars": len(variables),
        "cubes": cubes,
        "wall_s": round(wall, 4),
        "swaps": manager.swap_count,
        "swap_skips": manager.swap_skips,
        "collects": manager.collect_count,
        "final_size": final_size,
    }


def _independent_scenario(n_clusters=4, vars_per_cluster=5, cubes=10, seed=11):
    """Sift over disjoint root supports: the interaction-matrix showcase.

    Each cluster's function touches only its own variables, the clusters
    are interleaved into a pessimal order, and every root is kept live —
    so cross-cluster swaps are non-interacting and reduce to pure
    level-map updates (``swap_skips``).  Deterministic like the stress
    scenarios: the skip count is part of the CI gate.
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
    manager.swap_count = 0
    manager.swap_skips = 0
    manager.collect_count = 0
    t0 = time.perf_counter()
    final_size = sift_to_convergence(manager)
    wall = time.perf_counter() - t0
    assert all(r.size() > 0 for r in roots)  # every root stayed live
    assert manager.swap_skips > 0, "interaction fast path never fired"
    return {
        "n_vars": n_clusters * vars_per_cluster,
        "cubes": n_clusters * cubes,
        "wall_s": round(wall, 4),
        "swaps": manager.swap_count,
        "swap_skips": manager.swap_skips,
        "collects": manager.collect_count,
        "final_size": final_size,
    }


def _chi_scenario():
    """The synthesis flow's heaviest sift, through its own entry point.

    ``sifted_order`` on the shock absorber's ``damping_logic`` (41
    variables): reset to the naive order, then sift to convergence by the
    characteristic function's semantic size, probed after every move.
    wall_s is the best of 5 runs on fresh reactive functions; the
    counters are deterministic and equal in every run.
    """
    from repro.apps import shock_network
    from repro.sgraph import sifted_order
    from repro.synthesis import synthesize_reactive

    machine = shock_network().machine("damping_logic")
    walls = []
    for _ in range(5):
        rf = synthesize_reactive(machine)
        manager = rf.manager
        manager.swap_count = 0
        manager.swap_skips = 0
        manager.collect_count = 0
        t0 = time.perf_counter()
        sifted_order(rf)
        walls.append(time.perf_counter() - t0)
    return {
        "n_vars": manager.num_vars,
        "wall_s": round(min(walls), 4),
        "swaps": manager.swap_count,
        "swap_skips": manager.swap_skips,
        "collects": manager.collect_count,
        "final_size": rf.chi.size(),
    }


def run_report(smoke=False):
    """Build the full ``repro-bdd-bench/v2`` report document."""
    repeats = 3 if smoke else 20
    workloads = {
        "construction": _workload_construction(repeats),
        "swap_ladder": _workload_swap_ladder(repeats),
        "quantification": _workload_quantification(repeats),
        "cofactor_quantify": _workload_cofactor_quantify(repeats),
    }
    # The sift scenarios always run in full: their counters are the CI
    # regression gate and must be comparable between smoke and full runs.
    sift = {
        "small": _sift_scenario(8, 24),
        "stress": _sift_scenario(10, 48),
        "independent": _independent_scenario(),
        "chi": _chi_scenario(),
    }
    for name, scenario in sift.items():
        baseline = _BASELINE.get(name)
        if baseline is not None:
            scenario["baseline"] = dict(baseline)
            if scenario["wall_s"] > 0:
                scenario["speedup"] = round(
                    baseline["wall_s"] / scenario["wall_s"], 2
                )
            else:
                scenario["speedup"] = float("inf")
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
    return {
        "format": BDD_BENCH_FORMAT,
        "smoke": smoke,
        "workloads": workloads,
        "sift": sift,
        "counters": counters,
        "store": store,
    }


def check_against_reference(report, reference):
    """Compare deterministic sift counters against the committed reference.

    Returns a list of regression strings (empty means the gate passes).
    Wall-clock is intentionally not gated — only counted quantities.
    """
    problems = []
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
        print(line)

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
