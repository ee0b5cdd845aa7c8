"""Reference sifting engine and the sift corpus it is checked against.

``reference_sift`` / ``reference_sift_to_convergence`` are the return-trip
implementation of Rudell's sifting: every block is swapped down, swapped
back up through the positions it just measured and on to the top, then
swapped to its best position, and every pass sifts every block.  The
library engine (:mod:`repro.bdd.sifting`) replays the return climb from
recorded sizes, returns a block to its start by rolling the node store
back, and skips blocks already proven clean at the same order.  It must
take exactly the decisions this engine takes, with at most its swaps.

The *sift corpus* is every machine of ``examples/rsl``, the first 300
``generate_case(7, i)`` fuzz machines and the 64 generated machines of the
build-cold benchmark corpus, each sifted with both constraint schemes,
plus the three live-node functions of ``benchmarks/bench_bdd_engine.py``.
The tier-1 tests sift a fixed part of it; the whole of it, with its swap
totals pinned, runs as::

    PYTHONPATH=src python -m tests.bdd.sift_reference
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd import BddManager, SizeProbe, apply_order, sift_to_convergence
from repro.bdd.sifting import (
    PrecedenceConstraints,
    _block_index_bounds,
    _block_list,
    _swap_adjacent_blocks,
)
from repro.difftest import CaseConfig, generate_case
from repro.frontend import compile_source
from repro.sgraph.build import default_order
from repro.sgraph.orderings import naive_order
from repro.synthesis import synthesize_reactive

REPO = Path(__file__).resolve().parents[2]

EXAMPLES = (
    "wheel_filter", "speedo", "odometer", "tacho",
    "speed_gauge", "rpm_gauge", "fuel_gauge", "belt_alarm",
    "accel_filter", "road_classifier", "damping_logic", "actuator", "diagnostics",
    "abp_sender", "chan_frame", "abp_receiver", "chan_ack",
)

FUZZ_STREAM = 7
FUZZ_CASES = 300

# The generated machines of the build-cold benchmark: the case shape of
# perfbench/corpus.py's ``generated_case_config`` and its stream.
BUILD_COLD_CONFIG = CaseConfig(
    max_state_vars=3,
    max_num_values=6,
    max_pure_inputs=4,
    max_valued_inputs=2,
    max_value_width=6,
    max_pure_outputs=3,
    max_valued_outputs=2,
    max_transitions=8,
)
BUILD_COLD_STREAM = 0
BUILD_COLD_CASES = 64

LIVE_NODE_FUNCTIONS = ("small", "stress", "independent")

#: (reference, library) swap totals of each part of the whole corpus.
#: The library column was re-pinned when sifting by a size probe moved to
#: a private copy of χ: examples 6072 -> 6466, fuzz 24383 -> 26454 and
#: build-cold 12442 -> 13363.  The exploration swaps are unchanged; the
#: swaps that move each shared manager to the order a pass found are
#: added.  The live-node part sifts by the live-node count, in place, and
#: is unchanged.
CORPUS_SWAPS = {
    "examples": (14230, 6466),
    "fuzz": (55361, 26454),
    "build-cold": (28539, 13363),
    "live-node": (6977, 2953),
}


# ----------------------------------------------------------------------
# The reference engine
# ----------------------------------------------------------------------


def reference_sift(
    manager: BddManager,
    constraints: Optional[PrecedenceConstraints] = None,
    groups: Optional[Sequence[Sequence[int]]] = None,
    max_growth: float = 2.0,
    metric=None,
) -> int:
    """One return-trip sifting pass; returns the final size."""
    manager.collect()
    if metric is None:
        metric = manager.live_node_count
    interaction = manager.interaction_pairs()
    blocks = _block_list(manager, groups)
    where: Dict[int, int] = {
        var: j for j, block in enumerate(blocks) for var in block
    }
    counts = manager.reachable_counts_by_var()
    schedule = [frozenset(block) for block in blocks]
    schedule.sort(key=lambda block: -sum(counts[v] for v in block))

    for block_vars in schedule:
        index = where[next(iter(block_vars))]
        block = blocks[index]
        lo_idx, hi_idx = _block_index_bounds(blocks, index, constraints, where)
        if lo_idx == hi_idx == index:
            continue

        best_size = metric()
        best_pos = current = index

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

        while current < hi_idx:
            move(+1)
            size = metric()
            if size < best_size:
                best_size, best_pos = size, current
            elif size > best_size * max_growth:
                break
        while current > lo_idx:
            move(-1)
            size = metric()
            if size < best_size:
                best_size, best_pos = size, current
            elif size > best_size * max_growth:
                break
        while current < best_pos:
            move(+1)
        while current > best_pos:
            move(-1)

    if constraints is not None:
        assert constraints.is_satisfied(manager), "sifting violated constraints"
    return metric()


def reference_sift_to_convergence(
    manager: BddManager,
    constraints: Optional[PrecedenceConstraints] = None,
    groups: Optional[Sequence[Sequence[int]]] = None,
    max_passes: int = 8,
    metric=None,
) -> int:
    """Return-trip passes until the size stops improving."""
    manager.collect()
    if metric is None:
        metric = manager.live_node_count
    size = metric()
    for _ in range(max_passes):
        new_size = reference_sift(
            manager, constraints=constraints, groups=groups, metric=metric
        )
        if new_size >= size:
            return new_size
        size = new_size
    return size


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------


def example_machine(name: str):
    return compile_source((REPO / "examples" / "rsl" / f"{name}.rsl").read_text(
        encoding="utf-8"
    ))


def fuzz_machine(index: int):
    return generate_case(FUZZ_STREAM, index).cfsm


def build_cold_machine(index: int):
    return generate_case(BUILD_COLD_STREAM, index, BUILD_COLD_CONFIG).cfsm


def _stress_function(manager: BddManager, n_pairs: int, cubes: int):
    """The bench's stress DNF, its even variables above its odd ones."""
    path = REPO / "benchmarks" / "bench_bdd_engine.py"
    spec = importlib.util.spec_from_file_location("_bench_bdd_engine", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    variables, f = bench._stress_function(manager, n_pairs=n_pairs, cubes=cubes)
    apply_order(
        manager,
        [v for v in variables if v % 2 == 0] + [v for v in variables if v % 2 == 1],
    )
    return f


def _independent_clusters(manager: BddManager) -> List:
    """The bench's four disjoint-support DNFs, interleaved pessimally."""
    rng = random.Random(11)
    clusters = []
    roots = []
    for _ in range(4):
        cluster = [manager.new_var() for _ in range(5)]
        clusters.append(cluster)
        f = manager.false
        for _ in range(10):
            cube = manager.true
            for var in rng.sample(cluster, rng.randint(2, 4)):
                literal = (
                    manager.var(var) if rng.random() < 0.5 else manager.nvar(var)
                )
                cube = cube & literal
            f = f | cube
        roots.append(f)
    apply_order(manager, [clusters[c][i] for i in range(5) for c in range(4)])
    return roots


def live_node_function(name: str) -> Tuple[BddManager, List]:
    """A fresh manager holding one of the bench's live-node sift inputs."""
    manager = BddManager()
    if name == "small":
        roots = [_stress_function(manager, 8, 24)]
    elif name == "stress":
        roots = [_stress_function(manager, 10, 48)]
    else:
        roots = _independent_clusters(manager)
    return manager, roots


# ----------------------------------------------------------------------
# Cross-checks
# ----------------------------------------------------------------------


def crosscheck_machine(cfsm) -> Tuple[int, int]:
    """Sift ``cfsm`` with both engines under both constraint schemes.

    Each sift runs on a fresh reactive function from the naive order.
    Asserts identical final orders, orders handed to the s-graph builder,
    returned sizes and χ sizes, at most the reference's swaps, and a clean
    ``check()``; returns the (reference, library) swap totals.
    """
    totals = [0, 0]
    for strict in (False, True):
        outcomes = []
        for engine, run in enumerate((reference_sift_to_convergence, sift_to_convergence)):
            rf = synthesize_reactive(cfsm)
            naive_order(rf)
            manager = rf.manager
            before = manager.swap_count
            returned = run(
                manager,
                constraints=(
                    rf.strict_constraints() if strict else rf.support_constraints()
                ),
                groups=rf.encoding.sifting_groups(),
                metric=SizeProbe(rf.chi),
            )
            manager.check()
            swaps = manager.swap_count - before
            totals[engine] += swaps
            outcomes.append((
                [manager.var_name(v) for v in manager.current_order()],
                default_order(rf),
                returned,
                rf.chi.size(),
                swaps,
            ))
        reference, library = outcomes
        assert library[:4] == reference[:4], (cfsm.name, strict)
        assert library[4] <= reference[4], (cfsm.name, strict, library[4], reference[4])
    return totals[0], totals[1]


def crosscheck_live_node_function(name: str) -> Tuple[int, int]:
    """Sift one bench live-node function with both engines (see above)."""
    outcomes = []
    for run in (reference_sift_to_convergence, sift_to_convergence):
        manager, roots = live_node_function(name)
        before = manager.swap_count
        returned = run(manager)
        manager.check()
        outcomes.append((
            manager.current_order(),
            returned,
            [root.size() for root in roots],
            manager.swap_count - before,
        ))
    reference, library = outcomes
    assert library[:3] == reference[:3], name
    assert library[3] <= reference[3], (name, library[3], reference[3])
    return reference[3], library[3]


def crosscheck_corpus() -> Dict[str, Tuple[int, int]]:
    """Cross-check the whole sift corpus; (reference, library) swaps per part."""
    parts = {
        "examples": [example_machine(name) for name in EXAMPLES],
        "fuzz": [fuzz_machine(i) for i in range(FUZZ_CASES)],
        "build-cold": [build_cold_machine(i) for i in range(BUILD_COLD_CASES)],
    }
    summary = {}
    for part, machines in parts.items():
        swaps = [crosscheck_machine(cfsm) for cfsm in machines]
        summary[part] = (sum(s[0] for s in swaps), sum(s[1] for s in swaps))
    swaps = [crosscheck_live_node_function(name) for name in LIVE_NODE_FUNCTIONS]
    summary["live-node"] = (sum(s[0] for s in swaps), sum(s[1] for s in swaps))
    return summary


def main() -> int:
    """Cross-check the whole corpus and compare its swap totals to the pins."""
    summary = crosscheck_corpus()
    for part, (reference, library) in summary.items():
        print(f"{part}: identical decisions, {library} swaps (reference {reference})")
    if summary != CORPUS_SWAPS:
        print(f"swap totals {summary} != pinned {CORPUS_SWAPS}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
