"""Units for the generic monotone framework and its three lattices."""

import pytest

from repro.analysis.dataflow import (
    BOOL,
    EMPTY,
    TOP,
    Dataflow,
    DataflowDivergence,
    Interval,
    PathBounds,
    dead_stores,
    join_all,
    max_live,
    path_bounds,
    reverse_edges,
    solve_liveness,
)


class TestFramework:
    def test_reaching_constant_diamond(self):
        # 0 -> {1, 2} -> 3 with edge costs; value = set of edges taken.
        edges = {
            0: [(1, "a"), (2, "b")],
            1: [(3, "c")],
            2: [(3, "d")],
            3: [],
        }
        analysis = Dataflow(
            bottom=frozenset,
            join=lambda a, b: a | b,
            transfer=lambda n, s, ann, v: v | {ann},
        )
        solution = analysis.solve(edges, {0: frozenset()})
        assert solution[3] == {"a", "b", "c", "d"}
        assert solution[1] == {"a"}

    def test_unreached_nodes_absent(self):
        edges = {0: [(1, None)], 2: [(0, None)], 1: []}
        analysis = Dataflow(
            bottom=lambda: 0,
            join=max,
            transfer=lambda n, s, ann, v: v + 1,
        )
        solution = analysis.solve(edges, {0: 0})
        assert 2 not in solution  # nothing flows into the orphan seed-less node
        assert solution[1] == 1

    def test_cycle_converges_on_finite_lattice(self):
        # A loop is fine as long as the lattice has finite height.
        edges = {0: [(1, None)], 1: [(0, None)]}
        analysis = Dataflow(
            bottom=lambda: 0,
            join=max,
            transfer=lambda n, s, ann, v: min(v + 1, 5),  # capped ascent
        )
        solution = analysis.solve(edges, {0: 0})
        assert solution[0] == 5
        assert solution[1] == 5

    def test_divergence_guard_raises(self):
        # Unbounded ascending chain on a cycle: the budget must trip.
        edges = {0: [(1, None)], 1: [(0, None)]}
        analysis = Dataflow(
            bottom=lambda: 0,
            join=max,
            transfer=lambda n, s, ann, v: v + 1,
        )
        with pytest.raises(DataflowDivergence):
            analysis.solve(edges, {0: 0})

    def test_dag_visits_each_edge_once(self):
        # Reverse postorder pops every node after all its predecessors,
        # so a DAG needs exactly one transfer per edge.
        n = 200
        edges = {
            i: [(j, None) for j in (i + 1, i + 5) if j <= n]
            for i in range(n + 1)
        }
        assert sum(len(out) for out in edges.values()) == 396
        calls = []

        def transfer(node, succ, ann, value):
            calls.append((node, succ))
            return value + 1

        analysis = Dataflow(bottom=lambda: 0, join=max, transfer=transfer)
        solution = analysis.solve(edges, {0: 0})
        assert len(calls) == 396
        assert solution == {i: i for i in range(n + 1)}  # longest path

    def test_reverse_edges(self):
        edges = {0: [(1, "x")], 1: [(2, "y")], 2: []}
        rev = reverse_edges(edges)
        assert rev[1] == [(0, "x")]
        assert rev[2] == [(1, "y")]
        assert rev[0] == []


class TestIntervals:
    def test_lattice_basics(self):
        a = Interval(0, 4)
        b = Interval(2, 9)
        assert a.join(b) == Interval(0, 9)
        assert EMPTY.join(a) == a
        assert a.contains(0) and a.contains(4) and not a.contains(5)
        assert Interval.const(3).is_constant
        assert EMPTY.is_empty and not a.is_empty
        assert TOP.contains(10**9)
        assert a.within(0, 4) and not a.within(1, 4)
        assert EMPTY.within(5, 4)

    def test_arithmetic_soundness_exhaustive(self):
        # Every concrete pair must land inside the abstract result.
        a, b = Interval(-3, 4), Interval(1, 5)
        ops = [
            ("add", lambda x, y: x + y),
            ("sub", lambda x, y: x - y),
            ("mul", lambda x, y: x * y),
            ("div_trunc", lambda x, y: int(x / y) if y else 0),
            ("mod_trunc", lambda x, y: x - int(x / y) * y if y else 0),
            ("bit_and", lambda x, y: x & y),
            ("bit_or", lambda x, y: x | y),
            ("bit_xor", lambda x, y: x ^ y),
            ("minimum", min),
            ("maximum", max),
            ("shl", lambda x, y: x << y if 0 <= y < 64 else x),
            ("shr", lambda x, y: x >> y if y >= 0 else x),
        ]
        for name, concrete in ops:
            abstract = getattr(a, name)(b)
            for x in range(-3, 5):
                for y in range(1, 6):
                    got = concrete(x, y)
                    assert abstract.contains(got), (name, x, y, got, abstract)

    def test_neg_and_not(self):
        assert Interval(-3, 4).neg() == Interval(-4, 3)
        assert Interval(1, 5).logical_not() == Interval.const(0)
        assert Interval(0, 0).logical_not() == Interval.const(1)
        assert Interval(0, 5).logical_not() == BOOL

    def test_join_all(self):
        assert join_all([]) is None
        got = join_all([Interval.const(1), Interval.const(7)])
        assert got == Interval(1, 7)

    def test_empty_propagates(self):
        assert EMPTY.add(Interval(0, 1)).is_empty
        assert Interval(0, 1).mul(EMPTY).is_empty


class TestLiveness:
    def test_straightline_dead_store(self):
        # 0: x = ..; 1: x = ..; 2: use x  -> store at 0 is dead.
        succs = [[1], [2], []]
        uses = [set(), set(), {"x"}]
        defs = [{"x"}, {"x"}, set()]
        assert dead_stores(succs, uses, defs) == [(0, "x")]
        live_in, live_out = solve_liveness(succs, uses, defs)
        assert "x" in live_out[1] and "x" not in live_out[0]

    def test_branch_keeps_store_alive(self):
        # 0: x = ..; branches to 1 (uses x) or 2 (redefines) -> not dead.
        succs = [[1, 2], [3], [3], []]
        uses = [set(), {"x"}, set(), set()]
        defs = [{"x"}, set(), {"x"}, set()]
        dead = dead_stores(succs, uses, defs)
        assert (0, "x") not in dead
        assert (2, "x") in dead  # redefinition never observed

    def test_loop_liveness(self):
        # while (..) { use x; def x }: x live around the back edge.
        succs = [[1, 2], [0], []]
        uses = [{"x"}, set(), set()]
        defs = [set(), {"x"}, set()]
        live_in, live_out = solve_liveness(succs, uses, defs)
        assert "x" in live_out[1]  # flows around the loop
        assert dead_stores(succs, uses, defs) == []

    def test_max_live_and_length_check(self):
        assert max_live([{"a", "b"}, {"a"}, set()]) == 2
        assert max_live([]) == 0
        with pytest.raises(ValueError):
            solve_liveness([[1], []], [set()], [set(), set()])


class TestPathBounds:
    def test_diamond_bounds(self):
        edges = {
            "in": [("a", 2.0), ("b", 10.0)],
            "a": [("out", 1.0)],
            "b": [("out", 1.0)],
            "out": [],
        }
        got = path_bounds(edges, "in", "out", entry_cost=5.0, exit_cost=3.0)
        assert got == PathBounds(min_cost=11.0, max_cost=19.0)

    def test_unreachable_exit_raises(self):
        with pytest.raises(KeyError):
            path_bounds({"in": [], "out": []}, "in", "out")

    def test_positive_cycle_diverges(self):
        edges = {"in": [("in", 1.0), ("out", 1.0)], "out": []}
        with pytest.raises(DataflowDivergence):
            path_bounds(edges, "in", "out")
