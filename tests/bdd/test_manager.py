"""Unit tests for the ROBDD manager core."""

import pytest

from repro.bdd import BddManager


@pytest.fixture
def mgr():
    return BddManager()


@pytest.fixture
def mgr3():
    m = BddManager()
    for i in range(3):
        m.new_var(f"x{i}")
    return m


def truth_table(m, f, n):
    return [
        f({v: bool((k >> v) & 1) for v in range(n)}) for k in range(1 << n)
    ]


class TestConstants:
    def test_false_true_distinct(self, mgr):
        assert mgr.false.id != mgr.true.id

    def test_constant_flags(self, mgr):
        assert mgr.false.is_false and not mgr.false.is_true
        assert mgr.true.is_true and not mgr.true.is_false
        assert mgr.false.is_constant and mgr.true.is_constant

    def test_constant_helper(self, mgr):
        assert mgr.constant(True) == mgr.true
        assert mgr.constant(False) == mgr.false

    def test_constant_has_no_top_var(self, mgr):
        with pytest.raises(ValueError):
            _ = mgr.true.var

    def test_constant_size(self, mgr):
        assert mgr.true.size() == 1
        assert mgr.false.size() == 1


class TestVariables:
    def test_new_var_assigns_sequential_ids(self, mgr):
        assert mgr.new_var("a") == 0
        assert mgr.new_var("b") == 1
        assert mgr.num_vars == 2

    def test_var_names(self, mgr):
        v = mgr.new_var("clock")
        assert mgr.var_name(v) == "clock"
        w = mgr.new_var()
        assert mgr.var_name(w) == f"v{w}"

    def test_initial_levels_follow_declaration(self, mgr3):
        assert mgr3.current_order() == [0, 1, 2]
        assert mgr3.level_of(1) == 1
        assert mgr3.var_at(2) == 2

    def test_projection_function(self, mgr3):
        x = mgr3.var(0)
        assert x({0: True, 1: False, 2: False})
        assert not x({0: False, 1: True, 2: True})

    def test_negated_projection(self, mgr3):
        nx = mgr3.nvar(0)
        assert nx({0: False}) and not nx({0: True})

    def test_var_is_reduced_and_shared(self, mgr3):
        assert mgr3.var(0).id == mgr3.var(0).id


class TestOperators:
    def test_and_truth_table(self, mgr3):
        f = mgr3.var(0) & mgr3.var(1)
        assert truth_table(mgr3, f, 2) == [False, False, False, True]

    def test_or_truth_table(self, mgr3):
        f = mgr3.var(0) | mgr3.var(1)
        assert truth_table(mgr3, f, 2) == [False, True, True, True]

    def test_xor_truth_table(self, mgr3):
        f = mgr3.var(0) ^ mgr3.var(1)
        assert truth_table(mgr3, f, 2) == [False, True, True, False]

    def test_not(self, mgr3):
        f = ~mgr3.var(0)
        assert f == mgr3.nvar(0)

    def test_double_negation(self, mgr3):
        x = mgr3.var(0)
        assert ~(~x) == x

    def test_implication(self, mgr3):
        f = mgr3.var(0) >> mgr3.var(1)
        # index k has x0 = k&1, x1 = (k>>1)&1
        assert truth_table(mgr3, f, 2) == [True, False, True, True]

    def test_iff(self, mgr3):
        f = mgr3.var(0).iff(mgr3.var(1))
        assert truth_table(mgr3, f, 2) == [True, False, False, True]

    def test_ite(self, mgr3):
        x, y, z = (mgr3.var(i) for i in range(3))
        f = x.ite(y, z)
        for k in range(8):
            bits = {v: bool((k >> v) & 1) for v in range(3)}
            expected = bits[1] if bits[0] else bits[2]
            assert f(bits) == expected

    def test_de_morgan(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        assert ~(x & y) == (~x | ~y)

    def test_absorption(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        assert (x | (x & y)) == x

    def test_canonicity_identical_functions_same_id(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f = (x & y) | (x & ~y)
        assert f == x

    def test_conjoin_disjoin(self, mgr3):
        vs = [mgr3.var(i) for i in range(3)]
        assert mgr3.conjoin(vs)({0: True, 1: True, 2: True})
        assert not mgr3.conjoin(vs)({0: True, 1: False, 2: True})
        assert mgr3.disjoin(vs)({0: False, 1: False, 2: True})
        assert not mgr3.disjoin(vs)({0: False, 1: False, 2: False})

    def test_conjoin_empty_is_true(self, mgr):
        assert mgr.conjoin([]) == mgr.true
        assert mgr.disjoin([]) == mgr.false

    def test_cube(self, mgr3):
        f = mgr3.cube({0: True, 2: False})
        assert f({0: True, 1: False, 2: False})
        assert f({0: True, 1: True, 2: False})
        assert not f({0: True, 1: True, 2: True})
        assert not f({0: False, 1: False, 2: False})


class TestCofactorsQuantifiers:
    def test_restrict_true(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f = (x & y) | (~x & ~y)
        assert f.restrict(0, True) == y
        assert f.restrict(0, False) == ~y

    def test_restrict_below_support_is_identity(self, mgr3):
        y = mgr3.var(1)
        assert y.restrict(0, True) == y
        assert y.restrict(2, False) == y

    def test_cofactors_pair(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f = x ^ y
        lo, hi = f.cofactors(0)
        assert lo == y and hi == ~y

    def test_exists(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f = x & y
        assert f.exists([0]) == y
        assert f.exists([0, 1]) == mgr3.true

    def test_exists_unsat(self, mgr3):
        assert mgr3.false.exists([0, 1]) == mgr3.false

    def test_forall(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f = x | y
        assert f.forall([0]) == y
        assert (x & y).forall([0]) == mgr3.false

    def test_exists_forall_duality(self, mgr3):
        x, y, z = (mgr3.var(i) for i in range(3))
        f = (x & y) | z
        assert ~((~f).exists([1])) == f.forall([1])

    def test_compose(self, mgr3):
        x, y, z = (mgr3.var(i) for i in range(3))
        f = x & y
        g = f.compose(1, z)  # substitute z for y
        assert g == (x & z)

    def test_compose_with_constant(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f = x ^ y
        assert f.compose(1, mgr3.true) == ~x


class TestInspection:
    def test_support(self, mgr3):
        x, z = mgr3.var(0), mgr3.var(2)
        f = x & z
        assert f.support() == {0, 2}

    def test_support_of_constant_is_empty(self, mgr3):
        assert mgr3.true.support() == set()

    def test_size_counts_nodes(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        # x & y: two internal nodes + two terminals
        assert (x & y).size() == 4

    def test_shared_size(self, mgr3):
        x, y = mgr3.var(0), mgr3.var(1)
        f, g = x & y, x | y
        shared = mgr3.shared_size([f, g])
        assert shared <= f.size() + g.size()
        assert shared >= max(f.size(), g.size())

    def test_count_sat_all_vars(self, mgr3):
        f = mgr3.var(0) & mgr3.var(1)
        assert f.count_sat() == 2  # x2 free

    def test_count_sat_subset(self, mgr3):
        f = mgr3.var(0) & mgr3.var(1)
        assert f.count_sat([0, 1]) == 1

    def test_count_sat_requires_support(self, mgr3):
        f = mgr3.var(0) & mgr3.var(2)
        with pytest.raises(ValueError):
            f.count_sat([0])

    def test_count_sat_constants(self, mgr3):
        assert mgr3.true.count_sat() == 8
        assert mgr3.false.count_sat() == 0

    def test_iter_sat_cubes(self, mgr3):
        f = mgr3.var(0) & ~mgr3.var(2)
        cubes = list(f.iter_sat())
        assert {tuple(sorted(c.items())) for c in cubes} == {
            ((0, True), (2, False)),
        }

    def test_pick_sat(self, mgr3):
        f = mgr3.var(0) ^ mgr3.var(1)
        cube = mgr3.pick_sat(f)
        assert cube is not None
        bits = {0: False, 1: False, 2: False}
        bits.update(cube)
        assert f(bits)

    def test_pick_sat_none_for_false(self, mgr3):
        assert mgr3.pick_sat(mgr3.false) is None


class TestEqualityHash:
    def test_equal_functions_equal_handles(self, mgr3):
        a = mgr3.var(0) | mgr3.var(1)
        b = mgr3.var(1) | mgr3.var(0)
        assert a == b and hash(a) == hash(b)

    def test_handles_from_different_managers_unequal(self):
        m1, m2 = BddManager(), BddManager()
        m1.new_var()
        m2.new_var()
        assert m1.var(0) != m2.var(0)


class TestGarbageCollection:
    def test_collect_keeps_live_handles(self, mgr3):
        f = mgr3.var(0) & mgr3.var(1)
        before = truth_table(mgr3, f, 2)
        mgr3.collect()
        assert truth_table(mgr3, f, 2) == before
        mgr3.check()

    def test_collect_frees_dead_nodes(self, mgr3):
        f = mgr3.var(0) & mgr3.var(1) & mgr3.var(2)
        live = mgr3.live_node_count()
        del f
        freed = mgr3.collect()
        assert freed > 0
        assert mgr3.live_node_count() < live

    def test_equal_handles_both_root_regression(self, mgr3):
        """Regression: two equal handles must both act as GC roots.

        A WeakSet keyed on value-equality once collapsed them, freeing live
        nodes when the first-created handle died.
        """
        tmp = mgr3.var(0) & mgr3.var(1)
        keep = mgr3.var(0) & mgr3.var(1)  # equal function, distinct handle
        assert tmp == keep
        del tmp
        import gc

        gc.collect()
        mgr3.collect()
        # keep must still evaluate correctly and pass invariants.
        assert keep({0: True, 1: True}) and not keep({0: True, 1: False})
        mgr3.check()

    def test_freed_ids_are_reused(self, mgr3):
        f = mgr3.var(0) & mgr3.var(1)
        allocated = len(mgr3._var)
        del f
        mgr3.collect()
        g = mgr3.var(0) & mgr3.var(1)
        assert len(mgr3._var) == allocated  # freelist reuse, no array growth
        assert g({0: True, 1: True})

    def test_operations_after_collect(self, mgr3):
        f = mgr3.var(0) | mgr3.var(2)
        mgr3.collect()
        g = f & mgr3.var(1)
        assert g({0: True, 1: True, 2: False})
        mgr3.check()


class TestAssignmentSets:
    """``assignments`` / ``conjoin_assignments`` build by ``_mk`` alone the
    functions the cube-by-cube OR and the ITE AND build."""

    @staticmethod
    def cube_by_cube(m, variables, codes):
        n = len(variables)
        f = m.false
        for code in codes:
            f = f | m.cube(
                {v: bool((code >> (n - 1 - i)) & 1) for i, v in enumerate(variables)}
            )
        return f

    @pytest.mark.parametrize("seed", range(6))
    def test_sets_at_any_order(self, seed):
        import random

        from repro.bdd import apply_order

        rng = random.Random(seed)
        m = BddManager()
        variables = [m.new_var() for _ in range(5)]
        order = list(variables)
        rng.shuffle(order)
        apply_order(m, order)
        ite_misses = m.ite_misses
        sets = []
        for size in (0, 1, 7, 19, 31, 32):
            codes = rng.sample(range(32), size)
            sets.append((codes, m.assignments(variables, codes)))
        assert m.ite_misses == ite_misses
        for codes, f in sets:
            assert f == self.cube_by_cube(m, variables, codes)
        m.check()

    def test_full_and_empty_sets_are_constants(self, mgr3):
        assert mgr3.assignments([0, 1, 2], range(8)).is_true
        assert mgr3.assignments([0, 1, 2], []).is_false

    @pytest.mark.parametrize("split", [False, True], ids=["chained", "interleaved"])
    def test_conjunction_of_parts(self, split):
        from repro.bdd import apply_order

        m = BddManager()
        a = [m.new_var() for _ in range(3)]
        x = m.new_var()
        b = [m.new_var() for _ in range(2)]
        if split:  # x and b's bits between a's: the parts interleave
            apply_order(m, [a[0], x, b[0], a[1], b[1], a[2]])
        parts = [(a, [1, 4, 6]), ([x], [0]), (b, [0, 1, 3])]
        ite_misses = m.ite_misses
        f = m.conjoin_assignments(parts)
        assert (m.ite_misses == ite_misses) is not split
        expected = m.true
        for variables, codes in parts:
            expected = expected & self.cube_by_cube(m, variables, codes)
        assert f == expected
        assert m.conjoin_assignments([]).is_true
        m.check()
