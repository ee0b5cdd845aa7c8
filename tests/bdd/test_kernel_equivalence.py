"""Randomized equivalence suite for the refcounted kernel.

Every operation the synthesis flow leans on — ite, restrict, exists (list
and cube forms), and_exists — is checked against a brute-force
truth-table evaluator on random DNFs of up to 12 variables, and function
handles are checked to denote identical Boolean functions before and
after a full ``sift_to_convergence``.  Alongside the semantic checks, the
kernel's GC discipline is pinned down: one sifting pass performs exactly
one ``collect()``, the interaction matrix turns swaps of non-interacting
variables into pure level-map updates, and ``check()`` holds after heavy
reorder/GC churn.
"""

import itertools
import random

from repro.bdd import (
    FALSE_ID,
    TRUE_ID,
    BddManager,
    apply_order,
    sift,
    sift_to_convergence,
)

MAX_VARS = 12


def random_dnf(rng, n_vars, n_cubes):
    """A random DNF as a list of cubes, each ``{var: polarity}``."""
    cubes = []
    for _ in range(n_cubes):
        chosen = rng.sample(range(n_vars), rng.randint(1, min(4, n_vars)))
        cubes.append({v: rng.random() < 0.5 for v in chosen})
    return cubes


def dnf_eval(cubes, bits):
    return any(
        all(bits[v] == polarity for v, polarity in cube.items())
        for cube in cubes
    )


def dnf_bdd(manager, cubes):
    f = manager.false
    for cube in cubes:
        f = f | manager.cube(cube)
    return f


def all_assignments(n_vars):
    for values in itertools.product([False, True], repeat=n_vars):
        yield dict(enumerate(values))


def assert_matches(manager, f, oracle, n_vars):
    for bits in all_assignments(n_vars):
        assert manager.evaluate(f, bits) == oracle(bits), bits


class TestRandomizedEquivalence:
    def test_dnf_construction_matches_truth_table(self):
        rng = random.Random(101)
        for n_vars in (3, 6, 9, MAX_VARS):
            m = BddManager()
            for _ in range(n_vars):
                m.new_var()
            cubes = random_dnf(rng, n_vars, 2 * n_vars)
            f = dnf_bdd(m, cubes)
            assert_matches(m, f, lambda bits: dnf_eval(cubes, bits), n_vars)

    def test_ite_matches_truth_table(self):
        rng = random.Random(202)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(10):
            cf = random_dnf(rng, n_vars, 6)
            cg = random_dnf(rng, n_vars, 6)
            ch = random_dnf(rng, n_vars, 6)
            f, g, h = (dnf_bdd(m, c) for c in (cf, cg, ch))
            result = f.ite(g, h)
            assert_matches(
                m,
                result,
                lambda bits: dnf_eval(cg, bits)
                if dnf_eval(cf, bits)
                else dnf_eval(ch, bits),
                n_vars,
            )

    def test_restrict_matches_truth_table(self):
        rng = random.Random(303)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(10):
            cubes = random_dnf(rng, n_vars, 8)
            f = dnf_bdd(m, cubes)
            var = rng.randrange(n_vars)
            value = rng.random() < 0.5
            restricted = f.restrict(var, value)
            assert_matches(
                m,
                restricted,
                lambda bits: dnf_eval(cubes, {**bits, var: value}),
                n_vars,
            )

    def test_exists_list_and_cube_match_truth_table(self):
        rng = random.Random(404)
        n_vars = 9
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(8):
            cubes = random_dnf(rng, n_vars, 8)
            f = dnf_bdd(m, cubes)
            quantified = rng.sample(range(n_vars), rng.randint(1, 4))

            def oracle(bits):
                return any(
                    dnf_eval(cubes, {**bits, **dict(zip(quantified, vals))})
                    for vals in itertools.product(
                        [False, True], repeat=len(quantified)
                    )
                )

            by_list = f.exists(quantified)
            by_cube = f.exists_cube(m.cube({v: True for v in quantified}))
            assert by_list == by_cube
            assert_matches(m, by_list, oracle, n_vars)

    def test_and_exists_matches_conjunction_then_exists(self):
        rng = random.Random(505)
        n_vars = 9
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(8):
            cf = random_dnf(rng, n_vars, 6)
            cg = random_dnf(rng, n_vars, 6)
            f, g = dnf_bdd(m, cf), dnf_bdd(m, cg)
            quantified = rng.sample(range(n_vars), rng.randint(1, 4))
            fused = f.and_exists(g, quantified)
            assert fused == (f & g).exists(quantified)

            def oracle(bits):
                return any(
                    dnf_eval(cf, env) and dnf_eval(cg, env)
                    for vals in itertools.product(
                        [False, True], repeat=len(quantified)
                    )
                    for env in [{**bits, **dict(zip(quantified, vals))}]
                )

            assert_matches(m, fused, oracle, n_vars)

    def test_sift_preserves_denotation_of_all_handles(self):
        rng = random.Random(606)
        n_vars = 10
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        handles, tables = [], []
        for _ in range(6):
            cubes = random_dnf(rng, n_vars, 10)
            f = dnf_bdd(m, cubes)
            handles.append(f)
            tables.append(
                [m.evaluate(f, bits) for bits in all_assignments(n_vars)]
            )
        # Pessimize the order first so sifting really moves things.
        order = list(range(0, n_vars, 2)) + list(range(1, n_vars, 2))
        apply_order(m, order)
        sift_to_convergence(m)
        m.check()
        for f, table in zip(handles, tables):
            after = [m.evaluate(f, bits) for bits in all_assignments(n_vars)]
            assert after == table


class TestComplementEdges:
    """Complement-bit identities: a function and its negation share a node."""

    def test_constant_encoding(self):
        m = BddManager()
        assert m.true.id == TRUE_ID
        assert m.false.id == FALSE_ID
        assert (~m.true).id == FALSE_ID
        assert (~m.false).id == TRUE_ID

    def test_negation_is_a_bit_flip(self):
        rng = random.Random(717)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(10):
            f = dnf_bdd(m, random_dnf(rng, n_vars, 8))
            g = ~f
            assert g.id == f.id ^ 1  # same node, complemented edge
            assert (~g).id == f.id  # double negation is the identity
            assert_matches(
                m, g, lambda bits, f=f: not m.evaluate(f, bits), n_vars
            )
        m.check()

    def test_xor_and_xnor_share_one_node(self):
        rng = random.Random(727)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(10):
            cf = random_dnf(rng, n_vars, 6)
            cg = random_dnf(rng, n_vars, 6)
            f, g = dnf_bdd(m, cf), dnf_bdd(m, cg)
            xor = f ^ g
            xnor = f.iff(g)
            assert xor.id == xnor.id ^ 1
            assert_matches(
                m,
                xor,
                lambda bits: dnf_eval(cf, bits) != dnf_eval(cg, bits),
                n_vars,
            )
        m.check()

    def test_ite_f_g_not_g_is_xnor(self):
        rng = random.Random(737)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(10):
            cf = random_dnf(rng, n_vars, 6)
            cg = random_dnf(rng, n_vars, 6)
            f, g = dnf_bdd(m, cf), dnf_bdd(m, cg)
            result = f.ite(g, ~g)
            assert result.id == f.iff(g).id
            assert result.id == (f ^ g).id ^ 1
            assert_matches(
                m,
                result,
                lambda bits: dnf_eval(cg, bits)
                if dnf_eval(cf, bits)
                else not dnf_eval(cg, bits),
                n_vars,
            )
        m.check()

    def test_complement_commutes_with_restrict_and_not_with_exists(self):
        rng = random.Random(747)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(8):
            f = dnf_bdd(m, random_dnf(rng, n_vars, 8))
            var = rng.randrange(n_vars)
            # restrict commutes with complement...
            assert (~f).restrict(var, True).id == (~f.restrict(var, True)).id
            # ...while exists does not in general: forall is its dual.
            assert (~f).exists([var]) == ~f.forall([var])
        m.check()

    def test_de_morgan_through_shared_nodes(self):
        rng = random.Random(757)
        n_vars = 8
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        for _ in range(10):
            f = dnf_bdd(m, random_dnf(rng, n_vars, 6))
            g = dnf_bdd(m, random_dnf(rng, n_vars, 6))
            assert (~(f & g)).id == ((~f) | (~g)).id
            assert (~(f | g)).id == ((~f) & (~g)).id
        m.check()


class TestCheckDiscipline:
    """check()-after-every-op mode: every mutation leaves a valid store.

    ``check()`` validates the canonical form (then-edges never
    complemented), chain membership, refcounts, and cache entries — so
    running it after each operation pins the exact step that would break
    an invariant.
    """

    def test_check_after_every_operation(self):
        rng = random.Random(777)
        n_vars = 6
        m = BddManager()
        for _ in range(n_vars):
            m.new_var()
        live = [m.var(v) for v in range(n_vars)]
        for step in range(40):
            op = rng.randrange(7)
            if op == 0:
                live.append(rng.choice(live) & rng.choice(live))
            elif op == 1:
                live.append(rng.choice(live) | rng.choice(live))
            elif op == 2:
                live.append(rng.choice(live) ^ rng.choice(live))
            elif op == 3:
                live.append(~rng.choice(live))
            elif op == 4:
                live.append(
                    rng.choice(live).restrict(
                        rng.randrange(n_vars), rng.random() < 0.5
                    )
                )
            elif op == 5:
                m.swap_levels(rng.randrange(n_vars - 1))
            else:
                cube = m.cube({rng.randrange(n_vars): True})
                live.append(rng.choice(live).exists_cube(cube))
            if len(live) > 12:
                # Drop handles so GC churn (deaths, resurrection, collect)
                # happens mid-sequence too.
                del live[rng.randrange(len(live))]
                if step % 9 == 0:
                    m.collect()
            m.check()
        m.collect()
        m.check()


class TestKernelDiscipline:
    def _stress(self, m, n_pairs=6, seed=7, cubes=18):
        rng = random.Random(seed)
        variables = [m.new_var() for _ in range(2 * n_pairs)]
        f = m.false
        for _ in range(cubes):
            cube = m.true
            for var in rng.sample(variables, rng.randint(3, 5)):
                lit = m.var(var) if rng.random() < 0.5 else m.nvar(var)
                cube = cube & lit
            f = f | cube
        return variables, f

    def test_one_sift_pass_performs_exactly_one_collect(self):
        m = BddManager()
        variables, f = self._stress(m)
        apply_order(
            m,
            [v for v in variables if v % 2 == 0]
            + [v for v in variables if v % 2 == 1],
        )
        before = m.collect_count
        sift(m)
        assert m.collect_count - before == 1
        assert f.size() > 0

    def test_sift_to_convergence_collects_once_per_pass_plus_setup(self):
        m = BddManager()
        variables, f = self._stress(m)
        apply_order(
            m,
            [v for v in variables if v % 2 == 0]
            + [v for v in variables if v % 2 == 1],
        )
        before_collects = m.collect_count
        before_swaps = m.swap_count
        sift_to_convergence(m)
        collects = m.collect_count - before_collects
        swaps = m.swap_count - before_swaps
        # O(1) per pass: thousands of swaps, a handful of collections.
        assert swaps > 50
        assert collects <= 10
        assert f.size() > 0

    def test_interaction_matrix_skips_non_interacting_swap(self):
        m = BddManager()
        for _ in range(4):
            m.new_var()
        f = m.var(0) & m.var(1)
        g = m.var(2) & m.var(3)
        interaction = m.interaction_pairs()
        assert (1, 2) not in interaction and (2, 1) not in interaction
        before = m.swap_skips
        m.swap_levels(1, interaction=interaction)  # x1 <-> x2: independent
        assert m.swap_skips == before + 1
        assert m.current_order() == [0, 2, 1, 3]
        assert f == m.var(0) & m.var(1)
        assert g == m.var(2) & m.var(3)
        m.check()

    def test_check_holds_after_reorder_and_gc_churn(self):
        rng = random.Random(808)
        m = BddManager()
        variables, f = self._stress(m)
        for step in range(60):
            m.swap_levels(rng.randrange(len(variables) - 1))
            if step % 17 == 0:
                m.collect()
            # Churn: temporaries born and dropped between swaps.
            a = m.var(rng.choice(variables)) ^ f
            del a
        m.collect()
        m.check()
        assert f.size() > 0

    def test_counters_and_metrics_export(self):
        m = BddManager()
        variables, f = self._stress(m)
        sift_to_convergence(m)
        counters = m.counters()
        for key in (
            "swaps",
            "swap_skips",
            "collects",
            "nodes_freed",
            "peak_nodes",
            "live_nodes",
            "dead_nodes",
            "ite_cache_hits",
            "ite_cache_misses",
            "restrict_cache_hits",
            "restrict_cache_misses",
            "quant_cache_hits",
            "quant_cache_misses",
            "cache_resets",
        ):
            assert key in counters, key
        assert f.size() > 0
