"""Unit tests for the BDD manager core."""

import pytest

from repro.bdd.manager import BDD, FALSE, TRUE


@pytest.fixture
def bdd3():
    bdd = BDD()
    x = bdd.add_var("x")
    y = bdd.add_var("y")
    z = bdd.add_var("z")
    return bdd, x, y, z


class TestVariables:
    def test_add_var_returns_positive_literal(self, bdd3):
        bdd, x, _, _ = bdd3
        assert bdd.level(x) == 0
        assert bdd.low(x) == FALSE
        assert bdd.high(x) == TRUE

    def test_duplicate_name_rejected(self):
        bdd = BDD()
        bdd.add_var("a")
        with pytest.raises(ValueError):
            bdd.add_var("a")

    def test_var_nvar_literals(self, bdd3):
        bdd, x, _, _ = bdd3
        assert bdd.var(0) == x
        nx = bdd.nvar(0)
        assert bdd.low(nx) == TRUE and bdd.high(nx) == FALSE
        assert bdd.literal(0, True) == x
        assert bdd.literal(0, False) == nx

    def test_unknown_level_raises(self, bdd3):
        bdd, *_ = bdd3
        with pytest.raises(ValueError):
            bdd.var(17)

    def test_names_round_trip(self, bdd3):
        bdd, *_ = bdd3
        assert bdd.var_name(1) == "y"
        assert bdd.level_of("z") == 2

    def test_add_vars_bulk(self):
        bdd = BDD()
        lits = bdd.add_vars(4, prefix="z")
        assert len(lits) == 4
        assert bdd.var_name(2) == "z2"


class TestCanonicity:
    def test_same_function_same_node(self, bdd3):
        bdd, x, y, _ = bdd3
        f1 = bdd.apply_or(x, y)
        f2 = bdd.apply_not(bdd.apply_and(bdd.apply_not(x), bdd.apply_not(y)))
        assert f1 == f2

    def test_reduction_no_redundant_node(self, bdd3):
        bdd, x, y, _ = bdd3
        # x & y | x & ~y == x
        f = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(x, bdd.apply_not(y)))
        assert f == x

    def test_constants(self, bdd3):
        bdd, x, _, _ = bdd3
        assert bdd.apply_and(x, bdd.apply_not(x)) == FALSE
        assert bdd.apply_or(x, bdd.apply_not(x)) == TRUE

    def test_xor_xnor_complement(self, bdd3):
        bdd, x, y, _ = bdd3
        assert bdd.apply_xnor(x, y) == bdd.apply_not(bdd.apply_xor(x, y))


class TestIte:
    def test_ite_terminal_cases(self, bdd3):
        bdd, x, y, _ = bdd3
        assert bdd.ite(TRUE, x, y) == x
        assert bdd.ite(FALSE, x, y) == y
        assert bdd.ite(x, y, y) == y
        assert bdd.ite(x, TRUE, FALSE) == x

    def test_ite_matches_formula_exhaustive(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.ite(x, y, z)
        for row in range(8):
            env = {0: bool(row & 1), 1: bool(row & 2), 2: bool(row & 4)}
            expected = env[1] if env[0] else env[2]
            assert bdd.eval(f, env) == expected


class TestOperations:
    def test_conjoin_disjoin_empty(self, bdd3):
        bdd, *_ = bdd3
        assert bdd.conjoin([]) == TRUE
        assert bdd.disjoin([]) == FALSE

    def test_conjoin_short_circuit(self, bdd3):
        bdd, x, y, _ = bdd3
        assert bdd.conjoin([x, bdd.apply_not(x), y]) == FALSE

    def test_implies(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_implies(x, y)
        assert bdd.eval(f, {0: True, 1: False}) is False
        assert bdd.eval(f, {0: False, 1: False}) is True


class TestCofactorRestrict:
    def test_cofactor_of_literal(self, bdd3):
        bdd, x, _, _ = bdd3
        assert bdd.cofactor(x, 0, True) == TRUE
        assert bdd.cofactor(x, 0, False) == FALSE

    def test_restrict_multi(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_or(bdd.apply_and(x, y), z)
        g = bdd.restrict(f, {0: True, 2: False})
        assert g == y

    def test_restrict_empty_is_identity(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_and(x, y)
        assert bdd.restrict(f, {}) == f


class TestQuantification:
    def test_exists_removes_variable(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_and(x, y)
        assert bdd.exists(f, [0]) == y

    def test_exists_or_semantics(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(bdd.apply_not(x), z))
        assert bdd.exists(f, [0]) == bdd.apply_or(y, z)

    def test_forall_and_semantics(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(bdd.apply_not(x), z))
        assert bdd.forall(f, [0]) == bdd.apply_and(y, z)

    def test_quantify_all_support_gives_constant(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_and(x, y)
        assert bdd.exists(f, [0, 1]) == TRUE
        assert bdd.forall(f, [0, 1]) == FALSE


class TestCompose:
    def test_compose_substitutes(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_and(x, y)
        g = bdd.compose(f, {0: z})
        assert g == bdd.apply_and(z, y)

    def test_compose_simultaneous(self, bdd3):
        bdd, x, y, _ = bdd3
        # swap x and y simultaneously in x & ~y
        f = bdd.apply_and(x, bdd.apply_not(y))
        swapped = bdd.compose(f, {0: y, 1: x})
        assert swapped == bdd.apply_and(y, bdd.apply_not(x))

    def test_rename(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_or(x, y)
        g = bdd.rename(f, {0: 2})
        assert g == bdd.apply_or(z, y)


class TestSupportEval:
    def test_support(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(x, bdd.apply_not(y)))
        assert bdd.support(f) == {0}
        g = bdd.apply_xor(y, z)
        assert bdd.support(g) == {1, 2}

    def test_eval_all_rows(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_xor(bdd.apply_and(x, y), z)
        for row in range(8):
            env = {0: bool(row & 1), 1: bool(row & 2), 2: bool(row & 4)}
            assert bdd.eval(f, env) == ((env[0] and env[1]) != env[2])


class TestSat:
    def test_sat_one_none_for_false(self, bdd3):
        bdd, *_ = bdd3
        assert bdd.sat_one(FALSE) is None

    def test_sat_one_satisfies(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.apply_and(bdd.apply_and(x, bdd.apply_not(y)), z)
        model = bdd.sat_one(f)
        assert model is not None
        assert bdd.eval(f, model)

    def test_iter_sat_enumerates_minterms(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_or(x, y)
        models = list(bdd.iter_sat(f, [0, 1]))
        assert len(models) == 3
        assert all(bdd.eval(f, m) for m in models)

    def test_iter_sat_scope_must_cover_support(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_and(x, y)
        with pytest.raises(ValueError):
            list(bdd.iter_sat(f, [0]))

    def test_iter_sat_pads_free_variables(self, bdd3):
        bdd, x, _, _ = bdd3
        models = list(bdd.iter_sat(x, [0, 1, 2]))
        assert len(models) == 4


class TestCubesMinterms:
    def test_cube_conjunction(self, bdd3):
        bdd, x, y, z = bdd3
        c = bdd.cube({0: True, 2: False})
        assert c == bdd.apply_and(x, bdd.apply_not(z))

    def test_minterm(self, bdd3):
        bdd, *_ = bdd3
        m = bdd.minterm([0, 1, 2], [True, False, True])
        assert bdd.eval(m, {0: True, 1: False, 2: True})
        assert not bdd.eval(m, {0: True, 1: True, 2: True})

    def test_minterm_length_mismatch(self, bdd3):
        bdd, *_ = bdd3
        with pytest.raises(ValueError):
            bdd.minterm([0, 1], [True])


class TestTruthBits:
    def test_round_trip_3vars(self, bdd3):
        bdd, *_ = bdd3
        bits = 0b10010110  # parity of 3 vars
        f = bdd.from_truth_bits(bits, [0, 1, 2])
        assert bdd.to_truth_bits(f, [0, 1, 2]) == bits

    def test_from_truth_bits_respects_level_order(self, bdd3):
        bdd, x, y, _ = bdd3
        # table over [level1, level0]: row bit0 -> y, bit1 -> x; f = y & ~x
        bits = 0b0010  # only row 1 (y=1, x=0)
        f = bdd.from_truth_bits(bits, [1, 0])
        assert f == bdd.apply_and(y, bdd.apply_not(x))

    def test_to_truth_bits_requires_scope(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_and(x, y)
        with pytest.raises(ValueError):
            bdd.to_truth_bits(f, [0])

    def test_duplicate_levels_rejected(self, bdd3):
        bdd, *_ = bdd3
        with pytest.raises(ValueError):
            bdd.from_truth_bits(0b1010, [0, 0])

    def test_zero_vars(self, bdd3):
        bdd, *_ = bdd3
        assert bdd.from_truth_bits(1, []) == TRUE
        assert bdd.from_truth_bits(0, []) == FALSE


class TestSizes:
    def test_size_counts_nodes(self, bdd3):
        bdd, x, y, z = bdd3
        f = bdd.conjoin([x, y, z])
        # chain of 3 internal nodes + 2 terminals
        assert bdd.size(f) == 5

    def test_terminal_size(self, bdd3):
        bdd, *_ = bdd3
        assert bdd.size(TRUE) == 1

    def test_clear_caches_keeps_results_valid(self, bdd3):
        bdd, x, y, _ = bdd3
        f = bdd.apply_and(x, y)
        bdd.clear_caches()
        assert bdd.apply_and(x, y) == f


class TestCloneEmpty:
    def test_clone_empty_keeps_cache_limit_drops_vars(self):
        src = BDD(1 << 8)
        src.add_var("a")
        clone = src.clone_empty()
        assert isinstance(clone, BDD)
        assert clone.num_vars == 0
        assert clone._cache_limit == 1 << 8
