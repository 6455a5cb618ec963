"""Unit tests for rebuild-based variable reordering."""

import pytest

from repro.bdd.manager import BDD
from repro.bdd.reorder import (
    GrowthTrigger,
    copy_function,
    rebuild_with_order,
    sift,
    sift_groups,
    total_size,
)


def interleaved_worst_case():
    """(a0&b0) | (a1&b1) | (a2&b2) with the bad interleaving a0,a1,a2,b0,b1,b2."""
    bdd = BDD()
    a = [bdd.add_var(f"a{i}") for i in range(3)]
    b = [bdd.add_var(f"b{i}") for i in range(3)]
    f = bdd.disjoin(bdd.apply_and(a[i], b[i]) for i in range(3))
    return bdd, f


class TestCopyFunction:
    def test_identity_copy_preserves_semantics(self):
        bdd, f = interleaved_worst_case()
        dst = BDD()
        for i in range(bdd.num_vars):
            dst.add_var(bdd.var_name(i))
        g = copy_function(bdd, f, dst)
        for row in range(64):
            env = {i: bool((row >> i) & 1) for i in range(6)}
            assert bdd.eval(f, env) == dst.eval(g, env)


class TestRebuild:
    def test_good_order_shrinks_and_function(self):
        bdd, f = interleaved_worst_case()
        good = ["a0", "b0", "a1", "b1", "a2", "b2"]
        dst, (g,) = rebuild_with_order(bdd, [f], good)
        assert total_size(dst, [g]) < total_size(bdd, [f])
        # semantics preserved under the name mapping
        for row in range(64):
            env_src = {bdd.level_of(n): bool((row >> i) & 1) for i, n in enumerate(good)}
            env_dst = {dst.level_of(n): bool((row >> i) & 1) for i, n in enumerate(good)}
            assert bdd.eval(f, env_src) == dst.eval(g, env_dst)

    def test_rejects_non_permutation(self):
        bdd, f = interleaved_worst_case()
        with pytest.raises(ValueError):
            rebuild_with_order(bdd, [f], ["a0", "a1"])


class TestSift:
    def test_sift_never_grows(self):
        bdd, f = interleaved_worst_case()
        before = total_size(bdd, [f])
        new_bdd, (g,) = sift(bdd, [f])
        assert total_size(new_bdd, [g]) <= before

    def test_sift_finds_linear_order_for_interleaved(self):
        bdd, f = interleaved_worst_case()
        new_bdd, (g,) = sift(bdd, [f])
        # optimal order gives 8 nodes (6 internal + 2 terminals)
        assert total_size(new_bdd, [g]) == 8


class TestGrowthTrigger:
    def test_unarmed_never_fires(self):
        assert not GrowthTrigger(2.0).should_fire(10**9)

    def test_fires_past_factor(self):
        trigger = GrowthTrigger(2.0)
        trigger.arm(100)
        assert not trigger.should_fire(199)
        assert trigger.should_fire(200)

    def test_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            GrowthTrigger(1.0)

    def test_sift_groups_remaps_consistently(self):
        # Interleaved AND-pairs: identity order is quadratic, the sifted
        # order linear -- so sift_groups must actually swap managers.
        bdd = BDD()
        for i in range(6):
            bdd.add_var(f"x{i}")
        f = bdd.apply_or(
            bdd.apply_or(
                bdd.apply_and(bdd.var(0), bdd.var(3)),
                bdd.apply_and(bdd.var(1), bdd.var(4)),
            ),
            bdd.apply_and(bdd.var(2), bdd.var(5)),
        )
        g = bdd.apply_not(f)
        sifted = sift_groups(bdd, [[f], [g]])
        assert sifted is not None
        new_bdd, new_groups, level_map = sifted
        assert new_bdd is not bdd
        assert sorted(level_map) == list(range(6))
        (nf,), (ng,) = new_groups
        assert new_bdd.size(nf) < bdd.size(f)
        # Semantics are preserved under the level remap.
        old_bits = bdd.to_truth_bits(f, list(range(6)))
        new_levels = [level_map[l] for l in range(6)]
        assert new_bdd.to_truth_bits(nf, new_levels) == old_bits
        assert new_bdd.apply_not(nf) == ng
