"""Unit tests for the greedy output-partitioning heuristic."""

import random

from repro import observe
from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.compat import codewidth, local_partition
from repro.decompose.partitions import Partition
from repro.imodec.decomposer import decompose_multi
from repro.imodec.globalpart import lower_bound_q
from repro.observe import Tracer
from repro.partitioning.outputs import (
    TrialResult,
    partition_outputs,
    shared_inputs,
    trial_gain,
)
from repro.partitioning.variables import choose_bound_set


def build(tables):
    bdd = BDD()
    n = tables[0].num_vars
    for i in range(n):
        bdd.add_var(f"x{i}")
    return bdd, [t.to_bdd(bdd, list(range(n))) for t in tables]


def ones_count_tables(n, bits):
    """Outputs = binary ones-count of n inputs (rd-style, highly shared)."""
    return [
        TruthTable.from_function(n, lambda *xs, b=b: (sum(xs) >> b) & 1)
        for b in range(bits)
    ]


class TestTrialGain:
    def test_rd_style_vector_has_positive_gain(self):
        tables = ones_count_tables(5, 3)
        bdd, nodes = build(tables)
        trial = trial_gain(bdd, nodes, list(range(5)), 4)
        assert trial is not None
        assert trial.gain > 0

    def test_small_support_returns_none(self):
        t = TruthTable.from_function(5, lambda a, b, c, d, e: a and b)
        bdd, nodes = build([t])
        assert trial_gain(bdd, nodes, list(range(5)), 4) is None

    def test_max_globals_abort(self):
        import random

        rng = random.Random(1)
        tables = [TruthTable.random(6, rng) for _ in range(3)]
        bdd, nodes = build(tables)
        assert trial_gain(bdd, nodes, list(range(6)), 4, max_globals=2) is None


def random_vector_tables(rng):
    """A random vector, or (one time in three) an rd-style one with real gain."""
    n = rng.randint(5, 7)
    if rng.random() < 1 / 3:
        return n, ones_count_tables(n, rng.randint(2, 3))
    return n, [TruthTable.random(n, rng) for _ in range(rng.randint(2, 3))]


class TestPropertyOneTrialSkip:
    def test_trial_decomposition_meets_lower_bound(self):
        rng = random.Random(20261017)
        for _ in range(25):
            n, tables = random_vector_tables(rng)
            bdd, nodes = build(tables)
            bs = sorted(rng.sample(range(n), rng.randint(2, n - 2)))
            fs = [lvl for lvl in range(n) if lvl not in bs]
            p = Partition.product_all(
                [local_partition(bdd, f, bs) for f in nodes]
            ).num_blocks
            result = decompose_multi(bdd, nodes, bs, fs, build_g=False)
            assert result.num_global_classes == p
            assert result.num_functions >= lower_bound_q(p)

    def test_skipped_trials_never_change_the_result(self):
        rng = random.Random(13)
        pruned = kept = 0
        for _ in range(20):
            n, tables = random_vector_tables(rng)
            bound = rng.randint(2, min(4, n - 2))
            full = unpruned_trial_gain(*build(tables), list(range(n)), bound)
            for beat in (None, -1, 0, 1, 2, 3):
                bdd, nodes = build(tables)
                tracer = Tracer()
                with observe.tracing(tracer), observe.span("trial"):
                    got = trial_gain(bdd, nodes, list(range(n)), bound, beat=beat)
                pruned += tracer.root.children["trial"].counters.get("trials_pruned", 0)
                if beat is not None and (full is None or full.gain <= beat):
                    assert got is None or got.gain <= beat
                else:
                    assert got == full
                    kept += 1
        assert pruned > 0 and kept > 0


def unpruned_trial_gain(bdd, nodes, levels, bound):
    """``trial_gain`` with every trial decomposition run (the oracle)."""
    union = set().union(*(bdd.support(f) for f in nodes))
    usable = [lvl for lvl in levels if lvl in union]
    solo_total = 0
    for f in nodes:
        own = [lvl for lvl in levels if lvl in bdd.support(f)]
        if len(own) <= bound:
            return None
        bs, _ = choose_bound_set(bdd, [f], own, bound)
        solo_total += codewidth(local_partition(bdd, f, bs).num_blocks)
    best = None
    for scorer in ("compact", "shared"):
        bs, fs = choose_bound_set(bdd, nodes, usable, bound, scorer=scorer)
        result = decompose_multi(bdd, nodes, bs, fs, build_g=False)
        gain = solo_total - result.num_functions
        if best is None or gain > best.gain:
            best = TrialResult(gain=gain, num_globals=result.num_global_classes)
    return best


class TestSharedInputs:
    def test_counts_overlap(self):
        t1 = TruthTable.from_function(4, lambda a, b, c, d: a ^ b)
        t2 = TruthTable.from_function(4, lambda a, b, c, d: b ^ c)
        bdd, nodes = build([t1, t2])
        assert shared_inputs(bdd, nodes[1], bdd.support(nodes[0])) == 1


class TestPartitionOutputs:
    def test_related_outputs_grouped(self):
        tables = ones_count_tables(5, 3)
        bdd, nodes = build(tables)
        groups = partition_outputs(bdd, nodes, list(range(5)), 4)
        # the ones-count outputs share everything; expect one big group
        assert any(len(g) >= 2 for g in groups)
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1, 2]

    def test_unrelated_outputs_not_grouped(self):
        # disjoint supports: no shared inputs -> singleton groups
        t1 = TruthTable.from_function(8, lambda *xs: (xs[0] + xs[1] + xs[2] + xs[3]) % 2 == 1)
        t2 = TruthTable.from_function(8, lambda *xs: (xs[4] + xs[5] + xs[6] + xs[7]) >= 2)
        bdd, nodes = build([t1, t2])
        groups = partition_outputs(bdd, nodes, list(range(8)), 3)
        assert sorted(map(len, groups)) == [1, 1]

    def test_max_group_cap(self):
        tables = ones_count_tables(6, 3)
        bdd, nodes = build(tables)
        groups = partition_outputs(bdd, nodes, list(range(6)), 4, max_group=1)
        assert all(len(g) == 1 for g in groups)

    def test_every_output_in_exactly_one_group(self):
        import random

        rng = random.Random(2)
        tables = [TruthTable.random(6, rng) for _ in range(4)]
        bdd, nodes = build(tables)
        groups = partition_outputs(bdd, nodes, list(range(6)), 4)
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1, 2, 3]


class TestPartitionOutputsFast:
    def test_related_outputs_grouped_without_trials(self):
        from repro.partitioning.outputs import partition_outputs_fast

        tables = ones_count_tables(5, 3)
        bdd, nodes = build(tables)
        groups = partition_outputs_fast(bdd, nodes)
        assert groups == [[0, 1, 2]]

    def test_disjoint_supports_stay_apart(self):
        from repro.partitioning.outputs import partition_outputs_fast

        t1 = TruthTable.from_function(8, lambda *xs: (xs[0] + xs[1] + xs[2]) % 2 == 1)
        t2 = TruthTable.from_function(8, lambda *xs: (xs[5] + xs[6] + xs[7]) >= 2)
        bdd, nodes = build([t1, t2])
        groups = partition_outputs_fast(bdd, nodes)
        assert sorted(map(len, groups)) == [1, 1]

    def test_max_group_cap(self):
        from repro.partitioning.outputs import partition_outputs_fast

        tables = ones_count_tables(6, 3)
        bdd, nodes = build(tables)
        groups = partition_outputs_fast(bdd, nodes, max_group=2)
        assert max(map(len, groups)) <= 2

    def test_constant_outputs_are_singletons(self):
        from repro.partitioning.outputs import partition_outputs_fast

        t1 = TruthTable.constant(4, True)
        t2 = TruthTable.from_function(4, lambda *xs: sum(xs) >= 2)
        bdd, nodes = build([t1, t2])
        groups = partition_outputs_fast(bdd, nodes)
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1]
