"""Exactness of bound-set scoring's memo and pruning.

The per-manager memos and the p-bound only skip work: on seeded random
multi-output vectors, the chosen bound set must equal a brute-force scan
with the BDD oracle (``score_bound_set``), a warm manager must answer
exactly like a fresh one, and the pruned ``score_chunk`` must return the
same ``(score, index)`` as an unpruned first-minimum scan.
"""

import gc
import itertools
import random
import weakref

import pytest

from repro import observe
from repro.bdd.manager import BDD
from repro.observe import Tracer
from repro.partitioning.ttscore import ScoreContext, score_chunk, score_combo
from repro.partitioning.variables import choose_bound_set, score_bound_set


def random_specs(n_vars, n_outs, rng):
    """Truth-table specs of random outputs, some over sub-supports."""
    specs = []
    for _ in range(n_outs):
        k = rng.randint(2, n_vars)
        levels = sorted(rng.sample(range(n_vars), k))
        specs.append((rng.getrandbits(1 << k), levels))
    return specs


def build(n_vars, specs):
    bdd = BDD()
    bdd.add_vars(n_vars)
    return bdd, [bdd.from_truth_bits(bits, levels) for bits, levels in specs]


def oracle_choice(bdd, nodes, levels, bound, strategy, scorer):
    """First-minimum search with the BDD oracle, in the enumeration order."""
    if strategy == "exhaustive":
        best = min(
            itertools.combinations(levels, bound),
            key=lambda c: score_bound_set(bdd, nodes, list(c), scorer),
        )
        return sorted(best)
    bs = []
    remaining = list(levels)
    while len(bs) < bound:
        var = min(
            remaining, key=lambda v: score_bound_set(bdd, nodes, bs + [v], scorer)
        )
        bs.append(var)
        remaining.remove(var)
    return sorted(bs)


def counters_of(tracer):
    return tracer.root.children["choose_bound_set"].counters


@pytest.mark.parametrize("scorer", ["compact", "shared"])
@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_choice_equals_bdd_oracle_minimum(strategy, scorer):
    rng = random.Random(20261017)
    pruned = 0
    for trial in range(6):
        n_vars = rng.randint(5, 8)
        bdd, nodes = build(n_vars, random_specs(n_vars, rng.randint(1, 4), rng))
        levels = list(range(n_vars))
        bound = rng.randint(2, n_vars - 2)
        tracer = Tracer()
        with observe.tracing(tracer):
            bs, fs = choose_bound_set(
                bdd, nodes, levels, bound, strategy=strategy, scorer=scorer
            )
        pruned += counters_of(tracer).get("candidates_pruned", 0)
        expected = oracle_choice(bdd, nodes, levels, bound, strategy, scorer)
        assert bs == expected, f"trial {trial}: {bs} != {expected}"
        assert fs == [lvl for lvl in levels if lvl not in expected]
    assert pruned > 0  # the p-bound was exercised, not just tolerated


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_warm_manager_matches_fresh(strategy):
    rng = random.Random(20260806)
    n_vars = 8
    specs = random_specs(n_vars, 6, rng)
    warm, warm_nodes = build(n_vars, specs)
    # (output indices, bound size) queries; repeats and overlapping vectors
    # interleave so later calls run against memos the earlier ones filled.
    queries = [(rng.sample(range(6), rng.randint(1, 4)), rng.randint(2, 5))
               for _ in range(8)]
    queries += queries[::2] + queries[:3]
    tracer = Tracer()
    with observe.tracing(tracer):
        for picks, bound in queries:
            got = choose_bound_set(
                warm, [warm_nodes[i] for i in picks], list(range(n_vars)), bound,
                strategy=strategy,
            )
            fresh, fresh_nodes = build(n_vars, specs)
            want = choose_bound_set(
                fresh, [fresh_nodes[i] for i in picks], list(range(n_vars)), bound,
                strategy=strategy,
            )
            assert got == want, f"{picks}, bound {bound}: {got} != {want}"
            got[0].append(-1)  # callers own the lists: a hit must not see this
    counters = counters_of(tracer)
    assert counters["bound_set_memo_hits"] >= len(queries) - 8
    assert counters["local_class_memo_hits"] > 0


def test_random_strategy_is_never_memoized():
    rng = random.Random(4)
    bdd, nodes = build(8, random_specs(8, 2, rng))
    picks = {
        tuple(choose_bound_set(bdd, nodes, list(range(8)), 3, strategy="random",
                               rng=random.Random(seed))[0])
        for seed in range(12)
    }
    assert len(picks) > 1


def test_memo_dies_with_its_manager():
    rng = random.Random(9)
    bdd, nodes = build(7, random_specs(7, 3, rng))
    choose_bound_set(bdd, nodes, list(range(7)), 3)
    ref = weakref.ref(bdd)
    del bdd, nodes
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("scorer", ["compact", "shared"])
def test_pruned_chunk_matches_full_scan(scorer):
    rng = random.Random(17)
    pruned = 0
    for _ in range(10):
        n_vars = rng.randint(5, 9)
        bdd, nodes = build(n_vars, random_specs(n_vars, rng.randint(1, 5), rng))
        fns = [
            (bdd.to_truth_bits(f, sorted(bdd.support(f))), tuple(sorted(bdd.support(f))))
            for f in nodes
        ]
        combos = list(itertools.combinations(range(n_vars), rng.randint(2, n_vars - 1)))
        full = min((score_combo(fns, c, scorer), i) for i, c in enumerate(combos))
        ctx = ScoreContext(fns)
        assert score_chunk(fns, combos, scorer, ctx) == full
        pruned += ctx.pruned
    assert pruned > 0
