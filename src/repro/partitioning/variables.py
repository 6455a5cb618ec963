"""Bound-set selection (variable partitioning).

The paper solves variable partitioning with the heuristic of [15] (an
untranslated workshop paper); what matters for IMODEC is only the *quality
signal*: a bad bound set shows up as a large number ``p`` of global classes,
which by Property 1 lower-bounds the number of decomposition functions and
lets the decomposition be aborted early.

We therefore score a candidate bound set by the tuple
``(p, sum of local class counts)`` -- fewer global classes first, then fewer
local classes -- and search either exhaustively (small inputs) or greedily
(grow the bound set one variable at a time, keeping the best-scoring
extension).

Two scoring engines produce identical scores (see
:mod:`repro.partitioning.ttscore`): when every output's support fits in
``TT_MAX_VARS`` variables, candidates are scored with packed-truth-table
arithmetic; otherwise the generic BDD cofactoring path is used.  Candidate
enumeration order is fixed and ties always resolve to the earliest
candidate, so the chosen bound set does not depend on the engine.

Each BDD manager gets its own memo (``_memo_for``): the local classes the
truth-table scorer computed, and the result of every deterministic
:func:`choose_bound_set` call.  Both are keyed by values that fix the
answer -- packed tables, or node ids, which a manager never reuses -- so
an entry cannot go stale, and both die with the manager.
"""

from __future__ import annotations

import itertools
import random
import weakref
from typing import Literal, Sequence

from repro import observe
from repro.bdd.manager import BDD
from repro.decompose.compat import local_partition
from repro.decompose.partitions import Partition
from repro.errors import DecompositionError
from repro.partitioning.ttscore import (
    TT_MAX_VARS,
    ClassMemo,
    PreparedFn,
    ScoreContext,
    score_chunk,
)

Strategy = Literal["auto", "exhaustive", "greedy", "random"]

#: Maximum number of candidate bound sets evaluated exhaustively.
EXHAUSTIVE_BUDGET = 400


Scorer = Literal["compact", "shared"]

#: ``(f_nodes, input_levels, bound_size, strategy, scorer)`` -> the
#: ``(bs_levels, fs_levels)`` that :func:`choose_bound_set` returned.
ChoiceMemo = dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]]

_MEMOS: weakref.WeakKeyDictionary[BDD, tuple[ClassMemo, ChoiceMemo]] = (
    weakref.WeakKeyDictionary()
)


def _memo_for(bdd: BDD) -> tuple[ClassMemo, ChoiceMemo]:
    """The local-class and bound-set memos of ``bdd``, created on first use."""
    memo = _MEMOS.get(bdd)
    if memo is None:
        memo = _MEMOS[bdd] = ({}, {})
    return memo


def score_bound_set(
    bdd: BDD,
    f_nodes: Sequence[int],
    bs_levels: Sequence[int],
    scorer: Scorer = "compact",
) -> tuple[int, int, int]:
    """Score of a candidate bound set -- lower is better.

    The primary key is always the number p of global classes (Property 1:
    it lower-bounds the number of decomposition functions).  Two secondary
    orderings are offered, because multi-output vectors pull in opposite
    directions:

    - ``compact``: fewer total local classes first (small per-output
      codewidths); dependence only breaks ties.
    - ``shared``: more (output, bound variable) interactions first -- bound
      variables many outputs depend on enable sharing, whereas variables
      private to one output make the vector decompose as singletons.

    The flow tries both and keeps the better decomposition.
    """
    parts = [local_partition(bdd, f, bs_levels) for f in f_nodes]
    glob = Partition.product_all(parts)
    bs_set = set(bs_levels)
    dependence = sum(len(bdd.support(f) & bs_set) for f in f_nodes)
    total_classes = sum(p.num_blocks for p in parts)
    if scorer == "shared":
        return glob.num_blocks, -dependence, total_classes
    if scorer == "compact":
        return glob.num_blocks, total_classes, -dependence
    raise ValueError(f"unknown scorer {scorer!r}")


def _prepare_functions(
    bdd: BDD, f_nodes: Sequence[int]
) -> list[PreparedFn] | None:
    """Per-function packed truth tables for the fast path, or None if too big.

    Each function is tabulated over its *own* sorted support, so the fast
    path works for arbitrarily wide candidate scopes as long as every
    individual output fits ``TT_MAX_VARS`` variables.
    """
    fns: list[PreparedFn] = []
    for f in f_nodes:
        sup = tuple(sorted(bdd.support(f)))
        if len(sup) > TT_MAX_VARS:
            return None
        fns.append((bdd.to_truth_bits(f, sup), sup))
    return fns


def _best_candidate(
    fns: list[PreparedFn],
    combos: list[tuple[int, ...]],
    scorer: str,
    ctx: ScoreContext,
) -> int:
    """Index of the best-scoring combo (first minimum)."""
    result = score_chunk(fns, combos, scorer, ctx)
    if result is None:
        raise DecompositionError(
            "truth-table scoring returned no winner for a non-empty candidate set"
        )
    return result[1]


def choose_bound_set(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    strategy: Strategy = "auto",
    rng: random.Random | None = None,
    scorer: Scorer = "compact",
) -> tuple[list[int], list[int]]:
    """Pick a bound set of ``bound_size`` variables from ``input_levels``.

    Returns ``(bs_levels, fs_levels)``.  The free set is never empty: at
    most ``len(input_levels) - 1`` variables can be bound.  A repeated
    deterministic call on the same manager returns the memoized answer (as
    fresh lists); ``strategy="random"`` is never memoized.

    Recorded under a ``choose_bound_set`` span (candidates scored, scoring
    engine taken, memo hits, candidates pruned by the p-bound) when a
    tracer is installed; tracing never changes the chosen bound set.
    """
    levels = list(input_levels)
    n = len(levels)
    if not 1 <= bound_size < n:
        raise ValueError("need 1 <= bound_size < number of inputs")

    with observe.span("choose_bound_set"):
        class_memo, choices = _memo_for(bdd)
        key = (tuple(f_nodes), tuple(levels), bound_size, strategy, scorer)
        known = choices.get(key)  # never holds a strategy="random" call
        if known is not None:
            observe.add("bound_set_memo_hits")
            return list(known[0]), list(known[1])

        if strategy == "auto":
            num_candidates = _n_choose_k(n, bound_size)
            strategy = "exhaustive" if num_candidates <= EXHAUSTIVE_BUDGET else "greedy"

        fns = _prepare_functions(bdd, f_nodes) if strategy != "random" else None
        ctx = ScoreContext(fns, class_memo) if fns is not None else None
        if strategy != "random":
            observe.add("tt_fast_path" if fns is not None else "bdd_scoring_path")

        if strategy == "exhaustive":
            combos = list(itertools.combinations(levels, bound_size))
            observe.add("candidates_scored", len(combos))
            if ctx is not None:
                bs = list(combos[_best_candidate(fns, combos, scorer, ctx)])
            else:
                best = None
                best_score = None
                for combo in combos:
                    score = score_bound_set(bdd, f_nodes, combo, scorer)
                    if best_score is None or score < best_score:
                        best, best_score = list(combo), score
                if best is None:
                    raise DecompositionError(
                        "exhaustive bound-set search scored no candidate "
                        f"(n={n}, bound_size={bound_size})"
                    )
                bs = best
        elif strategy == "greedy":
            bs = []
            remaining = list(levels)
            while len(bs) < bound_size:
                observe.add("candidates_scored", len(remaining))
                if ctx is not None:
                    combos = [tuple(bs + [var]) for var in remaining]
                    best_var = remaining[_best_candidate(fns, combos, scorer, ctx)]
                else:
                    best_var = None
                    best_score = None
                    for var in remaining:
                        score = score_bound_set(bdd, f_nodes, bs + [var], scorer)
                        if best_score is None or score < best_score:
                            best_var, best_score = var, score
                    if best_var is None:
                        raise DecompositionError(
                            "greedy bound-set extension scored no candidate "
                            f"(n={n}, bound_size={bound_size})"
                        )
                bs.append(best_var)
                remaining.remove(best_var)
        elif strategy == "random":
            rng = rng or random.Random(0)
            bs = rng.sample(levels, bound_size)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

        if ctx is not None:
            if ctx.memo_hits:
                observe.add("local_class_memo_hits", ctx.memo_hits)
            if ctx.pruned:
                observe.add("candidates_pruned", ctx.pruned)

        bs_sorted = sorted(bs)
        fs = [lvl for lvl in levels if lvl not in set(bs_sorted)]
        if strategy != "random":
            choices[key] = (tuple(bs_sorted), tuple(fs))
        return bs_sorted, fs


def _n_choose_k(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result
