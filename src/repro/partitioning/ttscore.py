"""Truth-table fast path for bound-set scoring.

Bound-set search evaluates hundreds of candidate bound sets against the same
output functions.  The generic path cofactors BDDs one variable at a time --
``O(2^b)`` restrict walks per candidate per output.  When every output's
*own* support fits in ``TT_MAX_VARS`` variables (the candidate scope -- the
union of supports -- may be arbitrarily large), it is much cheaper to extract
each output's packed truth table once
(:meth:`repro.bdd.manager.BDD.to_truth_bits`) and score every candidate with
big-integer mask arithmetic: cofactoring a table is two shifts and two ANDs,
and comparing cofactors is integer equality.

The scores are *bit-identical* to the BDD path
(:func:`repro.partitioning.variables.score_bound_set`):

- Entry ``x`` of :func:`vertex_cofactor_keys` is the truth table of exactly
  the cofactor function that ``repro.decompose.compat.cofactor_map`` computes
  for bound-set vertex ``x``, restricted to the bound variables inside the
  function's support (variables outside it replicate cofactors and cannot
  split a class).  Table equality coincides with cofactor-BDD-node equality,
  so the number of distinct entries equals the local partition's block
  count, and the number of distinct across-output key combinations equals
  the global partition's block count.
- Candidates are enumerated in the same order and ties resolve to the first
  minimum, so the *chosen* bound set is identical too.

Two things keep the scan from repeating work, neither changing a score or
the winner:

- A :class:`ScoreContext` carries a local-class memo keyed by
  ``(table, arity, bound positions)``.  The key is the function's value, so
  the memo may outlive one scan and be shared by every scan on the same
  functions (``repro.partitioning.variables`` keeps one per BDD manager).
- The global partition refines every local partition, so ``p`` is at least
  the largest local class count of any function.  :func:`score_chunk`
  passes its best ``p`` so far, and :func:`score_combo` gives up on a
  candidate as soon as one local count exceeds it: that candidate loses on
  the primary key whatever its secondary keys are.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Sequence

from repro.bdd.manager import row_mask

#: Largest per-function support eligible for truth-table scoring.
#: 2^14 rows = 2 KiB per packed table; beyond that, BDD cofactoring wins.
TT_MAX_VARS = 14

#: One output function prepared for scoring: packed truth table (LSB-first
#: over the sorted support) plus the sorted support levels.
PreparedFn = tuple[int, tuple[int, ...]]

#: Local classes of one function at one set of bound positions:
#: ``(table, arity, positions) -> (dense class id per vertex, class count)``.
#: The id lists are shared between hits and must never be mutated.
ClassMemo = dict[tuple[int, int, tuple[int, ...]], tuple[list[int], int]]


def vertex_cofactor_keys(table: int, n: int, positions: Sequence[int]) -> list[int]:
    """Cofactor table of every vertex of a set of bound variables.

    ``table`` is packed LSB-first over ``n`` variables; ``positions`` are the
    bit positions (within the row index) of the bound variables.  Entry ``x``
    (bit ``j`` of ``x`` = value of ``positions[j]``, the ``cofactor_map``
    vertex convention) is the truth table of the cofactor at vertex ``x``,
    with the bound positions don't-care-replicated so that two entries are
    equal iff the cofactor *functions* are equal.
    """
    maps = [table]
    for j, pos in enumerate(positions):
        mask = row_mask(n, pos)
        inv = ~mask
        shift = 1 << pos
        nxt = [0] * (len(maps) * 2)
        for x, t in enumerate(maps):
            t0 = t & inv
            t0 |= t0 << shift
            t1 = t & mask
            t1 |= t1 >> shift
            nxt[x] = t0
            nxt[x | (1 << j)] = t1
        maps = nxt
    return maps


@functools.lru_cache(maxsize=1024)
def _spread(
    width: int, have: tuple[int, ...]
) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Getter spreading an array over vertex bits ``have`` to ``2^width`` vertices.

    Entry ``x`` of the input belongs to the vertex whose bit ``have[t]`` is
    bit ``t`` of ``x``; the other bits are don't-cares, so every vertex
    agreeing on ``have`` reads the same entry.  ``width >= 1``, so the getter
    always returns a tuple.
    """
    index = [
        sum(((v >> u) & 1) << t for t, u in enumerate(have)) for v in range(1 << width)
    ]
    return operator.itemgetter(*index)


class ScoreContext:
    """Reused lookups for scoring many candidates against the same functions.

    ``touched_by`` inverts the supports (level -> function indices), so a
    candidate only ever visits the functions it intersects -- in wide
    multi-output vectors most functions are disjoint from most candidates.
    ``memo`` holds the local classes already computed (a fresh dict unless
    the caller shares one); ``memo_hits`` and ``pruned`` count the
    expansions and candidates the memo and the p-bound saved.
    """

    def __init__(
        self, fns: Sequence[PreparedFn], memo: ClassMemo | None = None
    ) -> None:
        self.fns = fns
        self.pos_maps = [{lvl: i for i, lvl in enumerate(sup)} for _, sup in fns]
        self.touched_by: dict[int, list[int]] = {}
        for i, (_, sup) in enumerate(fns):
            for lvl in sup:
                self.touched_by.setdefault(lvl, []).append(i)
        self.memo: ClassMemo = {} if memo is None else memo
        self.memo_hits = 0
        self.pruned = 0

    def local_classes(
        self, table: int, n: int, positions: tuple[int, ...]
    ) -> tuple[list[int], int]:
        """Dense class id of every bound vertex, and the class count."""
        key = (table, n, positions)
        entry = self.memo.get(key)
        if entry is not None:
            self.memo_hits += 1
            return entry
        # Re-key the (large-integer) tables to small dense ids: one hash per
        # entry here instead of one per entry per use in the global fold.
        ids: dict[int, int] = {}
        keys = vertex_cofactor_keys(table, n, positions)
        id_arr = [ids.setdefault(k, len(ids)) for k in keys]
        entry = self.memo[key] = (id_arr, len(ids))
        return entry


def score_combo(
    fns: Sequence[PreparedFn],
    combo: Sequence[int],
    scorer: str,
    ctx: ScoreContext | None = None,
    max_p: int | None = None,
) -> tuple[int, int, int] | None:
    """Score one candidate bound set from per-function packed truth tables.

    Mirrors ``repro.partitioning.variables.score_bound_set``: the returned
    tuple is ``(p, total_classes, -dependence)`` for the ``compact`` scorer
    and ``(p, -dependence, total_classes)`` for ``shared``.  With ``max_p``
    given, returns None instead once some function's local class count --
    a lower bound on ``p`` -- exceeds it.

    A function disjoint from the candidate contributes a single local class
    and nothing to the global product, so only intersecting functions are
    expanded.  Each expansion works in the function's own compressed vertex
    space; for the global class count the per-function class-id arrays are
    spread over the union of the involved vertex bits only (:func:`_spread`)
    and the distinct per-vertex id tuples counted -- the remaining bits
    cannot split the product.
    """
    if ctx is None:
        ctx = ScoreContext(fns)
    pos_maps = ctx.pos_maps
    involved_idx: set[int] = set()
    touched_by = ctx.touched_by
    for lvl in combo:
        hit = touched_by.get(lvl)
        if hit:
            involved_idx.update(hit)
    total_classes = len(fns) - len(involved_idx)
    dependence = 0
    # (dense-id array over the function's compressed vertex space, class
    # count, vertex bits of the combo the function actually depends on)
    involved: list[tuple[list[int], int, list[int]]] = []
    for i in sorted(involved_idx):
        table, sup = fns[i]
        pos_of = pos_maps[i]
        js = [j for j, lvl in enumerate(combo) if lvl in pos_of]
        dependence += len(js)
        positions = tuple([pos_of[combo[j]] for j in js])
        id_arr, count = ctx.local_classes(table, len(sup), positions)
        if max_p is not None and count > max_p:
            ctx.pruned += 1
            return None
        total_classes += count
        if count > 1:
            involved.append((id_arr, count, js))
    if not involved:
        num_globals = 1
    elif len(involved) == 1:
        num_globals = involved[0][1]
    else:
        union = sorted({j for _, _, js in involved for j in js})
        u_of = {j: u for u, j in enumerate(union)}
        columns = [
            _spread(len(union), tuple(u_of[j] for j in js))(id_arr)
            for id_arr, _, js in involved
        ]
        num_globals = len(set(zip(*columns)))
    if scorer == "shared":
        return num_globals, -dependence, total_classes
    if scorer == "compact":
        return num_globals, total_classes, -dependence
    raise ValueError(f"unknown scorer {scorer!r}")


def score_chunk(
    fns: Sequence[PreparedFn],
    combos: Sequence[Sequence[int]],
    scorer: str,
    ctx: ScoreContext | None = None,
) -> tuple[tuple[int, int, int], int] | None:
    """Best ``(score, index)`` over ``combos``; None when there are none.

    Ties break toward the lowest index, as in a plain first-minimum scan.
    Each candidate is scored against the best ``p`` so far: one whose ``p``
    provably exceeds it cannot win, and ties on ``p`` are still scored in
    full, so the result equals that of the unpruned scan.
    """
    if ctx is None:
        ctx = ScoreContext(fns)
    best: tuple[tuple[int, int, int], int] | None = None
    for idx, combo in enumerate(combos):
        max_p = None if best is None else best[0][0]
        score = score_combo(fns, combo, scorer, ctx, max_p)
        if score is not None and (best is None or score < best[0]):
            best = (score, idx)
    return best
