"""Output partitioning: grouping functions into vectors f (Section 7).

The paper's greedy heuristic, verbatim: initialize the vector with the
function having the most inputs; repeatedly combine the function sharing the
most inputs with the current vector and run a trial multiple-output
decomposition; if the *decomposition gain* (shared functions saved compared
to decomposing every output alone, ``sum c_k - q``) decreases, undo the
combination.  Repeat until no suitable function remains, then start the next
group with the leftovers.

Trial decompositions dominate the run time (the paper blames alu2's 902
seconds on exactly this); the ``max_group`` and ``max_globals`` caps are the
paper's "limit m" safety valve.  Property 1 (``q >= ceil(ld p)``) caps a
trial's gain once its bound set's ``p`` is known, so a trial that cannot
beat the group's current gain is skipped without changing the grouping
(``trial_gain``'s ``beat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import observe
from repro.bdd.manager import BDD
from repro.decompose.compat import codewidth, local_partition
from repro.decompose.partitions import Partition
from repro.imodec.decomposer import decompose_multi
from repro.imodec.globalpart import lower_bound_q
from repro.partitioning.variables import choose_bound_set


@dataclass
class TrialResult:
    """Outcome of a trial decomposition of one candidate group."""

    gain: int  # sum(c_k) - q
    num_globals: int


def solo_codewidth(
    bdd: BDD, f: int, input_levels: Sequence[int], bound_size: int
) -> int | None:
    """Codewidth of a single output with its *own* best bound set.

    None when the support is too small for a non-trivial decomposition.
    """
    support = bdd.support(f)
    usable = [lvl for lvl in input_levels if lvl in support]
    if len(usable) <= bound_size:
        return None
    bs, _ = choose_bound_set(bdd, [f], usable, bound_size)
    return codewidth(local_partition(bdd, f, bs).num_blocks)


def trial_gain(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    max_globals: int | None = None,
    solo_costs: Sequence[int] | None = None,
    beat: int | None = None,
) -> TrialResult | None:
    """Gain of decomposing the given vector together, against solo baselines.

    The gain is ``sum_k c_k(own bound set) - q(shared bound set)`` -- exactly
    the paper's "decomposition gain in comparison to single-output
    decomposition of each f_k".  A shared bound set that degrades the
    individual codewidths therefore shows up as a reduced or negative gain.
    Returns None when the vector is not worth decomposing together (support
    too small, or p explodes past ``max_globals`` -- the Property 1 abort).

    Property 1 (``q >= ceil(ld p)``) caps a scorer's gain at
    ``sum c_k - ceil(ld p)`` once its bound set is chosen.  The trial
    decomposition is skipped when that cap is ``<= beat`` (only gains
    above ``beat`` matter to the caller) or ``<=`` the gain an earlier
    scorer already reached (a tie keeps the earlier one).  The result is
    None or a gain ``<= beat`` exactly when the gain of running every
    trial is ``<= beat``, and the same :class:`TrialResult` otherwise.
    """
    supports = set()
    for f in f_nodes:
        supports |= bdd.support(f)
    usable = [lvl for lvl in input_levels if lvl in supports]
    if len(usable) <= bound_size:
        return None
    if solo_costs is None:
        maybe = [solo_codewidth(bdd, f, input_levels, bound_size) for f in f_nodes]
        if any(c is None for c in maybe):
            return None
        solo_costs = [c for c in maybe if c is not None]
    solo_total = sum(solo_costs)
    # Try both bound-set scorers (see repro.partitioning.variables) and keep
    # the better gain -- mirroring the flow's own dual attempt.
    best: TrialResult | None = None
    bar = beat  # a trial matters only if its gain can exceed this
    for scorer in ("compact", "shared") if len(f_nodes) > 1 else ("compact",):
        observe.add("trial_decompositions")
        bs, fs = choose_bound_set(bdd, f_nodes, usable, bound_size, scorer=scorer)
        parts = [local_partition(bdd, f, bs) for f in f_nodes]
        glob = Partition.product_all(parts)
        if max_globals is not None and glob.num_blocks > max_globals:
            continue
        if bar is not None and solo_total - lower_bound_q(glob.num_blocks) <= bar:
            observe.add("trials_pruned")
            continue
        # The trial decomposition itself (no g construction: only q needed).
        result = decompose_multi(bdd, list(f_nodes), bs, fs, build_g=False)
        gain = solo_total - result.num_functions
        candidate = TrialResult(gain=gain, num_globals=result.num_global_classes)
        if best is None or candidate.gain > best.gain:
            best = candidate
            bar = gain if bar is None else max(bar, gain)
    return best


def shared_inputs(bdd: BDD, f: int, group_support: set[int]) -> int:
    """Number of support variables ``f`` shares with the group."""
    return len(bdd.support(f) & group_support)


def partition_outputs_fast(
    bdd: BDD,
    f_nodes: Sequence[int],
    min_overlap: float = 0.5,
    max_group: int | None = None,
) -> list[list[int]]:
    """Trial-free output grouping (the paper's suggested future work).

    Section 7 attributes most of the CPU time to the greedy heuristic's
    trial decompositions and calls for "better output partitioning
    approaches with less trial decompositions".  This variant groups outputs
    purely by support similarity: a candidate joins the group when the
    Jaccard overlap between its support and the group's support union is at
    least ``min_overlap``.  No decompositions are run at all; quality is
    compared against the greedy heuristic in
    ``benchmarks/bench_ablation_output_partitioning.py``.
    """
    supports = [bdd.support(f) for f in f_nodes]
    remaining = list(range(len(f_nodes)))
    groups: list[list[int]] = []
    while remaining:
        seed = max(remaining, key=lambda k: len(supports[k]))
        remaining.remove(seed)
        group = [seed]
        union = set(supports[seed])
        while remaining:
            if max_group is not None and len(group) >= max_group:
                break
            best = None
            best_score = 0.0
            for k in remaining:
                if not supports[k]:
                    continue
                score = len(supports[k] & union) / len(supports[k] | union)
                if score > best_score:
                    best, best_score = k, score
            if best is None or best_score < min_overlap:
                break
            group.append(best)
            remaining.remove(best)
            union |= supports[best]
        groups.append(sorted(group))
    return groups


def partition_outputs(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    max_group: int | None = None,
    max_globals: int | None = 64,
) -> list[list[int]]:
    """Group output indices into decomposition vectors (the paper's heuristic).

    Recorded under a ``partition_outputs`` span (trial-decomposition counts,
    resulting group shapes) when a tracer is installed.
    """
    with observe.span("partition_outputs"):
        groups = _partition_outputs_impl(
            bdd, f_nodes, input_levels, bound_size, max_group, max_globals
        )
        observe.add("groups_formed", len(groups))
        observe.gauge("largest_group", max((len(g) for g in groups), default=0))
        return groups


def _partition_outputs_impl(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    max_group: int | None,
    max_globals: int | None,
) -> list[list[int]]:
    remaining = list(range(len(f_nodes)))
    solo: dict[int, int | None] = {
        k: solo_codewidth(bdd, f_nodes[k], input_levels, bound_size)
        for k in remaining
    }
    groups: list[list[int]] = []
    # outputs too small for decomposition stay alone
    for k in list(remaining):
        if solo[k] is None:
            groups.append([k])
            remaining.remove(k)
    while remaining:
        # seed: function with the maximum number of inputs
        seed = max(remaining, key=lambda k: len(bdd.support(f_nodes[k])))
        group = [seed]
        remaining.remove(seed)
        group_support = set(bdd.support(f_nodes[seed]))
        current_gain = 0  # solo decomposition of the seed has zero gain
        while remaining:
            if max_group is not None and len(group) >= max_group:
                break
            candidates = sorted(
                remaining,
                key=lambda k: shared_inputs(bdd, f_nodes[k], group_support),
                reverse=True,
            )
            candidate = candidates[0]
            if shared_inputs(bdd, f_nodes[candidate], group_support) == 0:
                break
            members = group + [candidate]
            trial = trial_gain(
                bdd,
                [f_nodes[k] for k in members],
                input_levels,
                bound_size,
                max_globals,
                solo_costs=[solo[k] for k in members],  # type: ignore[misc]
                beat=current_gain,
            )
            if trial is None or trial.gain <= current_gain:
                # the paper: if the gain decreased, the combination is undone
                break
            group.append(candidate)
            remaining.remove(candidate)
            group_support |= bdd.support(f_nodes[candidate])
            current_gain = trial.gain
        groups.append(sorted(group))
    return groups
