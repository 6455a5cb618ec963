"""Variable reordering by rebuilding.

Node ids in :class:`repro.bdd.manager.BDD` are canonical handles, so the
classic in-place adjacent-swap sifting would silently change the function
behind every outstanding id.  Instead, reordering here is *functional*: a new
manager is created with the desired variable order and the root functions are
transferred into it with :func:`copy_function`.  For the variable counts that
appear in decomposition work (bound sets of <= 10, z-spaces of <= 64) this is
fast enough and keeps the manager semantics simple.

:func:`sift` implements a greedy variant of Rudell's sifting on top of this:
each variable in turn is tried at every position and kept at the best one.
"""

from __future__ import annotations

from typing import Sequence

from repro.bdd.manager import BDD, FALSE, TRUE


def copy_function(src: BDD, u: int, dst: BDD, level_map: dict[int, int] | None = None) -> int:
    """Transfer the function rooted at ``u`` from ``src`` into ``dst``.

    ``level_map`` maps source levels to destination levels; by default levels
    map to themselves.  The destination order may be arbitrary -- the rebuild
    goes through ITE, which renormalizes.
    """
    if level_map is None:
        level_map = {lvl: lvl for lvl in range(src.num_vars)}
    cache: dict[int, int] = {}

    def walk(v: int) -> int:
        if v == TRUE or v == FALSE:
            return v
        hit = cache.get(v)
        if hit is not None:
            return hit
        lo = walk(src.low(v))
        hi = walk(src.high(v))
        lit = dst.var(level_map[src.level(v)])
        result = dst.ite(lit, hi, lo)
        cache[v] = result
        return result

    return walk(u)


def rebuild_with_order(src: BDD, roots: Sequence[int], order: Sequence[str]) -> tuple[BDD, list[int]]:
    """Rebuild ``roots`` in a fresh manager whose variable order is ``order``.

    ``order`` lists *all* variable names of ``src`` in the desired top-to-
    bottom order.  Returns the new manager and the transferred roots.
    """
    names = [src.var_name(lvl) for lvl in range(src.num_vars)]
    if sorted(order) != sorted(names):
        raise ValueError("order must be a permutation of the manager's variables")
    # Rebuild with the source's cache sizing so its stats stay comparable.
    dst = src.clone_empty()
    for name in order:
        dst.add_var(name)
    level_map = {src.level_of(name): dst.level_of(name) for name in order}
    new_roots = [copy_function(src, r, dst, level_map) for r in roots]
    return dst, new_roots


def total_size(bdd: BDD, roots: Sequence[int]) -> int:
    """Number of distinct nodes in the union of the root functions."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if not bdd.is_terminal(v):
            stack.append(bdd.low(v))
            stack.append(bdd.high(v))
    return len(seen)


class GrowthTrigger:
    """Node-growth trigger for automatic reordering (off unless armed).

    The engine arms the trigger with the manager's post-build allocation
    count; :meth:`should_fire` answers whether the manager has since grown
    past ``factor`` times that baseline.  After a reorder the engine re-arms
    with the new manager's size, so repeated growth keeps re-triggering.
    """

    def __init__(self, factor: float = 4.0) -> None:
        if factor <= 1.0:
            raise ValueError("reorder factor must exceed 1.0")
        self.factor = factor
        self.baseline: int | None = None

    def arm(self, nodes: int) -> None:
        """Record the reference allocation count (clamped to >= 1)."""
        self.baseline = max(int(nodes), 1)

    def should_fire(self, nodes: int) -> bool:
        """True when ``nodes`` crossed ``factor * baseline`` (armed only)."""
        return self.baseline is not None and nodes >= self.factor * self.baseline


def sift_groups(
    bdd: BDD, groups: Sequence[Sequence[int]], max_passes: int = 1
) -> tuple[BDD, list[list[int]], dict[int, int]] | None:
    """Sift over the union of several root lists at once.

    Returns ``(new_bdd, new_groups, level_map)`` with ``level_map`` sending
    source levels to destination levels, or ``None`` when no better order
    was found.  The input manager is never mutated, so callers can swap the
    new manager in atomically (the engine's between-group reorder hook).
    """
    flat = [r for g in groups for r in g]
    new_bdd, new_flat = sift(bdd, flat, max_passes=max_passes)
    if new_bdd is bdd:
        return None
    level_map = {
        bdd.level_of(new_bdd.var_name(lvl)): lvl
        for lvl in range(new_bdd.num_vars)
    }
    it = iter(new_flat)
    new_groups = [[next(it) for _ in g] for g in groups]
    return new_bdd, new_groups, level_map


def sift(bdd: BDD, roots: Sequence[int], max_passes: int = 1) -> tuple[BDD, list[int]]:
    """Greedy sifting: move each variable to its locally best position.

    Returns a (possibly new) manager and the corresponding roots.  The input
    manager is never mutated.
    """
    order = [bdd.var_name(lvl) for lvl in range(bdd.num_vars)]
    best_bdd, best_roots = bdd, list(roots)
    best_size = total_size(best_bdd, best_roots)
    for _ in range(max_passes):
        improved = False
        for name in list(order):
            base = [n for n in order if n != name]
            for pos in range(len(order)):
                candidate = base[:pos] + [name] + base[pos:]
                if candidate == order:
                    continue
                cand_bdd, cand_roots = rebuild_with_order(best_bdd, best_roots, candidate)
                cand_size = total_size(cand_bdd, cand_roots)
                if cand_size < best_size:
                    best_bdd, best_roots, best_size = cand_bdd, cand_roots, cand_size
                    order = candidate
                    improved = True
        if not improved:
            break
    return best_bdd, best_roots
