"""Greedy common-divisor extraction across a network.

The extraction passes view every node cover in a *global literal space*
(signal name, polarity) so that divisors found in one node can be recognized
and substituted in any other.  Two kinds of divisors are extracted, exactly
as in MIS:

- multi-cube divisors: kernels, valued by the literals saved through weak
  division in every node that uses them;
- single-cube divisors: cubes of >= 2 literals occurring in many cubes.

Each pass extracts the best-valued divisor as a new node and rewrites the
users; passes repeat until no divisor has positive value.
"""

from __future__ import annotations

from repro.algebraic.division import algebraic_divide
from repro.algebraic.kernels import all_kernels
from repro.boolfunc.cube import Cube
from repro.boolfunc.sop import Sop
from repro.network.network import Network

GlobalLiteral = tuple[str, bool]
GlobalCube = frozenset[GlobalLiteral]


def node_to_global(network: Network, name: str) -> list[GlobalCube]:
    """Cover of a node as cubes over (signal name, polarity) literals."""
    node = network.nodes[name]
    out = []
    for cube in node.cover.cubes:
        out.append(
            frozenset((node.fanins[j], pol) for j, pol in cube.literals().items())
        )
    return out


def global_to_cover(cubes: list[GlobalCube]) -> tuple[list[str], Sop]:
    """Rebuild (fanins, local cover) from global cubes.

    A cube holding both polarities of one signal is constant 0 and is
    dropped: a node whose fanin list names a signal twice yields such
    cubes, and one local index per signal could not represent them.
    """
    cubes = [c for c in cubes if len({sig for sig, _ in c}) == len(c)]
    signals = sorted({sig for cube in cubes for sig, _ in cube})
    index = {sig: j for j, sig in enumerate(signals)}
    local = []
    for cube in cubes:
        local.append(Cube.from_literals(len(signals), {index[s]: p for s, p in cube}))
    return signals, Sop(len(signals), local)


def set_node_from_global(network: Network, name: str, cubes: list[GlobalCube]) -> None:
    """Replace a node's cover with one given in the global literal space."""
    unique = sorted(set(cubes), key=lambda s: (len(s), sorted(s)))
    signals, cover = global_to_cover(unique)
    network.replace_cover(name, signals, cover)


def _divisor_value(
    covers: dict[str, list[GlobalCube]], divisor: list[GlobalCube]
) -> int:
    """Literals saved network-wide by extracting ``divisor`` as a node."""
    d_lits = sum(len(c) for c in divisor)
    value = -d_lits  # cost of the new node's literals
    for cubes in covers.values():
        q, r = algebraic_divide(cubes, divisor)
        if not q:
            continue
        old = sum(len(c) for c in cubes)
        new = sum(len(c) for c in q) + len(q) + sum(len(c) for c in r)
        if new < old:
            value += old - new
    return value


def _substitute(
    network: Network,
    node_name: str,
    divisor: list[GlobalCube],
    new_signal: str,
) -> bool:
    """Rewrite one node as Q*new_signal + R if the division is non-trivial."""
    cubes = node_to_global(network, node_name)
    q, r = algebraic_divide(cubes, divisor)
    if not q:
        return False
    old = sum(len(c) for c in cubes)
    new = sum(len(c) for c in q) + len(q) + sum(len(c) for c in r)
    if new >= old:
        return False
    rewritten = [frozenset(qc | {(new_signal, True)}) for qc in q] + list(r)
    set_node_from_global(network, node_name, rewritten)
    return True


def extract_kernels(network: Network, max_passes: int = 50, max_node_cubes: int = 60) -> int:
    """Greedy kernel extraction; returns the number of new nodes created."""
    created = 0
    for _ in range(max_passes):
        covers = {name: node_to_global(network, name) for name in network.nodes}
        candidates: dict[tuple[GlobalCube, ...], list[GlobalCube]] = {}
        for name, cubes in covers.items():
            if not 2 <= len(cubes) <= max_node_cubes:
                continue
            for _, kernel in all_kernels(cubes):
                if len(kernel) < 2:
                    continue
                key = tuple(sorted(kernel, key=lambda s: (len(s), sorted(s))))
                candidates.setdefault(key, list(key))
        best_value = 0
        best: list[GlobalCube] | None = None
        for kernel in candidates.values():
            value = _divisor_value(covers, kernel)
            if value > best_value:
                best_value, best = value, kernel
        if best is None:
            break
        new_name = network.fresh_name("k")
        signals, cover = global_to_cover(best)
        network.add_node(new_name, signals, cover)
        for name in list(network.nodes):
            if name != new_name:
                _substitute(network, name, best, new_name)
        created += 1
    return created


def extract_cubes(network: Network, max_passes: int = 50) -> int:
    """Greedy single-cube (common-cube) extraction; returns new node count."""
    created = 0
    for _ in range(max_passes):
        covers = {name: node_to_global(network, name) for name in network.nodes}
        # candidate cubes: literal pairs that co-occur in >= 2 cubes
        pair_counts: dict[GlobalCube, int] = {}
        for cubes in covers.values():
            for cube in cubes:
                lits = sorted(cube)
                for i in range(len(lits)):
                    for j in range(i + 1, len(lits)):
                        key = frozenset({lits[i], lits[j]})
                        pair_counts[key] = pair_counts.get(key, 0) + 1
        best_value = 0
        best: GlobalCube | None = None
        for pair, count in pair_counts.items():
            if count < 2:
                continue
            # replacing the pair by one literal in `count` cubes saves
            # count*(|pair|-1) literals and costs the new node's |pair| literals
            value = count * (len(pair) - 1) - len(pair)
            if value > best_value:
                best_value, best = value, pair
        if best is None:
            break
        new_name = network.fresh_name("c")
        signals, cover = global_to_cover([best])
        network.add_node(new_name, signals, cover)
        for name in list(network.nodes):
            if name == new_name:
                continue
            cubes = node_to_global(network, name)
            rewritten = []
            changed = False
            for cube in cubes:
                if best <= cube:
                    rewritten.append(frozenset((cube - best) | {(new_name, True)}))
                    changed = True
                else:
                    rewritten.append(cube)
            if changed:
                set_node_from_global(network, name, rewritten)
        created += 1
    return created
