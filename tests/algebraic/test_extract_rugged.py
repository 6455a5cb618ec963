"""Unit tests for network-level extraction, eliminate, and the rugged script."""

from repro.algebraic.extract import (
    extract_cubes,
    extract_kernels,
    global_to_cover,
    node_to_global,
    set_node_from_global,
)
from repro.algebraic.rugged import eliminate, rugged, simplify_nodes
from repro.benchcircuits.synthetic import layered_circuit
from repro.boolfunc.sop import Sop
from repro.network.network import Network
from repro.network.simulate import equivalent
from repro.network.stats import network_stats
from repro.verify import check_equivalence


def shared_kernel_network():
    """Two outputs sharing the kernel (c + d): f = ac + ad, g = bc + bd."""
    net = Network("shared")
    for name in "abcd":
        net.add_input(name)
    net.add_node("f", ["a", "c", "d"], Sop.from_strings(3, ["11-", "1-1"]))
    net.add_node("g", ["b", "c", "d"], Sop.from_strings(3, ["11-", "1-1"]))
    net.set_outputs(["f", "g"])
    return net


class TestGlobalToCover:
    def test_drops_cube_with_both_polarities(self):
        contradictory = frozenset({("s", True), ("s", False)})
        kept = frozenset({("a", True), ("s", False)})
        signals, cover = global_to_cover([contradictory, kept])
        assert signals == ["a", "s"]
        assert cover.cubes == Sop.from_strings(2, ["10"]).cubes

    def test_all_cubes_contradictory_is_constant_zero(self):
        signals, cover = global_to_cover([frozenset({("s", True), ("s", False)})])
        assert signals == []
        assert cover.num_vars == 0
        assert cover.cubes == []

    def test_repeated_fanin_round_trip_keeps_function(self):
        # n = s * s' names fanin s twice: constant 0, not the literal s.
        net = Network("dup")
        for name in "as":
            net.add_input(name)
        net.add_node("n", ["s", "s"], Sop.from_strings(2, ["10"]))
        net.add_node("y", ["a", "n"], Sop.from_strings(2, ["1-", "-1"]))
        net.set_outputs(["y"])
        reference = net.copy()
        set_node_from_global(net, "n", node_to_global(net, "n"))
        assert net.nodes["n"].cover.cubes == []
        assert equivalent(net, reference)


class TestExtractKernels:
    def test_extracts_shared_kernel(self):
        net = shared_kernel_network()
        reference = net.copy()
        created = extract_kernels(net)
        assert created >= 1
        assert equivalent(net, reference)
        # both f and g should now read the new kernel node
        new_nodes = [n for n in net.nodes if n not in ("f", "g")]
        assert new_nodes
        users = [
            name
            for name in ("f", "g")
            if any(f in new_nodes for f in net.nodes[name].fanins)
        ]
        assert users == ["f", "g"]

    def test_rugged_on_repeated_fanin_circuit_stays_equivalent(self):
        # A kernel pass once rewrote a node whose cover n16*n16' is
        # constant 0 into n16*k142: global_to_cover kept only the last
        # polarity of the repeated fanin.
        net = layered_circuit("C5315_s0", 44, 33, seed=1556642017, depth=5)
        reference = net.copy()
        rugged(net)
        assert check_equivalence(reference, net).equivalent

    def test_no_extraction_when_nothing_shared(self):
        net = Network()
        for name in "ab":
            net.add_input(name)
        net.add_node("y", ["a", "b"], Sop.from_strings(2, ["11"]))
        net.set_outputs(["y"])
        assert extract_kernels(net) == 0


class TestExtractCubes:
    def test_extracts_common_cube(self):
        net = Network("cc")
        for name in "abcde":
            net.add_input(name)
        # cube ab appears in three cubes across two nodes
        net.add_node("f", ["a", "b", "c", "d"], Sop.from_strings(4, ["111-", "11-1"]))
        net.add_node("g", ["a", "b", "e"], Sop.from_strings(3, ["111"]))
        net.set_outputs(["f", "g"])
        reference = net.copy()
        created = extract_cubes(net)
        assert created >= 1
        assert equivalent(net, reference)


class TestEliminate:
    def test_eliminates_small_node(self):
        net = Network("el")
        for name in "abc":
            net.add_input(name)
        net.add_node("t", ["a", "b"], Sop.from_strings(2, ["11"]))
        net.add_node("y", ["t", "c"], Sop.from_strings(2, ["1-", "-1"]))
        net.set_outputs(["y"])
        reference = net.copy()
        assert eliminate(net) == 1
        assert "t" not in net.nodes
        assert equivalent(net, reference)

    def test_eliminate_negative_literal_uses_complement(self):
        net = Network("elneg")
        for name in "abc":
            net.add_input(name)
        net.add_node("t", ["a", "b"], Sop.from_strings(2, ["10", "01"]))  # a ^ b
        net.add_node("y", ["t", "c"], Sop.from_strings(2, ["01"]))  # ~t & c
        net.set_outputs(["y"])
        reference = net.copy()
        eliminate(net)
        assert equivalent(net, reference)

    def test_respects_support_cap(self):
        net = Network("cap")
        for i in range(6):
            net.add_input(f"i{i}")
        net.add_node(
            "t", [f"i{j}" for j in range(3)], Sop.from_strings(3, ["111", "000"])
        )
        net.add_node(
            "y",
            ["t"] + [f"i{j}" for j in range(3, 6)],
            Sop.from_strings(4, ["1---", "-111"]),
        )
        net.set_outputs(["y"])
        assert eliminate(net, max_support=2) == 0
        assert "t" in net.nodes


class TestSimplifyAndRugged:
    def test_simplify_reduces_literals(self):
        net = Network("simp")
        for name in "ab":
            net.add_input(name)
        # y = ab + a~b + ~ab == a + b
        net.add_node("y", ["a", "b"], Sop.from_strings(2, ["11", "10", "01"]))
        net.set_outputs(["y"])
        reference = net.copy()
        saved = simplify_nodes(net)
        assert saved > 0
        assert equivalent(net, reference)

    def test_simplify_drops_vacuous_fanins(self):
        net = Network("vac")
        for name in "ab":
            net.add_input(name)
        # y = ab + a~b == a; fanin b becomes vacuous
        net.add_node("y", ["a", "b"], Sop.from_strings(2, ["11", "10"]))
        net.set_outputs(["y"])
        simplify_nodes(net)
        assert net.nodes["y"].fanins == ["a"]

    def test_rugged_preserves_function(self):
        net = Network("rug")
        for i in range(6):
            net.add_input(f"x{i}")
        net.add_node(
            "f",
            [f"x{i}" for i in range(6)],
            Sop.from_strings(
                6, ["11--1-", "11---1", "--11--", "001-0-", "11-1--", "1-1-1-"]
            ),
        )
        net.add_node(
            "g",
            [f"x{i}" for i in range(6)],
            Sop.from_strings(6, ["11--1-", "11---1", "--0011"]),
        )
        net.set_outputs(["f", "g"])
        reference = net.copy()
        rugged(net)
        assert equivalent(net, reference)

    def test_rugged_reduces_flat_pla_support(self):
        """After rugged, a structured flat PLA has nodes with smaller support."""
        net = Network("flat")
        for i in range(8):
            net.add_input(f"x{i}")
        rows_f = ["11------", "--11----", "----11--", "------11"]
        rows_g = ["11------", "--11----", "----1-1-"]
        net.add_node("f", [f"x{i}" for i in range(8)], Sop.from_strings(8, rows_f))
        net.add_node("g", [f"x{i}" for i in range(8)], Sop.from_strings(8, rows_g))
        net.set_outputs(["f", "g"])
        reference = net.copy()
        rugged(net)
        assert equivalent(net, reference)
        stats = network_stats(net)
        assert stats.num_nodes >= 2
