"""Tests for Elmore delay trees and repeater insertion."""

import pytest

from repro.interconnect import (DriverModel, RCNode, RCTree,
                                WireGeometry, capacitance_per_length,
                                insert_repeaters, optimal_repeater_count,
                                optimal_repeater_size,
                                resistance_per_length, wire_delay)
from repro.technology import all_nodes, get_node


def uniform_line(geom, length, segments):
    """RC-ladder model of a uniform wire: the Elmore reference that
    eq. 3's distributed delay must match as the ladder refines."""
    r_seg = resistance_per_length(geom) * length / segments
    c_seg = capacitance_per_length(geom) * length / segments
    tree = RCTree()
    current = tree.root
    for i in range(segments):
        current = current.add_child(RCNode(f"seg{i}", resistance=r_seg,
                                           capacitance=c_seg))
    current.name = "seg_sink"
    return tree


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def geom(node):
    return WireGeometry.for_node(node, layer=1)


class TestRCTree:
    def test_single_branch_elmore(self):
        tree = RCTree(driver_resistance=1e3)
        tree.root.add_child(RCNode("a", resistance=500.0,
                                   capacitance=1e-15))
        # T = Rdrv*C + R*C = (1000 + 500) * 1e-15
        assert tree.elmore_delay("a") == pytest.approx(1.5e-12)

    def test_branching_shares_upstream(self):
        tree = RCTree(driver_resistance=1e3)
        a = tree.root.add_child(RCNode("a", 100.0, 1e-15))
        a.add_child(RCNode("b", 100.0, 1e-15))
        a.add_child(RCNode("c", 200.0, 2e-15))
        delay_b = tree.elmore_delay("b")
        delay_c = tree.elmore_delay("c")
        assert delay_c > delay_b
        # Upstream resistance carries all downstream capacitance.
        assert tree.elmore_delay("a") == pytest.approx(
            1e3 * 4e-15 + 100.0 * 4e-15)

    def test_unknown_sink_raises(self):
        tree = RCTree()
        with pytest.raises(KeyError):
            tree.elmore_delay("missing")

    def test_skew_of_balanced_tree_zero(self):
        tree = RCTree(driver_resistance=100.0)
        for name in ("a", "b"):
            tree.root.add_child(RCNode(name, 50.0, 1e-15))
        assert tree.skew() == pytest.approx(0.0)

    def test_skew_of_unbalanced_tree(self):
        tree = RCTree(driver_resistance=100.0)
        tree.root.add_child(RCNode("a", 50.0, 1e-15))
        tree.root.add_child(RCNode("b", 500.0, 1e-15))
        assert tree.skew() > 0

    def test_rejects_negative_driver_resistance(self):
        with pytest.raises(ValueError):
            RCTree(driver_resistance=-1.0)


class TestUniformLine:
    def test_converges_to_distributed_delay(self, geom):
        """Fine RC ladder -> r*c*L^2/2 (eq. 3)."""
        length = 2e-3
        tree = uniform_line(geom, length, segments=200)
        sink = f"seg_sink"
        elmore = tree.elmore_delay(sink)
        assert elmore == pytest.approx(wire_delay(geom, length), rel=0.02)


class TestDriverModel:
    def test_for_node_positive(self, node):
        driver = DriverModel.for_node(node)
        assert driver.resistance_unit > 0
        assert driver.capacitance_unit > 0

    def test_intrinsic_delay_falls_with_scaling(self):
        delays = [DriverModel.for_node(n).intrinsic_delay()
                  for n in all_nodes()]
        assert delays == sorted(delays, reverse=True)


class TestRepeaters:
    def test_long_wire_gets_repeaters(self, node):
        solution = insert_repeaters(node, 5e-3)
        assert solution.n_repeaters > 1
        assert solution.delay < solution.delay_unrepeated
        assert solution.speedup > 2.0

    def test_short_wire_single_segment(self, node):
        # Repeating starts to pay off near 0.1 mm at 65 nm.
        solution = insert_repeaters(node, 20e-6)
        assert solution.n_repeaters == 1

    def test_repeated_delay_linear_in_length(self, node):
        d1 = insert_repeaters(node, 2e-3).delay
        d2 = insert_repeaters(node, 4e-3).delay
        assert d2 == pytest.approx(2.0 * d1, rel=0.15)

    def test_energy_overhead_positive(self, node):
        assert insert_repeaters(node, 5e-3).energy_overhead > 0

    def test_rejects_non_positive_length(self, node):
        with pytest.raises(ValueError):
            insert_repeaters(node, 0.0)

    def test_optimal_count_grows_with_length(self, node, geom):
        driver = DriverModel.for_node(node)
        assert optimal_repeater_count(driver, geom, 10e-3) \
            > optimal_repeater_count(driver, geom, 1e-3)

    def test_optimal_size_above_unity(self, node, geom):
        driver = DriverModel.for_node(node)
        assert optimal_repeater_size(driver, geom) > 1.0

    def test_per_mm_report(self, node):
        solution = insert_repeaters(node, 1e-3)
        assert 0 < solution.delay < solution.delay_unrepeated
