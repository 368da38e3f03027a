"""Tests for the cell library and netlist structure."""

import pytest
from hypothesis import given, strategies as st

from repro.digital import CELL_TYPES, Netlist, make_cell, ripple_adder
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestCellLogic:
    @pytest.mark.parametrize("name,inputs,expected", [
        ("INV", (True,), False),
        ("INV", (False,), True),
        ("BUF", (True,), True),
        ("NAND2", (True, True), False),
        ("NAND2", (True, False), True),
        ("NOR2", (False, False), True),
        ("NOR2", (True, False), False),
        ("AND2", (True, True), True),
        ("OR2", (False, False), False),
        ("XOR2", (True, False), True),
        ("XOR2", (True, True), False),
        ("XNOR2", (True, True), True),
        ("MUX2", (False, True, False), True),   # sel=0 -> a
        ("MUX2", (True, True, False), False),   # sel=1 -> b
        ("AOI21", (True, True, False), False),
        ("AOI21", (False, False, False), True),
        ("NAND3", (True, True, True), False),
        ("NOR3", (False, False, False), True),
    ])
    def test_truth_tables(self, name, inputs, expected):
        assert CELL_TYPES[name].evaluate(inputs) is expected

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            CELL_TYPES["NAND2"].evaluate((True,))

    @given(st.lists(st.booleans(), min_size=2, max_size=2))
    def test_demorgan_property(self, inputs):
        """NAND(a,b) == OR(!a,!b) for all inputs."""
        nand = CELL_TYPES["NAND2"].evaluate(inputs)
        or_inverted = CELL_TYPES["OR2"].evaluate(
            [not v for v in inputs])
        assert nand == or_inverted


class TestCellElectrical:
    def test_make_cell_unknown_raises(self, node):
        with pytest.raises(KeyError, match="available"):
            make_cell("NAND9", node)

    def test_drive_scales_input_cap(self, node):
        x1 = make_cell("INV", node, drive=1.0)
        x4 = make_cell("INV", node, drive=4.0)
        assert x4.input_capacitance == pytest.approx(
            4.0 * x1.input_capacitance)

    def test_bigger_drive_faster_at_fixed_load(self, node):
        load = 20e-15
        x1 = make_cell("INV", node, drive=1.0)
        x4 = make_cell("INV", node, drive=4.0)
        assert x4.delay(load) < x1.delay(load)

    def test_nand_slower_than_inv(self, node):
        load = 10e-15
        assert make_cell("NAND2", node).delay(load) \
            > make_cell("INV", node).delay(load)

    def test_rejects_bad_drive(self, node):
        with pytest.raises(ValueError):
            make_cell("INV", node, drive=0.0)

    def test_vth_offset_slows_gate(self, node):
        cell = make_cell("INV", node)
        assert cell.delay(10e-15, vth_offset=0.05) > cell.delay(10e-15)

    def test_leakage_positive(self, node):
        assert make_cell("NAND2", node).leakage_power() > 0

    def test_library_report_covers_all_cells(self, node):
        for name in CELL_TYPES:
            cell = make_cell(name, node)
            load = 4.0 * cell.input_capacitance
            assert cell.delay(load) > 0


class TestNetlist:
    def test_evaluate_simple_gate(self, node):
        netlist = Netlist(node)
        netlist.add_inputs(["a", "b"])
        netlist.add_gate("NAND2", ["a", "b"], "y")
        assert netlist.evaluate({"a": True, "b": True})["y"] is False
        assert netlist.evaluate({"a": True, "b": False})["y"] is True

    def test_chained_logic(self, node):
        netlist = Netlist(node)
        netlist.add_inputs(["a", "b"])
        netlist.add_gate("NAND2", ["a", "b"], "n1")
        netlist.add_gate("INV", ["n1"], "y")
        values = netlist.evaluate({"a": True, "b": True})
        assert values["y"] is True  # AND through NAND+INV

    def test_missing_input_raises(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "y")
        with pytest.raises(ValueError, match="missing"):
            netlist.evaluate({})

    def test_double_drive_rejected(self, node):
        netlist = Netlist(node)
        netlist.add_inputs(["a", "b"])
        netlist.add_gate("INV", ["a"], "y")
        with pytest.raises(ValueError):
            netlist.add_gate("INV", ["b"], "y")

    def test_duplicate_input_rejected(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_input("a")

    def test_combinational_loop_detected(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        # y = NAND(a, y): a loop without a flip-flop.
        netlist.add_gate("NAND2", ["a", "y"], "y")
        with pytest.raises(ValueError, match="loop"):
            netlist.topological_order()

    def test_registered_loop_allowed(self, node):
        netlist = Netlist(node)
        netlist.add_input("en")
        netlist.add_gate("INV", ["q"], "d")
        netlist.add_gate("DFF", ["en", "d"], "q")
        order = netlist.topological_order()
        assert len(order) == 2

    def test_step_advances_state(self, node):
        """A DFF fed by its own inverse toggles each cycle."""
        netlist = Netlist(node)
        netlist.add_input("en")
        netlist.add_gate("INV", ["q"], "d")
        netlist.add_gate("DFF", ["en", "d"], "q")
        state = {"q": False}
        _, state = netlist.step({"en": True}, state)
        assert state["q"] is True
        _, state = netlist.step({"en": True}, state)
        assert state["q"] is False

    def test_primary_outputs_inferred(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "y")
        assert netlist.primary_outputs == ["y"]

    def test_fanout_capacitance_grows_with_loads(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "y1")
        single = netlist.fanout_capacitance("a")
        netlist.add_gate("INV", ["a"], "y2")
        double = netlist.fanout_capacitance("a")
        assert double > single

    def test_adder_correct_for_many_values(self, node):
        adder = ripple_adder(node, width=6)
        for a, b in [(0, 0), (1, 1), (13, 7), (31, 33), (63, 63)]:
            inputs = {f"a{i}": bool((a >> i) & 1) for i in range(6)}
            inputs.update({f"b{i}": bool((b >> i) & 1) for i in range(6)})
            inputs["cin"] = False
            values = adder.evaluate(inputs)
            total = sum(1 << i for i in range(6)
                        if values[f"fa{i}_s"]) \
                + (64 if values[adder.primary_outputs[-1]] else 0)
            assert total == (a + b) % 128

    def test_total_aggregates(self, node):
        adder = ripple_adder(node, width=4)
        assert adder.total_leakage_power() > 0
        assert adder.gate_count() == 20
