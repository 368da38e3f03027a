"""Tests for the cell library and netlist structure."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.devices import capacitance
from repro.devices.capacitance import (inverter_input_capacitance,
                                       inverter_self_load)
from repro.digital import (CELL_TYPES, Cell, CompiledEventEngine,
                           CompiledTimingGraph, Netlist,
                           StaticTimingAnalyzer, make_cell, ripple_adder,
                           soc_netlist)
from repro.perf import cache_registry, cache_stats
from repro.robust.errors import ModelDomainError, RoadmapDataError
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

    @pytest.mark.parametrize("drive", [float("nan"), float("inf")])
    def test_rejects_non_finite_drive(self, node, drive):
        with pytest.raises(ValueError, match="^drive must be a positive "
                                             "finite number"):
            make_cell("INV", node, drive=drive)

    def test_cell_is_frozen(self, node):
        cell = make_cell("INV", node)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.drive = 2.0

    @pytest.mark.parametrize("name", sorted(CELL_TYPES))
    @pytest.mark.parametrize("drive", [1.0, 0.5, 3.0])
    def test_capacitance_terms_equal_the_device_model(self, node, name,
                                                      drive):
        """The kept terms are the recomputed expressions, bit for bit."""
        cell = make_cell(name, node, drive=drive)
        effort = cell.cell_type
        self_load = inverter_self_load(node, cell.nmos_width)
        for _ in range(2):      # the first read computes, the next keeps
            assert cell.input_capacitance == (
                effort.logical_effort
                * inverter_input_capacitance(node, cell.nmos_width))
            assert cell.output_parasitic == (effort.parasitic_effort
                                             * self_load)
            load = np.array([0.0, 3e-15, 40e-15])
            model = cell.delay_model(load)
            assert np.array_equal(
                model.load_capacitance,
                load + (effort.parasitic_effort - 1.0) * self_load)
            assert model.drive_width == (cell.nmos_width
                                         / effort.logical_effort)

    def test_device_model_runs_once_per_cell(self, node, monkeypatch):
        calls = []
        device_capacitances = capacitance.device_capacitances

        def counted(*args, **kwargs):
            calls.append(args)
            return device_capacitances(*args, **kwargs)

        monkeypatch.setattr(capacitance, "device_capacitances", counted)
        cache_registry()["digital.cells"].clear()
        cell = make_cell("NAND2", node, drive=2.0)
        for _ in range(3):
            cell.input_capacitance
            cell.output_parasitic
            cell.delay_model(5e-15)
        # One NMOS and one PMOS evaluation for each of the two terms.
        assert len(calls) == 4
        # The next make_cell hands out the same cell, terms and all.
        again = make_cell("NAND2", node, drive=2.0)
        assert again is cell
        again.input_capacitance
        assert len(calls) == 4

    def test_kept_terms_leave_equality_and_hash(self, node):
        read = make_cell("AOI21", node, drive=2.0)
        fresh = Cell(cell_type=CELL_TYPES["AOI21"], node=node, drive=2.0)
        hash_before = hash(read)
        read.input_capacitance
        read.output_parasitic
        assert read == fresh
        assert hash(read) == hash_before == hash(fresh)
        assert dataclasses.astuple(read) == dataclasses.astuple(fresh)
        assert read != make_cell("AOI21", node, drive=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.input_capacitance = 0.0

    def test_make_cell_shares_one_cell_per_kind(self, node):
        cell = make_cell("NOR3", node, drive=1.5)
        hits = cache_stats()["digital.cells"].hits
        assert make_cell("NOR3", node, drive=1.5) is cell
        assert cache_stats()["digital.cells"].hits == hits + 1
        # 1 and 1.0 are equal keys but build different fields.
        as_int = make_cell("NOR3", node, drive=1)
        assert as_int is not make_cell("NOR3", node, drive=1.0)
        assert repr(as_int.drive) == "1"
        assert make_cell("NOR3", get_node("130nm"), drive=1.5) is not cell
        # An array drive cannot key the cache: a cell of its own.
        assert make_cell("NOR3", node, drive=np.array(1.5)) is not \
            make_cell("NOR3", node, drive=np.array(1.5))

    @pytest.mark.parametrize("name, drive, error", [
        ("NAND9", 1.0, RoadmapDataError),
        ("NAND9", -1.0, RoadmapDataError),
        ("INV", -1.0, ModelDomainError),
        ("INV", float("nan"), ModelDomainError),
    ])
    def test_bad_cells_cache_nothing(self, node, name, drive, error):
        cells = cache_registry()["digital.cells"]
        size = len(cells)
        for _ in range(2):
            with pytest.raises(error):
                make_cell(name, node, drive=drive)
        assert len(cells) == size
        assert (name, node, float, drive) not in cells

    def test_soc_netlists_share_cells_and_delays(self, node):
        """Two SoC builds share one cell per kind, and a compile on the
        warm cells gives a fresh compile's delays, byte for byte."""
        cache_registry()["digital.cells"].clear()
        fresh = soc_netlist(node, target_gates=2000, n_blocks=2, seed=0)
        fresh_delays = CompiledEventEngine(
            fresh, clock_period=1 / 50e6)._delays
        warm = soc_netlist(node, target_gates=2000, n_blocks=2, seed=0)
        assert len(warm._kind_cells) == len(fresh._kind_cells) > 1
        for warm_cell, fresh_cell in zip(warm._kind_cells,
                                         fresh._kind_cells):
            assert warm_cell is fresh_cell
        assert CompiledEventEngine(
            warm, clock_period=1 / 50e6)._delays.tobytes() \
            == fresh_delays.tobytes()

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

    @pytest.mark.parametrize("first_name", ["", "g0"])
    def test_driver_of_any_name_at_any_position(self, node, first_name):
        """An empty instance name, and the gate at position 0, still
        drive their nets: neither timing analyzer sees a startpoint."""
        netlist = Netlist(node)
        netlist.add_input("a")
        first = netlist.add_gate("INV", ["a"], "y",
                                 instance_name=first_name)
        second = netlist.add_gate("INV", ["y"], "z")
        assert netlist.driver_of("y") is first
        assert netlist.driver_of("z") is second
        assert netlist.driver_of("a") is None
        assert netlist.driver_of("nowhere") is None
        path = (first_name, second.name)
        assert StaticTimingAnalyzer(netlist).analyze().critical_path \
            == path
        assert CompiledTimingGraph(netlist).evaluate().critical_path() \
            == path

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
