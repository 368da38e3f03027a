"""Tests for injection macromodels and the SWAN flow (Fig. 10)."""

import numpy as np
import pytest

from repro.digital import clocked_datapath, ripple_adder
from repro.substrate import (Floorplan, SwanSimulator,
                             characterize_cell, characterize_library,
                             run_swan_experiment)
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("350nm")


class TestMacromodel:
    def test_charge_conservation_macromodel(self, node):
        model = characterize_cell(node, "NAND2")
        t = np.linspace(0.0, 10.0 * model.duration, 20000)
        pulse = model.macromodel_waveform(t)
        integral = np.sum(pulse) * (t[1] - t[0])
        assert integral == pytest.approx(model.charge, rel=0.02)

    def test_charge_conservation_detailed(self, node):
        model = characterize_cell(node, "NAND2")
        t = np.linspace(0.0, 30.0 * model.duration, 40000)
        pulse = model.detailed_waveform(t)
        integral = np.sum(pulse) * (t[1] - t[0])
        assert integral == pytest.approx(model.charge, rel=0.05)

    def test_peak_matched_between_models(self, node):
        """SWAN characterization: macromodel peak == detailed peak."""
        model = characterize_cell(node, "INV")
        t = np.linspace(0.0, 4.0 * model.duration, 4000)
        macro_peak = model.macromodel_waveform(t).max()
        detail_peak = model.detailed_waveform(t).max()
        assert macro_peak == pytest.approx(detail_peak, rel=0.02)

    def test_bigger_cell_injects_more(self, node):
        inv = characterize_cell(node, "INV")
        dff = characterize_cell(node, "DFF")
        assert dff.charge > inv.charge

    def test_library_covers_all_cells(self, node):
        from repro.digital import CELL_TYPES
        models = characterize_library(node)
        assert set(models) == set(CELL_TYPES)

    def test_injection_fraction_scales_charge(self, node):
        lo = characterize_cell(node, "INV", injection_fraction=0.04)
        hi = characterize_cell(node, "INV", injection_fraction=0.08)
        assert hi.charge == pytest.approx(2.0 * lo.charge)

    def test_waveforms_zero_before_event(self, node):
        model = characterize_cell(node, "INV")
        t = np.linspace(-model.duration, 0.0, 100, endpoint=False)
        assert np.all(model.macromodel_waveform(t) == 0.0)
        assert np.all(model.detailed_waveform(t) == 0.0)


class TestFloorplan:
    def test_default_valid(self):
        Floorplan.default()  # must not raise

    def test_rejects_region_outside_die(self):
        with pytest.raises(ValueError):
            Floorplan(die_width=1e-3, die_height=1e-3,
                      digital_region=(0.0, 0.0, 2e-3, 0.5e-3),
                      sensor_xy=(0.5e-3, 0.5e-3))

    def test_rejects_sensor_outside_die(self):
        with pytest.raises(ValueError):
            Floorplan(die_width=1e-3, die_height=1e-3,
                      digital_region=(0.1e-3, 0.1e-3, 0.5e-3, 0.5e-3),
                      sensor_xy=(2e-3, 0.5e-3))

    def test_positions_inside_region(self):
        plan = Floorplan.default()
        xs, ys = plan.grid_positions(25)
        x1, y1, x2, y2 = plan.digital_region
        for x, y in zip(xs, ys):
            assert x1 <= x <= x2
            assert y1 <= y <= y2


class TestSwanSimulator:
    @pytest.fixture(scope="class")
    def netlist(self, node):
        return clocked_datapath(node, adder_width=4, n_slices=2, seed=0)

    def test_activity_produces_events(self, node, netlist):
        sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)
        activity = sim.simulate_activity(n_cycles=3)
        assert activity.n_events > 10

    def test_noise_waveform_nonzero(self, node, netlist):
        sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)
        waveform = sim.run(n_cycles=3)
        assert waveform.rms > 0
        assert waveform.peak_to_peak > 0

    def test_guard_ring_reduces_noise(self, node, netlist):
        plain = SwanSimulator(netlist, mesh_resolution=12,
                              guard_ring=False, seed=0)
        ringed = SwanSimulator(netlist, mesh_resolution=12,
                               guard_ring=True, seed=0)
        activity = plain.simulate_activity(n_cycles=3, stimulus_seed=0)
        v_plain = plain.run(activity=activity)
        v_ringed = ringed.run(activity=activity)
        assert v_ringed.rms < v_plain.rms

    def test_rejects_bad_clock(self, node, netlist):
        with pytest.raises(ValueError):
            SwanSimulator(netlist, clock_frequency=0.0)

    @pytest.mark.parametrize("frequency", [float("nan"), float("inf")])
    def test_rejects_non_finite_clock(self, netlist, frequency):
        with pytest.raises(ValueError, match="^clock_frequency must be "
                                             "a positive finite number"):
            SwanSimulator(netlist, clock_frequency=frequency)

    def test_waveform_resampling(self, node, netlist):
        sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)
        waveform = sim.run(n_cycles=2)
        coarse = waveform.resampled(waveform.time[::4])
        assert coarse.voltage.size == waveform.time[::4].size


class TestFig10Experiment:
    @pytest.fixture(scope="class")
    def comparison(self, node):
        netlist = clocked_datapath(node, adder_width=8, n_slices=4,
                                   seed=2)
        return run_swan_experiment(netlist, n_cycles=5,
                                   mesh_resolution=20, seed=0)

    def test_paper_accuracy_claim(self, comparison):
        """Fig. 10: RMS within 20 %, peak-to-peak within 4 %."""
        assert comparison.rms_error <= 0.20
        assert comparison.peak_to_peak_error <= 0.04
        assert comparison.passes_paper_accuracy()

    def test_waveforms_same_scale(self, comparison):
        ratio = comparison.swan.rms / comparison.reference.rms
        assert 0.5 < ratio < 2.0

    def test_noise_is_mv_scale(self, comparison):
        """The measured SoC noise was mV-scale."""
        assert 1e-5 < comparison.reference.peak_to_peak < 1.0
