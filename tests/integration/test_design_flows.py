"""Integration: design flows spanning several packages.

* analog synthesis -> layout -> yield on the same sizing;
* digital netlist -> MTCMOS -> SSTA on the leakage-optimized design;
* roadmap projection -> every analysis accepts the projected node.
"""

import pytest

from repro.analog import OtaDesign, OtaYieldAnalyzer
from repro.core import Roadmap
from repro.digital import (StatisticalTimingAnalyzer, StaticTimingAnalyzer,
                           assign_dual_vth, kogge_stone_adder,
                           leakage_fraction_trend)
from repro.memory import SramCell
from repro.synthesis import (default_ota_spec, ota_synthesizer,
                             synthesize_detector_frontend)
from repro.technology import get_node


class TestSizingToYield:
    def test_synthesized_ota_passes_mc_yield(self):
        """The sized design survives the Monte Carlo it was not
        directly optimized for."""
        node = get_node("180nm")
        spec = default_ota_spec()
        result = ota_synthesizer(node, 2e-12, spec).run(seed=0,
                                                        maxiter=20)
        design = OtaDesign(
            input_width=result.values["input_width"],
            input_length=result.values["input_length"],
            load_width=result.values["load_width"],
            load_length=result.values["load_length"],
            tail_current=result.values["tail_current"])
        analyzer = OtaYieldAnalyzer(node, design, 2e-12, seed=0)
        report = analyzer.run(
            {"gain_db": 30.0, "gbw_hz": 40e6}, n_samples=100)
        assert report.overall_yield > 0.8

    def test_full_frontend_flow_other_node(self):
        """Fig. 8 flow retargets from 350 nm to 180 nm."""
        report = synthesize_detector_frontend(
            get_node("180nm"), seed=2, sizing_maxiter=10,
            placement_iterations=300)
        assert report.sizing.feasible
        assert report.layout.check_overlaps() == []
        assert report.routing.completion > 0.7


class TestLeakageThenTiming:
    def test_mtcmos_design_still_meets_timing_statistically(self):
        node = get_node("65nm")
        adder = kogge_stone_adder(node, width=8)
        baseline = StaticTimingAnalyzer(adder).analyze().critical_delay
        mtcmos = assign_dual_vth(adder, delta_vth=0.1,
                                 slack_fraction=0.15)
        assert mtcmos.delay_after <= baseline * 1.151
        # SSTA on the same netlist: the 99% quantile stays within the
        # slack budget plus variability.
        result = StatisticalTimingAnalyzer(adder, seed=0).run(60)
        assert result.quantile(0.99) < 2.0 * baseline


class TestProjectedNodeEverywhere:
    @pytest.fixture(scope="class")
    def node22(self):
        return Roadmap().project(22e-9)

    def test_devices_work(self, node22):
        from repro.devices import Mosfet
        device = Mosfet(node22, width=2 * node22.feature_size)
        assert device.on_current() > device.off_current()

    def test_digital_works(self, node22):
        from repro.digital import fo4_delay_model
        assert fo4_delay_model(node22).delay() > 0

    def test_leakage_fraction_extreme(self, node22):
        hot = node22.at_temperature(358.0)
        row = leakage_fraction_trend([hot], frequency=1e9)[0]
        assert row["leakage_fraction"] > 0.5

    def test_sram_margins_thin(self, node22):
        cell = SramCell(node22)
        margin = cell.read_snm()
        sigma = node22.sigma_vt(1.2 * node22.feature_size)
        # The collision the paper predicts: margin within a few sigma.
        assert margin < 6.0 * sigma

    def test_analog_power_flat(self, node22):
        from repro.analog import mismatch_limited_power
        p22 = mismatch_limited_power(node22, 100e6, 10.0)
        p65 = mismatch_limited_power(get_node("65nm"), 100e6, 10.0)
        assert p22 > 0.5 * p65
