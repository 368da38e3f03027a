"""Tests for the 6T SRAM cell model."""

import numpy as np
import pytest

from repro.memory import (SramCell, SramCellDesign,
                          cell_failure_probability, snm_trend,
                          snm_under_mismatch)
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def cell(node):
    return SramCell(node)


class TestDesign:
    def test_default_ratios(self):
        design = SramCellDesign()
        assert design.pull_down_ratio / design.access_ratio > 1.0
        assert design.pull_up_ratio / design.access_ratio < 1.0

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            SramCellDesign(pull_down_ratio=0.0)

    def test_rejects_unknown_offset_keys(self, node):
        with pytest.raises(ValueError, match="unknown devices"):
            SramCell(node, vth_offsets={"bogus": 0.01})


class TestButterfly:
    def test_vtc_endpoints(self, cell, node):
        vin, left, _ = cell.butterfly_curves(n_points=21)
        assert left[0] == pytest.approx(node.vdd, abs=0.02)
        assert left[-1] == pytest.approx(0.0, abs=0.02)

    def test_vtc_monotone_decreasing(self, cell):
        _, left, _ = cell.butterfly_curves(n_points=31)
        assert np.all(np.diff(left) <= 1e-9)

    def test_symmetric_cell_identical_curves(self, cell):
        _, left, right = cell.butterfly_curves(n_points=21)
        assert np.allclose(left, right)

    @pytest.mark.parametrize("node_name",
                             ["350nm", "130nm", "65nm", "32nm"])
    @pytest.mark.parametrize("read_condition", [False, True])
    def test_bisection_matches_brentq_oracle(self, node_name,
                                             read_condition):
        """The array bisection agrees per point with the ``brentq``
        oracle (``xtol=1e-9``) on a mismatched cell."""
        cell = SramCell(get_node(node_name), vth_offsets={
            "pd_l": 0.012, "pd_r": -0.018, "pu_l": 0.009,
            "pu_r": -0.006, "ax_l": -0.011, "ax_r": 0.015})
        vin, left, right = cell.butterfly_curves(41, read_condition)
        for curve, pull_down, pull_up, access in (
                (left, cell.pd_l, cell.pu_l, cell.ax_l),
                (right, cell.pd_r, cell.pu_r, cell.ax_r)):
            access = access if read_condition else None
            oracle = [cell._inverter_vout(v, pull_down, pull_up, access)
                      for v in vin]
            np.testing.assert_allclose(curve, oracle, rtol=0, atol=2e-9)


class TestSnm:
    def test_hold_snm_below_half_vdd(self, cell, node):
        snm = cell.hold_snm()
        assert 0.0 < snm < node.vdd / 2.0

    def test_hold_snm_realistic(self, cell, node):
        """Typical 6T hold SNM: ~0.25-0.4 of V_DD."""
        assert 0.2 < cell.hold_snm() / node.vdd < 0.45

    def test_read_snm_below_hold(self, cell):
        """Read disturb always erodes the margin."""
        assert cell.read_snm() < cell.hold_snm()

    def test_weaker_pulldown_worse_read_snm(self, node):
        strong = SramCell(node, SramCellDesign(pull_down_ratio=3.0))
        weak = SramCell(node, SramCellDesign(pull_down_ratio=1.2))
        assert weak.read_snm() < strong.read_snm()

    def test_mismatch_erodes_snm(self, node):
        nominal = SramCell(node).read_snm()
        skewed = SramCell(node, vth_offsets={
            "pd_l": 0.08, "pd_r": -0.08}).read_snm()
        assert skewed < nominal

    def test_snm_shrinks_with_scaling(self):
        rows = snm_trend([get_node(n) for n in
                          ("180nm", "130nm", "90nm", "65nm", "45nm")])
        holds = [row["hold_snm_mV"] for row in rows]
        reads = [row["read_snm_mV"] for row in rows]
        assert holds == sorted(holds, reverse=True)
        assert reads == sorted(reads, reverse=True)

    def test_margin_vs_sigma_collision(self):
        """The paper's memory crisis: sigma_VT approaches the read
        margin at nanometre nodes."""
        rows = {row["node"]: row for row in snm_trend(
            [get_node("180nm"), get_node("45nm")])}
        old_ratio = rows["180nm"]["read_snm_mV"] \
            / rows["180nm"]["sigma_vt_access_mV"]
        new_ratio = rows["45nm"]["read_snm_mV"] \
            / rows["45nm"]["sigma_vt_access_mV"]
        assert new_ratio < old_ratio / 3.0


class TestLeakageArea:
    def test_leakage_positive(self, cell):
        assert cell.leakage_current() > 0

    def test_leakage_grows_with_scaling(self):
        old = SramCell(get_node("130nm")).leakage_current()
        new = SramCell(get_node("45nm")).leakage_current()
        assert new > 10.0 * old

    def test_area_120_f2(self, cell, node):
        assert cell.area() == pytest.approx(
            120.0 * node.feature_size ** 2)


class TestMismatchMc:
    def test_distribution_properties(self, node):
        samples = snm_under_mismatch(node, n_samples=40, seed=0)
        assert samples.shape == (40,)
        assert samples.std() > 0
        assert samples.mean() < SramCell(node).hold_snm()

    def test_failure_probability_fields(self, node):
        stats = cell_failure_probability(node, n_samples=40, seed=1)
        assert 0 <= stats["fail_probability"] <= 1
        assert stats["sigma_snm_V"] > 0

    def test_reproducible(self, node):
        a = snm_under_mismatch(node, n_samples=10, seed=2)
        b = snm_under_mismatch(node, n_samples=10, seed=2)
        assert np.allclose(a, b)
