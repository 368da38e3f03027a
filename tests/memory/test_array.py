"""Tests for the SRAM array macro model."""

import pytest

from repro.memory import ArraySpec, SramArray
from repro.technology import get_node


@pytest.fixture(scope="module")
def array():
    return SramArray(get_node("65nm"), ArraySpec(n_rows=128, n_cols=64))


class TestSpec:
    def test_capacity(self):
        spec = ArraySpec(n_rows=256, n_cols=128, column_mux=4)
        assert spec.capacity_bits == 32768

    def test_rejects_bad_mux(self):
        with pytest.raises(ValueError):
            ArraySpec(n_cols=100, column_mux=3)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            ArraySpec(n_rows=0)


class TestElectrical:
    def test_bitline_capacitance_scales_with_rows(self):
        node = get_node("65nm")
        short = SramArray(node, ArraySpec(n_rows=64, n_cols=64))
        tall = SramArray(node, ArraySpec(n_rows=256, n_cols=64))
        assert tall.bitline_capacitance() > 2.0 \
            * short.bitline_capacitance()

    def test_swing_time_rejects_bad_swing(self, array):
        with pytest.raises(ValueError):
            array.bitline_swing_time(swing=0.0)

    def test_total_leakage_scales_with_bits(self):
        node = get_node("65nm")
        one = SramArray(node, ArraySpec(n_rows=64, n_cols=64))
        four = SramArray(node, ArraySpec(n_rows=128, n_cols=128))
        assert four.total_leakage() == pytest.approx(
            4.0 * one.total_leakage())

    def test_area_includes_periphery(self, array):
        cells_only = array.spec.capacity_bits * array.cell.area()
        assert array.area() == pytest.approx(1.3 * cells_only)


class TestYield:
    def test_yield_report_fields(self, array):
        report = array.yield_estimate(n_samples=30, seed=0)
        assert 0 <= report["array_yield"] <= 1
        assert report["capacity_bits"] == array.spec.capacity_bits


class TestTrend:
    def test_density_improves_with_scaling(self):
        old, new = (SramArray(get_node(name), ArraySpec())
                    for name in ("130nm", "65nm"))
        assert new.area() < old.area()

    def test_leakage_worsens_with_scaling(self):
        old, new = (SramArray(get_node(name), ArraySpec())
                    for name in ("130nm", "65nm"))
        assert new.total_leakage() > old.total_leakage()
