"""Tests for roadmap trend fitting and projection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.roadmap import Roadmap, fit_trend
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def roadmap():
    return Roadmap()


class TestTrendFit:
    def test_vdd_exponent_positive(self):
        """Supply falls with feature size: positive log-log slope."""
        assert fit_trend("vdd").exponent > 0

    def test_dibl_exponent_negative(self):
        """DIBL worsens as L shrinks: negative slope."""
        assert fit_trend("dibl").exponent < 0

    def test_fit_reproduces_library_within_factor_two(self):
        fit = fit_trend("vdd")
        for node in all_nodes():
            predicted = fit.evaluate(node.feature_size)
            assert predicted == pytest.approx(node.vdd, rel=0.5)

    def test_floor_is_respected(self):
        fit = fit_trend("tox")
        assert fit.evaluate(1e-9) >= 0.8e-9

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            fit_trend("vdd", nodes=[get_node("65nm")])

    def test_evaluate_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fit_trend("vdd").evaluate(0.0)


class TestRoadmapProjection:
    def test_projects_valid_node(self, roadmap):
        node = roadmap.project(22e-9)
        assert node.feature_size == pytest.approx(22e-9)
        assert 0 < node.vth < node.vdd

    def test_projection_monotone_in_vdd(self, roadmap):
        sizes = [45e-9, 32e-9, 22e-9, 16e-9]
        vdds = [roadmap.project(size).vdd for size in sizes]
        assert vdds == sorted(vdds, reverse=True)

    def test_interpolation_close_to_library(self, roadmap):
        """Projecting at an existing node lands near its values."""
        projected = roadmap.project(65e-9)
        actual = get_node("65nm")
        assert projected.vdd == pytest.approx(actual.vdd, rel=0.25)
        assert projected.tox == pytest.approx(actual.tox, rel=0.3)

    def test_projection_rejects_non_positive(self, roadmap):
        with pytest.raises(ValueError):
            roadmap.project(0.0)

    def test_project_series(self, roadmap):
        nodes = roadmap.project_series([90e-9, 65e-9, 45e-9])
        assert len(nodes) == 3
        assert nodes[0].feature_size > nodes[-1].feature_size

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=10e-9, max_value=500e-9))
    def test_projection_always_physical(self, roadmap, size):
        node = Roadmap().project(size) if False else roadmap.project(size)
        assert node.vdd > 0
        assert 0 < node.vth < node.vdd
        assert node.tox >= 0.8e-9
