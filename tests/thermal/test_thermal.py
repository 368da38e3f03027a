"""Tests for the thermal mesh and electrothermal feedback."""

import numpy as np
import pytest

from repro.thermal import (ElectrothermalResult, ThermalMesh,
                           ThermalStack, fixed_die_electrothermal_trend,
                           runaway_rth_threshold,
                           solve_operating_point)
from repro.technology import all_nodes, get_node


def uniform_power_map(mesh, total_power):
    """``total_power`` [W] spread evenly over the die."""
    return np.full(mesh.n_nodes, total_power / mesh.n_nodes)


@pytest.fixture()
def mesh():
    return ThermalMesh(10e-3, 10e-3, nx=12, ny=12)


class TestThermalStack:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ThermalStack(die_thickness=0.0)
        with pytest.raises(ValueError):
            ThermalStack(rth_junction_to_ambient=-1.0)
        with pytest.raises(ValueError):
            ThermalStack(ambient=0.0)


class TestThermalMesh:
    def test_uniform_power_gives_rth_rise(self, mesh):
        """Uniform 5 W through 20 K/W -> +100 K everywhere."""
        temperatures = mesh.solve(uniform_power_map(mesh, 5.0))
        expected = mesh.stack.ambient + 5.0 * 20.0
        assert np.allclose(temperatures, expected, atol=0.5)

    def test_zero_power_is_ambient(self, mesh):
        temperatures = mesh.solve(np.zeros(mesh.n_nodes))
        assert np.allclose(temperatures, mesh.stack.ambient)

    def test_linearity_in_power(self, mesh):
        power = uniform_power_map(mesh, 2.0)
        rise1 = mesh.solve(power) - mesh.stack.ambient
        rise2 = mesh.solve(2.0 * power) - mesh.stack.ambient
        assert np.allclose(rise2, 2.0 * rise1)

    def test_hotspot_over_powered_block(self, mesh):
        power = mesh.block_power_map([(0.0, 0.0, 3e-3, 3e-3, 5.0)])
        index, peak = mesh.hotspot(power)
        x = (index % mesh.nx + 0.5) * mesh.dx
        y = (index // mesh.nx + 0.5) * mesh.dy
        assert x < 3e-3 and y < 3e-3
        uniform_peak = mesh.hotspot(uniform_power_map(mesh, 5.0))[1]
        assert peak > uniform_peak

    def test_lateral_spreading_smooths(self, mesh):
        """Thicker die spreads better: lower hotspot."""
        thin = ThermalMesh(10e-3, 10e-3, nx=12, ny=12,
                           stack=ThermalStack(die_thickness=100e-6))
        thick = ThermalMesh(10e-3, 10e-3, nx=12, ny=12,
                            stack=ThermalStack(die_thickness=700e-6))
        blocks = [(0.0, 0.0, 2e-3, 2e-3, 5.0)]
        assert thick.hotspot(thick.block_power_map(blocks))[1] \
            < thin.hotspot(thin.block_power_map(blocks))[1]

    def test_block_power_conserved(self, mesh):
        power = mesh.block_power_map([(1e-3, 1e-3, 5e-3, 5e-3, 3.0)])
        assert power.sum() == pytest.approx(3.0)

    def test_validation(self, mesh):
        with pytest.raises(ValueError):
            mesh.solve(np.zeros(5))
        with pytest.raises(ValueError):
            mesh.solve(np.full(mesh.n_nodes, -1.0))
        with pytest.raises(ValueError):
            ThermalMesh(-1.0, 1.0)


class TestElectrothermal:
    def test_well_cooled_converges(self):
        node = get_node("65nm")
        result = solve_operating_point(
            node, stack=ThermalStack(rth_junction_to_ambient=1.0))
        assert result.converged
        assert not result.runaway
        assert result.junction_temperature > 318.0
        assert result.feedback_amplification >= 1.0

    def test_hot_junction_leaks_more_than_cold(self):
        node = get_node("45nm")
        result = solve_operating_point(
            node, stack=ThermalStack(rth_junction_to_ambient=5.0))
        assert result.leakage_power > result.leakage_power_cold

    def test_bad_cooling_runs_away(self):
        node = get_node("45nm")
        result = solve_operating_point(
            node, stack=ThermalStack(rth_junction_to_ambient=500.0))
        assert result.runaway

    def test_threshold_monotone_with_scaling(self):
        """The cooling budget shrinks node over node."""
        thresholds = [runaway_rth_threshold(get_node(n))
                      for n in ("90nm", "65nm", "45nm")]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_threshold_brackets_behaviour(self):
        node = get_node("65nm")
        threshold = runaway_rth_threshold(node)
        safe = solve_operating_point(
            node, stack=ThermalStack(
                rth_junction_to_ambient=0.5 * threshold))
        hot = solve_operating_point(
            node, stack=ThermalStack(
                rth_junction_to_ambient=2.0 * threshold))
        assert not safe.runaway
        assert hot.runaway

    def test_fixed_die_runs_away_at_the_end(self):
        """Constant power density broken: the smallest node cooks."""
        rows = fixed_die_electrothermal_trend(
            all_nodes(), stack=ThermalStack(rth_junction_to_ambient=2.0))
        assert rows[-1]["runaway"] == 1.0
        assert all(row["runaway"] == 0.0 for row in rows[:5])

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            solve_operating_point(get_node("65nm"), max_iterations=0)
