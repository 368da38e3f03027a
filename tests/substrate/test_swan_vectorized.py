"""Equivalence of the vectorized SWAN/mesh paths with their oracles.

The vectorized superposition consumes the same RNG variates as the
per-event loop (``SwanSimulator._injected_currents_scalar``), so the
two must agree to floating-point rounding -- including the jittered
detailed waveforms.
The mesh assemblies are compared against a straightforward stamp-loop
reference.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.digital import ripple_adder
from repro.substrate import SubstrateMesh
from repro.substrate.swan import SwanSimulator
from repro.technology import get_node
from repro.thermal import ThermalMesh


@pytest.fixture(scope="module")
def node():
    return get_node("350nm")


@pytest.fixture(scope="module")
def activity(node):
    sim = SwanSimulator(ripple_adder(node, width=6),
                        mesh_resolution=10, seed=0)
    return sim.simulate_activity(n_cycles=4, stimulus_seed=1)


class TestSuperpositionEquivalence:
    @pytest.mark.parametrize("detailed", [False, True])
    def test_currents_match_scalar(self, node, activity, detailed):
        netlist = ripple_adder(node, width=6)
        scalar_sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        vector_sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        t_s, cur_s = scalar_sim._injected_currents_scalar(
            activity.to_result(), detailed=detailed)
        t_v, cur_v = vector_sim.injected_currents(
            activity, detailed=detailed)
        assert np.array_equal(t_s, t_v)
        assert set(cur_s) == set(cur_v)
        for mesh_node, wave in cur_s.items():
            assert np.abs(cur_v[mesh_node] - wave).max() <= 1e-15

    def test_noise_waveform_statistics_unchanged(self, node, activity):
        netlist = ripple_adder(node, width=6)
        scalar_sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        vector_sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        t_s, cur_s = scalar_sim._injected_currents_scalar(
            activity.to_result())
        t_v, cur_v = vector_sim.injected_currents(activity)
        wave_s = scalar_sim.propagate(t_s, cur_s)
        wave_v = vector_sim.propagate(t_v, cur_v)
        assert wave_v.rms == pytest.approx(wave_s.rms, abs=1e-9)
        assert wave_v.peak_to_peak == pytest.approx(
            wave_s.peak_to_peak, abs=1e-9)

    def test_empty_event_stream(self, node, activity):
        netlist = ripple_adder(node, width=6)
        sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        time, currents = sim.injected_currents(
            activity, duration=1e-13)
        assert currents == {} or all(
            np.all(wave == 0.0) for wave in currents.values())


def _reference_substrate_matrix(mesh: SubstrateMesh):
    n = mesh.n_nodes
    size = n + 1
    bulk = mesh.bulk_node
    g_h = mesh._lateral_conductance(horizontal=True)
    g_v = mesh._lateral_conductance(horizontal=False)
    g_down = mesh._vertical_conductance()
    rows, cols, vals = [], [], []

    def stamp(a, b, g):
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))

    for j in range(mesh.ny):
        for i in range(mesh.nx):
            mesh_node = j * mesh.nx + i
            if i + 1 < mesh.nx:
                stamp(mesh_node, mesh_node + 1, g_h)
            if j + 1 < mesh.ny:
                stamp(mesh_node, mesh_node + mesh.nx, g_v)
            stamp(mesh_node, bulk, g_down)
    diag = np.zeros(size)
    diag[bulk] += mesh._backside_conductance()
    for mesh_node, g in mesh._extra_ground.items():
        diag[mesh_node] += g
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend(diag)
    return sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))


def _reference_thermal_matrix(mesh: ThermalMesh):
    n = mesh.n_nodes
    g_h = mesh._lateral_conductance(True)
    g_v = mesh._lateral_conductance(False)
    g_down = mesh._vertical_conductance()
    rows, cols, vals = [], [], []

    def stamp(a, b, g):
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))

    for j in range(mesh.ny):
        for i in range(mesh.nx):
            mesh_node = j * mesh.nx + i
            if i + 1 < mesh.nx:
                stamp(mesh_node, mesh_node + 1, g_h)
            if j + 1 < mesh.ny:
                stamp(mesh_node, mesh_node + mesh.nx, g_v)
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend([g_down] * n)
    return sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))


class TestMeshAssemblyEquivalence:
    def test_substrate_matrix_matches_stamp_loop(self):
        mesh = SubstrateMesh(2e-3, 1.5e-3, nx=14, ny=10)
        mesh.add_guard_ring(0.4e-3, 0.4e-3, 1.0e-3, 0.9e-3)
        diff = mesh.conductance_matrix() - _reference_substrate_matrix(
            mesh)
        assert abs(diff).max() <= 1e-12 * abs(
            mesh.conductance_matrix()).max()

    def test_thermal_matrix_matches_stamp_loop(self):
        mesh = ThermalMesh(5e-3, 4e-3, nx=12, ny=15)
        diff = mesh.conductance_matrix() - _reference_thermal_matrix(
            mesh)
        assert abs(diff).max() == 0.0

    def test_block_power_map_matches_tile_loop(self):
        mesh = ThermalMesh(5e-3, 5e-3, nx=20, ny=20)
        blocks = [(0.0, 0.0, 2.5e-3, 2.5e-3, 0.4),
                  (1.0e-3, 3.0e-3, 4.9e-3, 4.4e-3, 1.2),
                  (4.99e-3, 4.99e-3, 5.1e-3, 5.2e-3, 0.3)]
        power = mesh.block_power_map(blocks)
        reference = np.zeros(mesh.n_nodes)
        for x1, y1, x2, y2, watts in blocks:
            tiles = [j * mesh.nx + i
                     for j in range(mesh.ny)
                     for i in range(mesh.nx)
                     if (x1 <= (i + 0.5) * mesh.dx < x2
                         and y1 <= (j + 0.5) * mesh.dy < y2)]
            for tile in tiles:
                reference[tile] += watts / len(tiles)
        assert np.array_equal(power, reference)
