"""Equivalence of the vectorized SWAN/mesh paths with their oracles.

The vectorized superposition consumes the same RNG variates as the
per-event loop (``SwanSimulator._injected_currents_scalar``), so the
two must agree to floating-point rounding -- including the jittered
detailed waveforms.
On the ``soc-noise`` CLI-default trace, the group-by-group
accumulation must also give exactly the matrix that one ``bincount``
over every group's concatenated pulses gave.
The mesh assemblies are compared against a straightforward stamp-loop
reference.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.digital import random_stimulus, ripple_adder, soc_netlist
from repro.digital.simulator_compiled import CompiledEventEngine
from repro.robust.errors import ModelDomainError
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
        wave = sim.stream_noise(activity, detailed=True, duration=1e-13)
        assert np.array_equal(wave.time, time)
        assert not wave.voltage.any()


def _bincount_currents(sim, trace, dt=25e-12, detailed=False,
                       duration=None):
    """The superposition as one ``bincount`` over every cell code's
    concatenated pulses: ``injected_currents`` before it accumulated
    group by group.  It draws the same jitter variates."""
    duration = duration if duration is not None else trace.duration
    n_times = sim._time_axis(duration, dt).size
    placed_idx = np.flatnonzero(trace.source_indices >= 0)
    all_starts = (trace.times[placed_idx] / dt).astype(int)
    keep = all_starts < n_times
    start_arr = all_starts[keep]
    sources = trace.source_indices[placed_idx[keep]]
    code_arr = sim._code_by_gate[sources]
    node_arr = sim._node_by_gate[sources]
    if detailed:
        jitter = 1.0 + 0.05 * sim.rng.standard_normal(start_arr.size)
    unique_nodes, node_rows = np.unique(node_arr, return_inverse=True)
    flat_parts, value_parts = [], []
    for code in np.unique(code_arr):
        model = sim.macromodels[sim._cell_names[code]]
        span = max(int(4.0 * model.duration / dt) + 2, 4)
        local_t = np.arange(span) * dt
        selected = code_arr == code
        if detailed:
            pulse = (jitter[selected, None]
                     * model.detailed_waveform(local_t))
        else:
            pulse = model.macromodel_waveform(local_t)
        index = start_arr[selected, None] + np.arange(span)
        values = np.where(index < n_times, pulse, 0.0)
        index = np.minimum(index, n_times - 1)
        flat_parts.append(
            (node_rows[selected, None] * n_times + index).ravel())
        value_parts.append(values.ravel())
    currents = np.bincount(
        np.concatenate(flat_parts),
        weights=np.concatenate(value_parts),
        minlength=unique_nodes.size * n_times
    ).reshape(unique_nodes.size, n_times)
    return {int(node): currents[k] for k, node in enumerate(unique_nodes)}


@pytest.fixture(scope="module")
def cli_flow():
    """The ``soc-noise`` CLI default: 65 nm, 20k gates, 8 blocks, 10
    cycles at 50 MHz, seed 0 (19,951 events)."""
    netlist = soc_netlist(get_node("65nm"), target_gates=20_000,
                          n_blocks=8, seed=0)
    stimulus = random_stimulus(
        netlist, 10, seed=0,
        held_high=["en"] + [f"blk{b}_en" for b in range(8)])
    trace = CompiledEventEngine(
        netlist, clock_period=1 / 50e6,
        event_budget=10_000_000).run(stimulus, 10)
    return netlist, trace


def test_placement_codes_only_kinds_in_use(node):
    # A row that fails its pin check leaves its new kind behind; the
    # adder has no MUX2.
    netlist = ripple_adder(node, width=2)
    with pytest.raises(ModelDomainError, match="MUX2 takes 3"):
        netlist.add_gate("MUX2", ["a0"], drive=3.0)
    sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
    names = [inst.cell.cell_type.name
             for inst in netlist.instances.values()]
    assert sim._cell_names == sorted(set(names))
    assert [sim._cell_names[code] for code in sim._code_by_gate] == names


class TestSuperpositionReference:
    """Byte-for-byte against the concatenate-and-``bincount`` form."""

    @pytest.mark.parametrize("detailed", [False, True])
    @pytest.mark.parametrize("chunk_events", [1_000, 7_000, 100_000])
    def test_chunks_match_one_bincount(self, cli_flow, detailed,
                                       chunk_events):
        netlist, trace = cli_flow
        sim = SwanSimulator(netlist, clock_frequency=50e6, seed=0)
        reference = SwanSimulator(netlist, clock_frequency=50e6, seed=0)
        n_chunks = 0
        for chunk in trace.chunks(chunk_events):
            _, currents = sim.injected_currents(
                chunk, detailed=detailed, duration=trace.duration)
            expected = _bincount_currents(
                reference, chunk, detailed=detailed,
                duration=trace.duration)
            assert list(currents) == list(expected)
            for node, row in expected.items():
                assert currents[node].tobytes() == row.tobytes()
            n_chunks += 1
        assert n_chunks == -(-trace.n_events // chunk_events)


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
