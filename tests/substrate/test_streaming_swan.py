"""EventTrace streaming through SWAN and the batched mesh solve.

The compiled activity trace must carry *exactly* the event stream of
the scalar :class:`EventDrivenSimulator` (so the per-event injection
oracle sees the same events, attribution and jitter order from
either), and the chunked/streamed paths must match the one-shot paths
to floating-point rounding.  The batched multi-RHS mesh solve must
match per-column solves exactly.
"""

import numpy as np
import pytest

from repro.digital import (EventDrivenSimulator, random_logic,
                           random_stimulus, ripple_adder)
from repro.robust.errors import ModelDomainError
from repro.substrate import SubstrateMesh, SubstrateProcess
from repro.substrate.swan import EventTrace, Floorplan, SwanSimulator
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def netlist(node):
    return ripple_adder(node, width=6)


@pytest.fixture(scope="module")
def streams(netlist):
    """(scalar engine result, compiled trace) for identical stimulus."""
    sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
    trace = sim.simulate_activity(n_cycles=4, stimulus_seed=1)
    stimulus = random_stimulus(netlist, 4, seed=1,
                               held_high=("en", "enable"))
    result = EventDrivenSimulator(
        netlist, clock_period=1.0 / sim.clock_frequency).run(stimulus, 4)
    return result, trace


class TestSimulateActivityEngines:
    def test_compiled_returns_trace(self, streams):
        result, trace = streams
        assert isinstance(trace, EventTrace)
        assert len(result.events) == trace.n_events
        assert result.final_values == trace.final_values


class TestTraceInjection:
    @pytest.mark.parametrize("detailed", [False, True])
    def test_trace_matches_result_exactly(self, netlist, streams,
                                          detailed):
        result, trace = streams
        sim_r = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        sim_t = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        t_r, cur_r = sim_r._injected_currents_scalar(
            result, detailed=detailed)
        t_t, cur_t = sim_t._injected_currents_scalar(
            trace.to_result(), detailed=detailed)
        assert np.array_equal(t_r, t_t)
        assert set(cur_r) == set(cur_t)
        for mesh_node, wave in cur_r.items():
            assert np.array_equal(cur_t[mesh_node], wave)

    @pytest.mark.parametrize("detailed", [False, True])
    def test_chunked_matches_one_shot(self, netlist, streams,
                                      detailed):
        """The detailed jitter stream runs on across chunks: 7-event
        chunks match one chunk to floating-point rounding."""
        _, trace = streams
        one = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        chunked = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        whole = one.stream_noise(trace, detailed=detailed,
                                 chunk_events=trace.n_events)
        wave = chunked.stream_noise(trace, detailed=detailed,
                                    chunk_events=7)
        assert np.array_equal(whole.time, wave.time)
        np.testing.assert_allclose(wave.voltage, whole.voltage,
                                   rtol=0, atol=1e-15)

    def test_stream_noise_matches_run(self, netlist, streams):
        _, trace = streams
        one = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        streamed = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        reference = one.run(activity=trace)
        wave = streamed.stream_noise(trace, chunk_events=5)
        assert np.array_equal(reference.time, wave.time)
        np.testing.assert_allclose(wave.voltage, reference.voltage,
                                   rtol=0, atol=1e-12)

    def test_stream_noise_validates_chunk(self, netlist, streams):
        _, trace = streams
        sim = SwanSimulator(netlist, mesh_resolution=10, seed=0)
        with pytest.raises(ValueError):
            sim.stream_noise(trace, chunk_events=0)


class TestGatePlacement:
    """Gate-indexed placement arrays equal the per-name scalar lookups."""

    @pytest.fixture(scope="class")
    def sim(self, node):
        # 23 gates: not a square, so the last grid row is partial.
        netlist = random_logic(node, n_gates=23, seed=9,
                               sequential_fraction=0.2)
        plan = Floorplan(die_width=2e-3, die_height=1.5e-3,
                         digital_region=(0.13e-3, 0.21e-3,
                                         1.37e-3, 1.09e-3),
                         sensor_xy=(1.8e-3, 1.3e-3))
        return SwanSimulator(netlist, plan, mesh_resolution=7, seed=0)

    def test_positions_match_scalar_grid(self, sim):
        names = list(sim.netlist.instances)
        x1, y1, x2, y2 = sim.floorplan.digital_region
        n_cols, n_rows = 5, 5
        expected = [(x1 + (x2 - x1) * (k % n_cols + 0.5) / n_cols,
                     y1 + (y2 - y1) * (k // n_cols + 0.5) / n_rows)
                    for k in range(len(names))]
        xs, ys = sim.floorplan.grid_positions(len(names))
        assert list(zip(xs.tolist(), ys.tolist())) == expected

    def test_node_by_gate_matches_node_at(self, sim):
        xs, ys = sim.floorplan.grid_positions(len(sim.netlist.instances))
        assert sim._node_by_gate.dtype == np.int64
        assert sim._node_by_gate.tolist() == [
            sim.mesh.node_at(x, y) for x, y in zip(xs.tolist(), ys.tolist())]

    def test_code_by_gate_names_each_cell(self, sim):
        assert [sim._cell_names[code] for code in sim._code_by_gate] \
            == [inst.cell.cell_type.name
                for inst in sim.netlist.instances.values()]


class TestBatchedMeshSolve:
    def test_batched_equals_per_column(self):
        mesh = SubstrateMesh(2e-3, 1.5e-3, nx=12, ny=9)
        rng = np.random.default_rng(0)
        currents = rng.normal(scale=1e-4, size=(mesh.n_nodes, 5))
        batched = mesh.solve(currents)
        assert batched.shape == (mesh.n_nodes + 1, 5)
        for k in range(5):
            column = mesh.solve(currents[:, k])
            assert np.array_equal(column, batched[:, k])

    def test_factorization_cached(self):
        mesh = SubstrateMesh(2e-3, 2e-3, nx=8, ny=8)
        mesh.solve(np.ones(mesh.n_nodes))
        solver = mesh._solver
        mesh.solve(np.ones(mesh.n_nodes))
        assert mesh._solver is solver

    def test_rejects_bad_shapes(self):
        mesh = SubstrateMesh(2e-3, 2e-3, nx=8, ny=8)
        with pytest.raises(ModelDomainError):
            mesh.solve(np.ones((2, 2, 2)))
        with pytest.raises(ModelDomainError):
            mesh.solve(np.ones(mesh.n_nodes + 5))
        with pytest.raises(ValueError):
            mesh.solve(np.full(mesh.n_nodes, np.nan))

    def test_rejects_nonfinite_construction(self):
        with pytest.raises(ValueError):
            SubstrateMesh(float("nan"), 2e-3)
        with pytest.raises(ValueError):
            SubstrateProcess(epi_resistivity=float("inf"))
        with pytest.raises(ValueError):
            SubstrateProcess(backside_resistance=-1.0)
