"""Performance benchmarks of the batched execution engines (PR 2).

Each benchmark times the vectorized path with pytest-benchmark and
*asserts* the speedup over the retained scalar oracle using its own
``time.perf_counter`` measurement, so the acceptance criteria hold
even under ``--benchmark-disable`` (the CI mode).  Numerical
equivalence itself is covered by the tier-1 tests
(``tests/variability/test_batch_sampling.py``,
``tests/substrate/test_swan_vectorized.py``); here we only gate the
speed.
"""

import itertools
import time

import numpy as np
import pytest

from repro.digital import clocked_datapath
from repro.exec import YieldWorkload, run_sharded
from repro.substrate.swan import SwanSimulator
from repro.technology import get_node
from repro.thermal import ThermalMesh
from repro.variability import (MonteCarloSampler, VariationSpec,
                               monte_carlo_yield,
                               monte_carlo_yield_batch)

N_DIES = 1000


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def scalar_yield():
    sampler = MonteCarloSampler(get_node("65nm"), VariationSpec(),
                                seed=1)
    return monte_carlo_yield(sampler, lambda die: abs(die.vth_global),
                             0.03, n_dies=N_DIES)


def batched_yield():
    sampler = MonteCarloSampler(get_node("65nm"), VariationSpec(),
                                seed=1)
    return monte_carlo_yield_batch(
        sampler, lambda batch: np.abs(batch.vth_global), 0.03,
        n_dies=N_DIES)


@pytest.mark.benchmark(group="perf_sampling")
def test_batched_mc_speedup(benchmark):
    """Acceptance: batched MC >= 10x scalar at n_dies = 1000."""
    result = benchmark(batched_yield)
    assert result == scalar_yield()   # identical draws, identical yield
    t_scalar = best_of(scalar_yield)
    t_batch = best_of(batched_yield)
    print(f"\nMC yield n_dies={N_DIES}: scalar={t_scalar * 1e3:.2f} ms"
          f" batched={t_batch * 1e3:.3f} ms"
          f" speedup={t_scalar / t_batch:.0f}x")
    assert t_scalar / t_batch >= 10.0


@pytest.mark.benchmark(group="perf_sampling")
def test_batched_device_sampling_speedup(benchmark):
    """1000 dies x 16 devices: batch beats the per-device loop."""
    node = get_node("65nm")
    spec = VariationSpec()
    width = 4.0 * node.feature_size

    def scalar():
        sampler = MonteCarloSampler(node, spec, seed=2)
        for die in sampler.sample_dies(N_DIES):
            for _ in range(16):
                die.sample_device(width)

    def batched():
        MonteCarloSampler(node, spec, seed=2).sample_dies_batch(
            N_DIES, n_devices=16, width=width)

    benchmark(batched)
    t_scalar = best_of(scalar, repeats=2)
    t_batch = best_of(batched, repeats=2)
    print(f"\ndevice sampling: scalar={t_scalar * 1e3:.1f} ms"
          f" batched={t_batch * 1e3:.1f} ms"
          f" speedup={t_scalar / t_batch:.1f}x")
    assert t_scalar / t_batch >= 4.0


@pytest.mark.benchmark(group="perf_sampling")
def test_sharded_yield_costs_one_draw(benchmark):
    """8 serial shards of 400k dies cost about one unsharded run.

    The shards of one population replay a single memoized inter-die
    draw and return bit-packed pass vectors, so sharding adds little
    on top of the draw.  Every run takes a fresh seed: a repeated seed
    would replay the previous run's draw.  Measured on a 2-core x86_64
    host: 7.5-8.7x when every shard redrew the population and returned
    bool lists, 1.3-1.5x with the replayed draw and packed payloads.
    """
    seeds = itertools.count(100)

    def sharded():
        workload = YieldWorkload("65nm", "vth-shift", 0.03,
                                 n_dies=400_000, seed=next(seeds))
        return run_sharded(workload, n_shards=8, env_chaos=False)

    def unsharded():
        sampler = MonteCarloSampler(get_node("65nm"), seed=next(seeds))
        return monte_carlo_yield_batch(
            sampler, lambda batch: np.abs(batch.vth_global), 0.03,
            n_dies=400_000)

    benchmark.pedantic(sharded, rounds=1)
    t_sharded = best_of(sharded)
    t_unsharded = best_of(unsharded)
    print(f"\nyield 400k dies: 8 shards={t_sharded * 1e3:.1f} ms"
          f" unsharded={t_unsharded * 1e3:.1f} ms"
          f" ratio={t_sharded / t_unsharded:.2f}x")
    assert t_sharded <= 2.5 * t_unsharded


@pytest.fixture(scope="module")
def swan_setup():
    node = get_node("350nm")
    netlist = clocked_datapath(node, adder_width=16, n_slices=8,
                               seed=2)
    sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)
    activity = sim.simulate_activity(n_cycles=40, stimulus_seed=0)
    return netlist, activity


@pytest.mark.benchmark(group="perf_swan")
def test_swan_detailed_superposition_speedup(benchmark, swan_setup):
    """Detailed-waveform superposition: array path beats the loop."""
    netlist, activity = swan_setup

    # The oracle loop takes the object-form event list; convert it
    # once, outside the timed function.
    events = activity.to_result()

    def scalar():
        sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)
        return sim._injected_currents_scalar(events, detailed=True)

    def vectorized():
        sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)
        return sim.injected_currents(activity, detailed=True)

    benchmark(vectorized)
    t_scalar = best_of(scalar, repeats=2)
    t_vector = best_of(vectorized, repeats=2)
    print(f"\nSWAN detailed superposition: scalar={t_scalar * 1e3:.1f}"
          f" ms vectorized={t_vector * 1e3:.1f} ms"
          f" speedup={t_scalar / t_vector:.1f}x")
    assert t_scalar / t_vector >= 2.0


@pytest.mark.benchmark(group="perf_swan")
def test_swan_propagation(benchmark, swan_setup):
    """End-to-end injected-currents + matvec propagation timing."""
    netlist, activity = swan_setup
    sim = SwanSimulator(netlist, mesh_resolution=12, seed=0)

    def run():
        t, currents = sim.injected_currents(activity)
        return sim.propagate(t, currents)

    waveform = benchmark(run)
    assert waveform.rms > 0


@pytest.mark.benchmark(group="perf_mesh")
def test_mesh_assembly_speedup(benchmark):
    """Sliced-edge-list assembly beats the per-node stamp loop."""
    mesh = ThermalMesh(5e-3, 5e-3, nx=60, ny=60)

    def scalar():
        from scipy import sparse
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
                node = j * mesh.nx + i
                if i + 1 < mesh.nx:
                    stamp(node, node + 1, g_h)
                if j + 1 < mesh.ny:
                    stamp(node, node + mesh.nx, g_v)
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend([g_down] * n)
        return sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))

    benchmark(mesh.conductance_matrix)
    t_scalar = best_of(scalar)
    t_vector = best_of(mesh.conductance_matrix)
    print(f"\nmesh assembly {mesh.nx}x{mesh.ny}:"
          f" scalar={t_scalar * 1e3:.1f} ms"
          f" vectorized={t_vector * 1e3:.1f} ms"
          f" speedup={t_scalar / t_vector:.1f}x")
    assert t_scalar / t_vector >= 3.0
