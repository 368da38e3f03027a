"""Performance gates for the compiled streaming event engine (PR 7).

Acceptance gates:

* On a >= 5k-gate netlist, ``CompiledEventEngine.run`` is >= 10x
  faster than the retained scalar ``EventDrivenSimulator`` for the
  same stimulus (bit-identical event streams -- equivalence itself is
  pinned in tier-1, ``tests/digital/test_simulator_compiled.py``).
  The workload is a clock-distribution buffer tree -- the Fig. 5
  wire-skew structure -- whose wide wavefronts are exactly what the
  batched dispatch exists for; the SoC flow below covers the
  narrow-cascade regime.
* The end-to-end activity -> substrate-noise flow streams a >= 50k-gate
  SoC trace through SWAN in bounded time with **zero** per-event
  Python objects on the hot path (``SwitchingEvent.__new__`` is
  booby-trapped for the duration).
* Nightly (``-m slow``): the same flow at >= 100k gates.

As in ``test_perf_ssta.py`` the speedup is asserted with our own
``perf_counter`` measurement (warm engines, construction outside the
timed region) so the gates also hold under ``--benchmark-disable``
(the CI mode).  Both tier gates record their numbers under the BENCH
key ``event_engine``: the clock tree's compiled and scalar times and
speedup, and the 50k-gate flow's elapsed time with its run loop's
steps against the trace's distinct event times (one step per
wavefront would take at least one step per distinct time).
"""

import time

import numpy as np
import pytest

from conftest import record_bench
from repro.digital import (CompiledEventEngine, EventDrivenSimulator,
                           Netlist, random_stimulus, soc_netlist)
from repro.digital import simulator as simulator_module
from repro.substrate import SwanSimulator
from repro.technology import get_node

CLOCK_PERIOD = 20e-9
N_CYCLES = 12

#: This module's BENCH entry, filled in by each gate as it runs.
EVENT_ENGINE = {}


def record_event_engine(**fields):
    """Merge ``fields`` into the ``event_engine`` BENCH entry."""
    EVENT_ENGINE.update(fields)
    record_bench("event_engine", dict(EVENT_ENGINE))


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def clock_tree(node, fanout=4, depth=6):
    """A clock-distribution buffer tree (the Fig. 5 skew structure)."""
    netlist = Netlist(node, "clocktree")
    netlist.add_input("clk")
    frontier = ["clk"]
    count = 0
    for level in range(depth):
        cell = "INV" if level % 2 == 0 else "BUF"
        grown = []
        for parent in frontier:
            for _ in range(fanout):
                out = f"b{count}"
                count += 1
                netlist.add_gate(cell, [parent], out)
                grown.append(out)
        frontier = grown
    return netlist


def soc_workload(target_gates, n_blocks=8, seed=0, n_cycles=N_CYCLES):
    node = get_node("65nm")
    netlist = soc_netlist(node, target_gates=target_gates,
                          n_blocks=n_blocks, seed=seed)
    enables = ["en"] + [f"blk{b}_en" for b in range(n_blocks)]
    stimulus = random_stimulus(netlist, n_cycles, seed=seed,
                               held_high=enables)
    return netlist, stimulus


@pytest.fixture()
def no_event_objects(monkeypatch):
    """Fail the test if anything allocates a SwitchingEvent."""

    def trap(cls, *args, **kwargs):
        pytest.fail("per-event SwitchingEvent allocated on the hot path")

    monkeypatch.setattr(simulator_module.SwitchingEvent, "__new__",
                        trap)


@pytest.mark.benchmark(group="perf_simulator")
def test_compiled_engine_speedup(benchmark):
    """Acceptance: compiled >= 10x scalar on a >= 5k-gate netlist."""
    netlist = clock_tree(get_node("65nm"))
    assert netlist.gate_count() >= 5_000
    stimulus = {"clk": [True, False]}
    n_cycles = 6
    engine = CompiledEventEngine(netlist, clock_period=CLOCK_PERIOD,
                                 event_budget=10_000_000)
    scalar_sim = EventDrivenSimulator(netlist,
                                      clock_period=CLOCK_PERIOD,
                                      event_budget=10_000_000)

    trace = benchmark(lambda: engine.run(stimulus, n_cycles))
    result = scalar_sim.run(stimulus, n_cycles)
    assert trace.n_events == len(result.events) > 10_000

    t_scalar = best_of(lambda: scalar_sim.run(stimulus, n_cycles),
                       repeats=2)
    t_compiled = best_of(lambda: engine.run(stimulus, n_cycles),
                         repeats=3)
    print(f"\nevent sim n_gates={netlist.gate_count()}"
          f" n_events={trace.n_events}:"
          f" scalar={t_scalar * 1e3:.0f} ms"
          f" compiled={t_compiled * 1e3:.1f} ms"
          f" speedup={t_scalar / t_compiled:.0f}x")
    record_event_engine(
        clock_tree_gates=netlist.gate_count(),
        clock_tree_events=trace.n_events,
        clock_tree_scalar_ms=round(t_scalar * 1e3, 1),
        clock_tree_compiled_ms=round(t_compiled * 1e3, 2),
        clock_tree_speedup=round(t_scalar / t_compiled, 1),
        clock_tree_gate=">= 10x")
    assert t_scalar / t_compiled >= 10.0


@pytest.mark.benchmark(group="perf_simulator")
def test_soc_activity_to_noise_50k(benchmark, no_event_objects,
                                   monkeypatch):
    """End-to-end 50k-gate activity -> streamed substrate noise,
    no per-event object anywhere on the compiled path."""
    netlist, stimulus = soc_workload(50_000)
    engine = CompiledEventEngine(netlist, clock_period=CLOCK_PERIOD,
                                 event_budget=10_000_000)
    swan = SwanSimulator(netlist, mesh_resolution=10,
                         clock_frequency=1.0 / CLOCK_PERIOD, seed=0)

    def flow():
        trace = engine.run(stimulus, N_CYCLES)
        return trace, swan.stream_noise(trace, chunk_events=100_000)

    trace, wave = benchmark(flow)
    # Count the run loop's steps (one partition each) in the timed run.
    steps = []
    partition = engine._batch_partition

    def counted(batch_net, *args):
        steps.append(batch_net.size)
        return partition(batch_net, *args)

    monkeypatch.setattr(engine, "_batch_partition", counted)
    elapsed = best_of(flow, repeats=1)
    event_times = np.unique(trace.times).size
    print(f"\nSoC flow n_gates={netlist.gate_count()}"
          f" n_events={trace.n_events}"
          f" rms={wave.rms * 1e6:.2f} uV"
          f" elapsed={elapsed:.2f} s"
          f" steps={len(steps)} event_times={event_times}")
    record_event_engine(
        soc_flow_gates=netlist.gate_count(),
        soc_flow_events=trace.n_events,
        soc_flow_elapsed_s=round(elapsed, 3),
        soc_flow_loop_steps=len(steps),
        soc_flow_event_times=event_times)
    assert trace.n_events > 50_000
    assert np.isfinite(wave.voltage).all()
    assert wave.peak_to_peak > 0.0
    assert elapsed < 30.0


@pytest.mark.slow
@pytest.mark.benchmark(group="perf_simulator")
def test_soc_activity_to_noise_100k_nightly(benchmark,
                                            no_event_objects):
    """Nightly scale point: >= 100k gates through the full flow."""
    netlist, stimulus = soc_workload(100_000, seed=1)
    assert netlist.gate_count() >= 100_000
    engine = CompiledEventEngine(netlist, clock_period=CLOCK_PERIOD,
                                 event_budget=50_000_000)
    swan = SwanSimulator(netlist, mesh_resolution=10,
                         clock_frequency=1.0 / CLOCK_PERIOD, seed=1)

    def flow():
        trace = engine.run(stimulus, N_CYCLES)
        return trace, swan.stream_noise(trace, chunk_events=100_000)

    trace, wave = benchmark(flow)
    print(f"\nSoC flow n_gates={netlist.gate_count()}"
          f" n_events={trace.n_events}"
          f" rms={wave.rms * 1e6:.2f} uV")
    assert trace.n_events > 100_000
    assert np.isfinite(wave.voltage).all()
