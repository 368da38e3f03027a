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
  Python objects on the hot path (``SwitchingEvent.__init__`` is
  booby-trapped for the duration).
* The stream's tracemalloc peak stays under a few time-axis rows
  plus a few words per event of one chunk (``16 * n_times * 8 +
  64 * chunk events`` bytes): no ``(mesh nodes x samples)`` current
  matrix is built.
* Nightly (``-m slow``): the same flow at >= 100k gates.

As in ``test_perf_ssta.py`` the speedup is asserted with our own
``perf_counter`` measurement (warm engines, construction outside the
timed region) so the gates also hold under ``--benchmark-disable``
(the CI mode).  Both tier gates record their numbers under the BENCH
key ``event_engine``: the clock tree's compiled and scalar times and
speedup, and the 50k-gate flow's netlist build, compile, SWAN set-up
and streaming times, the stream's memory peak, and its elapsed time
with its run loop's steps against the trace's distinct event times
(one step per wavefront would take at least one step per distinct
time).  The flow's stage times -- netlist, compile, stimulus, SWAN
set-up, engine run and streaming -- split the whole request.
"""

import time
import tracemalloc

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
#: Events per streamed chunk in the SoC flows.
CHUNK_EVENTS = 100_000

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
    """The SoC, its stimulus, and the netlist's and the stimulus's
    build times [s]."""
    node = get_node("65nm")
    start = time.perf_counter()
    netlist = soc_netlist(node, target_gates=target_gates,
                          n_blocks=n_blocks, seed=seed)
    build_s = time.perf_counter() - start
    enables = ["en"] + [f"blk{b}_en" for b in range(n_blocks)]
    start = time.perf_counter()
    stimulus = random_stimulus(netlist, n_cycles, seed=seed,
                               held_high=enables)
    stimulus_s = time.perf_counter() - start
    return netlist, stimulus, build_s, stimulus_s


@pytest.fixture()
def no_event_objects(monkeypatch):
    """Fail the test if anything allocates a SwitchingEvent."""

    def trap(self, *args, **kwargs):
        pytest.fail("per-event SwitchingEvent allocated on the hot path")

    # The dataclass's own __init__, so undoing the patch restores it: a
    # patched inherited __new__ is undone by setting object.__new__ on
    # the class, which then rejects every later SwitchingEvent's fields.
    monkeypatch.setattr(simulator_module.SwitchingEvent, "__init__",
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
    netlist, stimulus, netlist_s, stimulus_s = soc_workload(50_000)
    start = time.perf_counter()
    engine = CompiledEventEngine(netlist, clock_period=CLOCK_PERIOD,
                                 event_budget=10_000_000)
    compile_s = time.perf_counter() - start
    start = time.perf_counter()
    swan = SwanSimulator(netlist, mesh_resolution=10,
                         clock_frequency=1.0 / CLOCK_PERIOD, seed=0)
    swan_init_s = time.perf_counter() - start

    def flow():
        trace = engine.run(stimulus, N_CYCLES)
        return trace, swan.stream_noise(trace, chunk_events=CHUNK_EVENTS)

    trace, wave = benchmark(flow)
    run_s = best_of(lambda: engine.run(stimulus, N_CYCLES), repeats=1)
    # Count the run loop's steps (one partition each) in the timed run.
    steps = []
    partition = engine._batch_partition

    def counted(batch_net, *args):
        steps.append(batch_net.size)
        return partition(batch_net, *args)

    monkeypatch.setattr(engine, "_batch_partition", counted)
    elapsed = best_of(flow, repeats=1)
    stream_s = best_of(
        lambda: swan.stream_noise(trace, chunk_events=CHUNK_EVENTS),
        repeats=1)
    tracemalloc.start()
    try:
        swan.stream_noise(trace, chunk_events=CHUNK_EVENTS)
        _, stream_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_bound = (16 * wave.time.size * 8
                  + 64 * min(trace.n_events, CHUNK_EVENTS))
    event_times = np.unique(trace.times).size
    print(f"\nSoC flow n_gates={netlist.gate_count()}"
          f" n_events={trace.n_events}"
          f" rms={wave.rms * 1e6:.2f} uV"
          f" netlist={netlist_s * 1e3:.0f} ms"
          f" compile={compile_s * 1e3:.0f} ms"
          f" stimulus={stimulus_s * 1e3:.1f} ms"
          f" run={run_s * 1e3:.0f} ms"
          f" swan_init={swan_init_s * 1e3:.0f} ms"
          f" stream={stream_s * 1e3:.0f} ms"
          f" stream_peak={stream_peak / 1e6:.2f} MB"
          f" (bound {peak_bound / 1e6:.2f} MB)"
          f" elapsed={elapsed:.2f} s"
          f" steps={len(steps)} event_times={event_times}")
    record_event_engine(
        soc_flow_gates=netlist.gate_count(),
        soc_flow_events=trace.n_events,
        soc_flow_netlist_s=round(netlist_s, 3),
        soc_flow_compile_s=round(compile_s, 3),
        soc_flow_stimulus_s=round(stimulus_s, 4),
        soc_flow_run_s=round(run_s, 3),
        soc_flow_swan_init_s=round(swan_init_s, 3),
        soc_flow_stream_s=round(stream_s, 3),
        soc_flow_stream_peak_mb=round(stream_peak / 1e6, 3),
        soc_flow_elapsed_s=round(elapsed, 3),
        soc_flow_loop_steps=len(steps),
        soc_flow_event_times=event_times)
    assert trace.n_events > 50_000
    assert np.isfinite(wave.voltage).all()
    assert wave.peak_to_peak > 0.0
    assert stream_peak < peak_bound
    assert elapsed < 30.0


@pytest.mark.slow
@pytest.mark.benchmark(group="perf_simulator")
def test_soc_activity_to_noise_100k_nightly(benchmark,
                                            no_event_objects):
    """Nightly scale point: >= 100k gates through the full flow."""
    netlist, stimulus, _, _ = soc_workload(100_000, seed=1)
    assert netlist.gate_count() >= 100_000
    engine = CompiledEventEngine(netlist, clock_period=CLOCK_PERIOD,
                                 event_budget=50_000_000)
    swan = SwanSimulator(netlist, mesh_resolution=10,
                         clock_frequency=1.0 / CLOCK_PERIOD, seed=1)

    def flow():
        trace = engine.run(stimulus, N_CYCLES)
        return trace, swan.stream_noise(trace, chunk_events=CHUNK_EVENTS)

    trace, wave = benchmark(flow)
    print(f"\nSoC flow n_gates={netlist.gate_count()}"
          f" n_events={trace.n_events}"
          f" rms={wave.rms * 1e6:.2f} uV")
    assert trace.n_events > 100_000
    assert np.isfinite(wave.voltage).all()
