"""Scalar-vs-compiled event-stream equivalence and EventTrace tests.

The compiled engine's contract is *bit-for-bit* equality with the
scalar oracle: identical event times, tie ordering, values, instance
attribution and final net values for identical stimulus.  These tests
pin that contract on hand-built topologies (chain, fanout tree,
reconvergent glitch, DFFs), on the library generators, on a glitch
storm that trips the budget/oscillation guards, on batches that span
several wavefronts with conflicts between them, and on random
hypothesis netlists.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.digital import (CELL_TYPES, Cell, CompiledEventEngine,
                           EventDrivenSimulator, EventTrace, Netlist,
                           clocked_datapath, random_logic,
                           random_stimulus, ripple_adder, soc_netlist)
from repro.digital import simulator_compiled
from repro.robust.errors import ModelDomainError, SimulationBudgetError
from repro.technology import get_node

from netlists import fir_filter, lfsr


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


def assert_streams_equal(result, trace):
    """Bit-for-bit comparison of scalar result vs compiled trace.

    ``SwitchingEvent.__eq__`` compares only the time field, so every
    field is compared explicitly here.
    """
    events = trace.to_events()
    assert len(result.events) == len(events)
    for ref, got in zip(result.events, events):
        assert ref.time == got.time
        assert ref.net == got.net
        assert ref.value == got.value
        assert ref.instance == got.instance
    assert result.final_values == trace.final_values
    assert result.duration == trace.duration


def run_both(netlist, stimulus, n_cycles, initial_state=None, **kwargs):
    result = EventDrivenSimulator(netlist, **kwargs).run(
        stimulus, n_cycles, initial_state=initial_state)
    trace = CompiledEventEngine(netlist, **kwargs).run(
        stimulus, n_cycles, initial_state=initial_state)
    return result, trace


def inverter_chain(node, length=6):
    netlist = Netlist(node)
    netlist.add_input("a")
    net = "a"
    for i in range(length):
        net = netlist.add_gate("INV", [net], f"n{i}").output
    return netlist


def with_drives(netlist, drives):
    """A copy of ``netlist`` whose ``i``-th gate has drive
    ``drives[i % len(drives)]``."""
    sized = Netlist(netlist.node, netlist.name)
    sized.add_inputs(netlist.primary_inputs)
    for inst, drive in zip(netlist.instances.values(),
                           itertools.cycle(drives)):
        sized.add_gate(inst.cell.cell_type.name, inst.inputs,
                       inst.output, drive=drive,
                       instance_name=inst.name)
    return sized


def glitch_storm(node, n_taps=16, spacing=40):
    """XOR accumulation chain over spaced inverter-chain taps.

    Tap spacing exceeds the XOR propagation delay, so each input edge
    reaches the k-th accumulator XOR as ~k distinct transitions --
    per-net toggle counts grow along the chain until a guard trips.
    """
    netlist = Netlist(node)
    netlist.add_input("a")
    src = "a"
    taps = []
    i = 0
    for _ in range(n_taps):
        for _ in range(spacing):
            src = netlist.add_gate("INV", [src], f"c{i}").output
            i += 1
        taps.append(src)
    acc = taps[0]
    for k, tap in enumerate(taps[1:]):
        acc = netlist.add_gate("XOR2", [acc, tap], f"x{k}").output
    return netlist


class TestStreamEquivalence:
    def test_inverter_chain(self, node):
        result, trace = run_both(inverter_chain(node),
                                 {"a": [True, False, True]}, 3,
                                 clock_period=1e-9)
        assert trace.n_events > 0
        assert_streams_equal(result, trace)

    def test_fanout_tree(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        for i in range(8):
            netlist.add_gate("BUF", ["a"], f"t{i}")
        for i in range(4):
            netlist.add_gate("NAND2", [f"t{2 * i}", f"t{2 * i + 1}"],
                             f"u{i}")
        result, trace = run_both(netlist, {"a": [True, False]}, 4,
                                 clock_period=1e-9)
        assert_streams_equal(result, trace)

    def test_reconvergent_glitch(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "ab")
        netlist.add_gate("INV", ["ab"], "abb")
        netlist.add_gate("XOR2", ["a", "abb"], "y")
        netlist.add_gate("XOR2", ["y", "ab"], "z")
        result, trace = run_both(netlist, {"a": [True, False, True]},
                                 3, clock_period=1e-9)
        assert_streams_equal(result, trace)

    def test_lfsr_with_state(self, node):
        result, trace = run_both(lfsr(node, width=8),
                                 {"enable": [True]}, 20,
                                 initial_state={"q0": True},
                                 clock_period=1e-9)
        assert trace.n_events > 10
        assert_streams_equal(result, trace)

    def test_ripple_adder_random_stimulus(self, node):
        adder = ripple_adder(node, width=8)
        stimulus = random_stimulus(adder, 12, seed=3)
        result, trace = run_both(adder, stimulus, 12,
                                 clock_period=1e-9)
        assert_streams_equal(result, trace)

    def test_clocked_datapath(self, node):
        netlist = clocked_datapath(node, adder_width=8, seed=7)
        stimulus = random_stimulus(netlist, 10, seed=5)
        result, trace = run_both(netlist, stimulus, 10,
                                 clock_period=1e-9)
        assert_streams_equal(result, trace)

    def test_fir_filter(self, node):
        netlist = fir_filter(node, n_taps=4, data_width=4)
        stimulus = random_stimulus(netlist, 8, seed=2)
        result, trace = run_both(netlist, stimulus, 8,
                                 clock_period=1e-9)
        assert_streams_equal(result, trace)

    def test_soc_netlist(self, node):
        soc = soc_netlist(node, target_gates=800, n_blocks=2,
                          adder_width=4, seed=3)
        stimulus = random_stimulus(
            soc, 6, seed=1,
            held_high=["en", "blk0_en", "blk1_en"])
        result, trace = run_both(soc, stimulus, 6, clock_period=2e-9)
        assert trace.n_events > 100
        assert_streams_equal(result, trace)

    def test_glitch_storm_stream(self, node):
        storm = glitch_storm(node, n_taps=8)
        result, trace = run_both(storm, {"a": [True, False]}, 2,
                                 clock_period=50e-9)
        assert trace.n_events > 100
        assert_streams_equal(result, trace)

    def test_stimulus_nets_outside_netlist(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "y")
        result, trace = run_both(
            netlist, {"a": [True], "ghost": [True, False]}, 3,
            initial_state={"phantom": True, "y": True},
            clock_period=1e-9)
        assert_streams_equal(result, trace)

    def test_late_events_apply_silently(self, node):
        # A chain much deeper than one clock period: in-horizon
        # events record, late ones only update final values.
        chain = inverter_chain(node, 400)
        result, trace = run_both(chain, {"a": [True, False]}, 2,
                                 clock_period=100e-12)
        assert trace.n_events < 800
        assert_streams_equal(result, trace)


class TestGuardParity:
    @pytest.mark.parametrize("kwargs", [
        {"oscillation_limit": 8},
        {"oscillation_limit": 14},
        {"event_budget": 200, "oscillation_limit": None},
        {"event_budget": 5000, "oscillation_limit": 6},
        {"event_budget": 800, "oscillation_limit": 500},
    ])
    def test_identical_raise(self, node, kwargs):
        storm = glitch_storm(node)
        messages = []
        for cls in (EventDrivenSimulator, CompiledEventEngine):
            sim = cls(storm, clock_period=50e-9, **kwargs)
            with pytest.raises(SimulationBudgetError) as excinfo:
                sim.run({"a": [True, False]}, 2)
            # The wall-clock suffix is the one legitimately
            # run-dependent part of the budget message; mask it and
            # require everything else (counts, net, cycle) identical.
            messages.append(re.sub(
                r"after \S+ s wall-clock", "after <t> s wall-clock",
                str(excinfo.value)))
        assert messages[0] == messages[1]

    def test_unlimited_budget_completes(self, node):
        storm = glitch_storm(node, n_taps=8)
        trace = CompiledEventEngine(
            storm, clock_period=50e-9, event_budget=None,
            oscillation_limit=None).run({"a": [True]}, 1)
        assert trace.n_events > 0

    def test_missing_stimulus_message_parity(self, node):
        chain = inverter_chain(node)
        messages = []
        for cls in (EventDrivenSimulator, CompiledEventEngine):
            with pytest.raises(ModelDomainError) as excinfo:
                cls(chain, clock_period=1e-9).run({}, 1)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_rejects_bad_clock(self, node):
        with pytest.raises(ValueError):
            CompiledEventEngine(inverter_chain(node), clock_period=0.0)

    def test_rejects_zero_cycles(self, node):
        engine = CompiledEventEngine(inverter_chain(node),
                                     clock_period=1e-9)
        with pytest.raises(ValueError):
            engine.run({"a": [True]}, n_cycles=0)

    def test_rejects_empty_pattern(self, node):
        engine = CompiledEventEngine(inverter_chain(node),
                                     clock_period=1e-9)
        with pytest.raises(ModelDomainError, match="empty stimulus"):
            engine.run({"a": []}, n_cycles=1)


class TestEventTrace:
    @pytest.fixture(scope="class")
    def trace(self, node):
        netlist = clocked_datapath(node, adder_width=8, seed=7)
        stimulus = random_stimulus(netlist, 10, seed=5)
        return CompiledEventEngine(netlist, clock_period=1e-9).run(
            stimulus, 10)

    def test_accessors_match_scalar_result(self, node, trace):
        result = trace.to_result()
        assert trace.n_events == len(result.events)
        assert trace.activity_factor(10) == pytest.approx(
            result.activity_factor(10))

    def test_chunks_partition_stream(self, trace):
        chunks = list(trace.chunks(100))
        assert sum(c.n_events for c in chunks) == trace.n_events
        rebuilt = np.concatenate([c.times for c in chunks])
        assert np.array_equal(rebuilt, trace.times)
        assert all(c.n_events <= 100 for c in chunks)

    def test_activity_factor_validates(self, trace):
        with pytest.raises(ValueError):
            trace.activity_factor(0)
        with pytest.raises(ValueError):
            trace.activity_factor(float("nan"))

    def test_empty_trace(self, node):
        chain = inverter_chain(node, 3)
        trace = CompiledEventEngine(chain, clock_period=1e-9).run(
            {"a": [False]}, 3)
        assert trace.n_events == 0
        assert trace.activity_factor(3) == 0.0
        assert trace.to_events() == []


class TestHypothesisEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_gates=st.integers(min_value=5, max_value=40),
           sequential_fraction=st.floats(min_value=0.0, max_value=0.4),
           n_cycles=st.integers(min_value=1, max_value=6),
           drives=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                           min_size=1, max_size=8))
    def test_random_netlists(self, seed, n_gates,
                             sequential_fraction, n_cycles, drives):
        node = get_node("65nm")
        netlist = with_drives(random_logic(
            node, n_gates=n_gates, n_inputs=4, seed=seed,
            sequential_fraction=sequential_fraction), drives)
        stimulus = random_stimulus(netlist, n_cycles, seed=seed + 1)
        result, trace = run_both(netlist, stimulus, n_cycles,
                                 clock_period=1e-9)
        assert_streams_equal(result, trace)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           limit=st.integers(min_value=2, max_value=12))
    def test_random_guard_parity(self, seed, limit):
        node = get_node("65nm")
        storm = glitch_storm(node, n_taps=14)
        outcomes = []
        for cls in (EventDrivenSimulator, CompiledEventEngine):
            sim = cls(storm, clock_period=50e-9,
                      oscillation_limit=limit,
                      event_budget=50_000 + seed)
            try:
                sim.run({"a": [True, False]}, 2)
                outcomes.append("completed")
            except SimulationBudgetError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]


class TestPartitionCache:
    """The conflict-signature partition cache: warm runs replay the
    memoized wavefront partitions bit-for-bit."""

    def test_warm_rerun_is_bitwise_identical(self, node):
        netlist = lfsr(node, width=6)
        engine = CompiledEventEngine(netlist, clock_period=2e-9)
        stimulus = {"enable": [True]}
        cold = engine.run(stimulus, 16, initial_state={"q0": True})
        assert len(engine._partition_cache) > 0
        cached = dict(engine._partition_cache)
        warm = engine.run(stimulus, 16, initial_state={"q0": True})
        assert cold.to_events() is not warm.to_events()
        assert len(cold.to_events()) == len(warm.to_events())
        for ref, got in zip(cold.to_events(), warm.to_events()):
            assert (ref.time, ref.net, ref.value, ref.instance) \
                == (got.time, got.net, got.value, got.instance)
        assert cold.final_values == warm.final_values
        # The warm run only re-reads entries; no signature changes.
        assert engine._partition_cache == cached

    def test_cached_engine_matches_scalar_oracle(self, node):
        netlist = clocked_datapath(node)
        stimulus = random_stimulus(netlist, 12, seed=3)
        engine = CompiledEventEngine(netlist, clock_period=2e-9)
        engine.run(stimulus, 12)  # populate the cache
        result = EventDrivenSimulator(netlist, clock_period=2e-9).run(
            stimulus, 12)
        assert_streams_equal(result, engine.run(stimulus, 12))

    def test_cache_overflow_clears_not_evicts(self, node):
        netlist = inverter_chain(node, 4)
        engine = CompiledEventEngine(netlist, clock_period=1e-9)
        engine.PARTITION_CACHE_MAX = 2
        engine.run({"a": [True, False, True, False]}, 4)
        assert len(engine._partition_cache) <= 2

    def test_single_event_wavefront_not_cached(self, node):
        # m == 1 wavefronts take the fast path without touching the
        # cache; an inverter chain produces only singleton wavefronts.
        netlist = inverter_chain(node, 3)
        engine = CompiledEventEngine(netlist, clock_period=1e-9)
        engine.run({"a": [True]}, 1)
        for signature in engine._partition_cache:
            assert len(signature) > np.dtype(np.int64).itemsize \
                or engine._partition_cache[signature] != (1,)


def record_batches(monkeypatch, engine):
    """Record each batch ``engine.run`` takes: its event times and the
    end of each of its conflict-free groups."""
    batches = []
    batch_end = simulator_compiled._batch_end
    partition = engine._batch_partition

    def recording_end(q_time, q_net, head, limit, reach):
        end = batch_end(q_time, q_net, head, limit, reach)
        batches.append([q_time[head:end].copy()])
        return end

    def recording_partition(batch_net, *args):
        bounds = partition(batch_net, *args)
        batches[-1].append(bounds)
        return bounds

    monkeypatch.setattr(simulator_compiled, "_batch_end", recording_end)
    monkeypatch.setattr(engine, "_batch_partition", recording_partition)
    return batches


def splits_across_wavefronts(batches):
    """True when some group boundary separates two event times: the
    event after it conflicts with an earlier-time event of the batch."""
    return any(times[stop - 1] < times[stop]
               for times, bounds in batches for stop in bounds[:-1])


class TestBatching:
    """One loop step takes every queued event that no event scheduled
    by the step can precede; the stream stays the scalar oracle's."""

    def test_fewer_steps_than_event_times(self, node, monkeypatch):
        soc = soc_netlist(node, target_gates=2000, n_blocks=2, seed=0)
        stimulus = random_stimulus(
            soc, 10, seed=0, held_high=["en", "blk0_en", "blk1_en"])
        engine = CompiledEventEngine(soc, clock_period=1 / 50e6)
        partition = engine._batch_partition
        steps = []

        def counted(batch_net, *args):
            steps.append(batch_net.size)
            return partition(batch_net, *args)

        monkeypatch.setattr(engine, "_batch_partition", counted)
        trace = engine.run(stimulus, 10)
        # One step per wavefront would take at least one step per
        # distinct event time (681 here); batching takes 185.
        assert len(steps) < np.unique(trace.times).size / 2
        assert sum(steps) >= trace.n_events

    def test_reconvergent_fanout_at_mixed_drives(self, node, monkeypatch):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("BUF", ["a"], "fast", drive=4)
        netlist.add_gate("INV", ["a"], "slow", drive=0.5)
        netlist.add_gate("INV", ["slow"], "slower", drive=1)
        netlist.add_gate("XOR2", ["fast", "slow"], "x", drive=2)
        netlist.add_gate("NAND2", ["x", "slower"], "y", drive=0.5)
        netlist.add_gate("MUX2", ["fast", "x", "y"], "z", drive=1)
        netlist.add_gate("XNOR2", ["z", "slow"], "w", drive=4)
        stimulus = {"a": [True, False, False, True]}
        engine = CompiledEventEngine(netlist, clock_period=1e-9)
        batches = record_batches(monkeypatch, engine)
        trace = engine.run(stimulus, 4)
        result = EventDrivenSimulator(netlist, clock_period=1e-9).run(
            stimulus, 4)
        assert splits_across_wavefronts(batches)
        assert_streams_equal(result, trace)

    def test_several_inputs_switch_at_once(self, node, monkeypatch):
        netlist = Netlist(node)
        netlist.add_inputs(["a", "b", "c", "d"])
        netlist.add_gate("NAND2", ["a", "b"], "p", drive=0.5)
        netlist.add_gate("NOR2", ["b", "c"], "q", drive=4)
        netlist.add_gate("XOR2", ["c", "d"], "r", drive=1)
        netlist.add_gate("XOR2", ["p", "q"], "s", drive=2)
        netlist.add_gate("AOI21", ["q", "r", "a"], "t", drive=0.5)
        netlist.add_gate("MUX2", ["s", "r", "t"], "u", drive=1)
        netlist.add_gate("NAND3", ["s", "t", "u"], "v", drive=4)
        stimulus = {"a": [True, False, True, False],
                    "b": [True, True, False, False],
                    "c": [False, True, True, False],
                    "d": [True, False, False, True]}
        engine = CompiledEventEngine(netlist, clock_period=1e-9)
        batches = record_batches(monkeypatch, engine)
        trace = engine.run(stimulus, 8)
        result = EventDrivenSimulator(netlist, clock_period=1e-9).run(
            stimulus, 8)
        assert splits_across_wavefronts(batches)
        assert_streams_equal(result, trace)

    @pytest.mark.parametrize("look_ahead", [1, 2, 7])
    def test_any_batch_prefix_is_exact(self, node, monkeypatch,
                                       look_ahead):
        # A look-ahead cap cuts batches short; the stream must not move.
        monkeypatch.setattr(simulator_compiled, "_LOOKAHEAD", look_ahead)
        soc = soc_netlist(node, target_gates=800, n_blocks=2,
                          adder_width=4, seed=3)
        stimulus = random_stimulus(
            soc, 6, seed=1, held_high=["en", "blk0_en", "blk1_en"])
        result, trace = run_both(soc, stimulus, 6, clock_period=2e-9)
        assert_streams_equal(result, trace)

    def test_budget_trips_mid_batch(self, node, monkeypatch):
        # Find events that are neither the first of their batch nor at
        # its first time, then trip the budget at each of them.
        soc = soc_netlist(node, target_gates=800, n_blocks=2,
                          adder_width=4, seed=3)
        stimulus = random_stimulus(
            soc, 6, seed=1, held_high=["en", "blk0_en", "blk1_en"])
        engine = CompiledEventEngine(soc, clock_period=2e-9)
        batches = record_batches(monkeypatch, engine)
        times = engine.run(stimulus, 6).times
        mid_batch = []
        for (first, *_), (following, *_) in zip(batches, batches[1:]):
            k = int(np.searchsorted(times, first[0], side="right"))
            if k < times.size and times[k] <= first[-1] \
                    and times[k] < following[0]:
                mid_batch.append(k)
        assert len(mid_batch) >= 3
        for budget in (mid_batch[0], mid_batch[len(mid_batch) // 2],
                       mid_batch[-1]):
            messages = []
            for cls in (EventDrivenSimulator, CompiledEventEngine):
                sim = cls(soc, clock_period=2e-9, event_budget=budget)
                with pytest.raises(SimulationBudgetError) as excinfo:
                    sim.run(stimulus, 6)
                messages.append(re.sub(
                    r"after \S+ s wall-clock", "after <t> s wall-clock",
                    str(excinfo.value)))
            assert messages[0] == messages[1]
            assert f"{budget + 1}" in messages[0]


class TestLowering:
    """The compile agrees exactly with the netlist's views."""

    @pytest.fixture(scope="class")
    def soc(self, node):
        return soc_netlist(node, target_gates=1500, n_blocks=3, seed=4)

    def test_delays_match_fanout_capacitance(self, soc):
        engine = CompiledEventEngine(soc)
        for g, inst in enumerate(soc.instances.values()):
            assert engine._delays[g] == inst.cell.delay(
                soc.fanout_capacitance(inst.output))

    def test_nets_and_combinational_loads(self, soc):
        engine = CompiledEventEngine(soc)
        assert engine._net_names == tuple(soc.nets)
        gate_of = {name: g for g, name in enumerate(soc.instances)}
        for k, net in enumerate(engine._net_names):
            start = engine._csr_start[k]
            loads = engine._csr_gates[start:start + engine._csr_count[k]]
            assert loads.tolist() == [gate_of[inst.name]
                                      for inst in soc.loads_of(net)
                                      if not inst.is_sequential]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_net_order_with_inputs_declared_late(self, data):
        # Inputs declared after the gates that read them, undriven
        # nets and unread inputs: the compile still numbers the nets
        # in Netlist.nets order.
        inputs = [f"i{k}" for k in range(data.draw(st.integers(1, 5)))]
        early = data.draw(st.lists(st.sampled_from(inputs), unique=True))
        netlist = Netlist(get_node("65nm"))
        netlist.add_inputs(early)
        pool = inputs + ["float0", "float1"]
        for _ in range(data.draw(st.integers(0, 12))):
            name = data.draw(st.sampled_from(sorted(CELL_TYPES)))
            pins = data.draw(st.lists(
                st.sampled_from(pool), min_size=CELL_TYPES[name].n_inputs,
                max_size=CELL_TYPES[name].n_inputs))
            pool.append(netlist.add_gate(name, pins).output)
        netlist.add_inputs([net for net in inputs if net not in early])
        engine = CompiledEventEngine(netlist)
        assert engine._net_names == tuple(netlist.nets)

    def test_levels_follow_topological_order(self, soc):
        engine = CompiledEventEngine(soc)
        gate_of = {name: g for g, name in enumerate(soc.instances)}
        topo = {gate_of[inst.name]: k
                for k, inst in enumerate(soc.topological_order())
                if not inst.is_sequential}
        level_of = {}
        for depth, gates in enumerate(engine._levels):
            level_of.update(dict.fromkeys(gates.tolist(), depth))
            position = [topo[g] for g in gates.tolist()]
            assert position == sorted(position)
        assert sorted(level_of) == sorted(topo)
        for inst in soc.instances.values():
            if inst.is_sequential:
                continue
            drivers = [soc.driver_of(net) for net in inst.inputs]
            depths = [level_of[gate_of[d.name]] + 1 for d in drivers
                      if d is not None and not d.is_sequential]
            assert level_of[gate_of[inst.name]] == max(depths, default=0)

    WIRE_CAP = 1.3e-15

    @pytest.fixture(scope="class")
    def mixed(self, node):
        """Every cell type at four drives, nets repeated on the pins of
        one gate, and fanouts that mix cell types and drives."""
        netlist = Netlist(node)
        nets = netlist.add_inputs(["x", "b", "c", "s"])
        nets.append(netlist.add_gate("INV", ["x"], "a", drive=2).output)
        nets.append(netlist.add_gate("NAND2", ["a", "a"], drive=2).output)
        nets.append(netlist.add_gate("MUX2", ["s", "a", "a"],
                                     drive=0.5).output)
        for k, (name, drive) in enumerate(
                itertools.product(CELL_TYPES, (0.5, 1, 2, 4))):
            pins = [nets[(5 * k + 3 * pin) % len(nets)]
                    for pin in range(CELL_TYPES[name].n_inputs)]
            nets.append(netlist.add_gate(name, pins, drive=drive).output)
        return netlist

    def test_delays_at_mixed_drives(self, mixed):
        engine = CompiledEventEngine(mixed,
                                     wire_cap_per_fanout=self.WIRE_CAP)
        for g, inst in enumerate(mixed.instances.values()):
            assert engine._delays[g] == inst.cell.delay(
                mixed.fanout_capacitance(inst.output, self.WIRE_CAP))

    def test_one_delay_call_per_kind(self, mixed, monkeypatch):
        calls = []
        delay = Cell.delay

        def counted(cell, *args, **kwargs):
            calls.append((cell.cell_type.name, cell.drive))
            return delay(cell, *args, **kwargs)

        def forbidden(netlist):
            raise AssertionError("compile called topological_order")

        monkeypatch.setattr(Cell, "delay", counted)
        monkeypatch.setattr(Netlist, "topological_order", forbidden)
        CompiledEventEngine(mixed)
        kinds = {(inst.cell.cell_type.name, inst.cell.drive)
                 for inst in mixed.instances.values()}
        assert len(kinds) == 4 * len(CELL_TYPES)
        assert sorted(calls) == sorted(kinds)

    def test_combinational_loop_rejected(self, node):
        netlist = Netlist(node)
        netlist.add_inputs(["a", "en"])
        netlist.add_gate("DFF", ["en", "d"], "q")
        netlist.add_gate("INV", ["a"], "b")
        netlist.add_gate("NAND2", ["b", "d"], "c")
        netlist.add_gate("XOR2", ["c", "q"], "d")
        with pytest.raises(ModelDomainError,
                           match=r"^netlist contains a combinational loop$"):
            CompiledEventEngine(netlist)
