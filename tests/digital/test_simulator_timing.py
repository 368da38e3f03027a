"""Tests for the event-driven simulator and static timing analysis."""

import pytest

from repro.digital import (EventDrivenSimulator, Netlist,
                           StaticTimingAnalyzer, delay_under_mismatch,
                           random_stimulus, ripple_adder)
from repro.technology import get_node

from netlists import lfsr


def critical_delay(netlist, **kwargs):
    """Critical-path delay [s] of one STA run."""
    return StaticTimingAnalyzer(netlist, **kwargs).analyze().critical_delay


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


def inverter_chain(node, length=4):
    netlist = Netlist(node)
    netlist.add_input("a")
    net = "a"
    for i in range(length):
        net = netlist.add_gate("INV", [net], f"n{i}").output
    return netlist


class TestSimulator:
    def test_input_toggle_propagates(self, node):
        chain = inverter_chain(node, 4)
        sim = EventDrivenSimulator(chain, clock_period=1e-9)
        result = sim.run({"a": [True, False]}, n_cycles=2)
        # Each input change flips all four inverters.
        assert sum(e.net == "n3" for e in result.events) == 2

    def test_event_times_increase_along_chain(self, node):
        chain = inverter_chain(node, 4)
        sim = EventDrivenSimulator(chain, clock_period=1e-9)
        result = sim.run({"a": [True]}, n_cycles=1)
        times = {e.net: e.time for e in result.events}
        assert times["n0"] < times["n1"] < times["n2"] < times["n3"]

    def test_no_activity_without_input_change(self, node):
        chain = inverter_chain(node, 3)
        sim = EventDrivenSimulator(chain, clock_period=1e-9)
        result = sim.run({"a": [False]}, n_cycles=3)
        assert result.events == []

    def test_glitch_suppression_same_value(self, node):
        """Events that do not change a net's value are dropped."""
        netlist = Netlist(node)
        netlist.add_inputs(["a", "b"])
        netlist.add_gate("AND2", ["a", "b"], "y")
        sim = EventDrivenSimulator(netlist, clock_period=1e-9)
        result = sim.run({"a": [True], "b": [False]}, n_cycles=2)
        assert [e for e in result.events if e.net == "y"] == []

    def test_lfsr_produces_activity(self, node):
        netlist = lfsr(node, width=8)
        sim = EventDrivenSimulator(netlist, clock_period=1e-9)
        stimulus = {"enable": [True]}
        result = sim.run(stimulus, n_cycles=20,
                         initial_state={"q0": True})
        assert len(result.events) > 10

    def test_missing_stimulus_raises(self, node):
        chain = inverter_chain(node)
        sim = EventDrivenSimulator(chain, clock_period=1e-9)
        with pytest.raises(ValueError, match="stimulus"):
            sim.run({}, n_cycles=1)

    def test_rejects_bad_clock(self, node):
        with pytest.raises(ValueError):
            EventDrivenSimulator(inverter_chain(node), clock_period=0.0)

    def test_rejects_zero_cycles(self, node):
        sim = EventDrivenSimulator(inverter_chain(node),
                                   clock_period=1e-9)
        with pytest.raises(ValueError):
            sim.run({"a": [True]}, n_cycles=0)

    def test_activity_factor(self, node):
        chain = inverter_chain(node, 2)
        sim = EventDrivenSimulator(chain, clock_period=1e-9)
        result = sim.run({"a": [True, False]}, n_cycles=4)
        assert 0 < result.activity_factor(4) <= 1.5

    def test_random_stimulus_shapes(self, node):
        adder = ripple_adder(node, width=4)
        stim = random_stimulus(adder, 10, seed=0)
        assert set(stim) == set(adder.primary_inputs)
        assert len(stim["a0"]) == 10


class TestSta:
    def test_chain_delay_additive(self, node):
        short = critical_delay(inverter_chain(node, 2))
        long = critical_delay(inverter_chain(node, 6))
        assert long == pytest.approx(3.0 * short, rel=0.3)

    def test_critical_path_names_gates(self, node):
        chain = inverter_chain(node, 4)
        report = StaticTimingAnalyzer(chain).analyze()
        assert report.critical_path == ("u0", "u1", "u2", "u3")

    def test_adder_critical_path_through_carries(self, node):
        adder = ripple_adder(node, width=8)
        report = StaticTimingAnalyzer(adder).analyze()
        assert len(report.critical_path) >= 8

    def test_global_vth_offset_slows(self, node):
        adder = ripple_adder(node, width=4)
        nominal = critical_delay(adder)
        slow = critical_delay(adder, global_vth_offset=0.05)
        assert slow > nominal

    def test_max_frequency_and_slack(self, node):
        chain = inverter_chain(node, 4)
        report = StaticTimingAnalyzer(chain).analyze()
        assert report.max_frequency() == pytest.approx(
            1.0 / report.critical_delay)

    def test_empty_netlist(self, node):
        empty = Netlist(node)
        report = StaticTimingAnalyzer(empty).analyze()
        assert report.critical_delay == 0.0

    def test_sequential_cells_are_startpoints(self, node):
        netlist = Netlist(node)
        netlist.add_input("en")
        netlist.add_gate("INV", ["q"], "d")
        netlist.add_gate("DFF", ["en", "d"], "q")
        report = StaticTimingAnalyzer(netlist).analyze()
        assert report.critical_delay > 0


class TestMismatchDelays:
    def test_mismatch_widens_distribution(self, node):
        adder = ripple_adder(node, width=4)
        delays = delay_under_mismatch(adder, sigma_vth=0.03,
                                      n_samples=40, seed=1)
        assert len(delays) == 40
        assert max(delays) > min(delays)

    def test_mean_above_nominal(self, node):
        """Max-over-paths makes mismatch a net slowdown."""
        adder = ripple_adder(node, width=4)
        nominal = critical_delay(adder)
        delays = delay_under_mismatch(adder, sigma_vth=0.03,
                                      n_samples=40, seed=2)
        assert sum(delays) / len(delays) > 0.95 * nominal

    def test_zero_sigma_deterministic(self, node):
        adder = ripple_adder(node, width=4)
        delays = delay_under_mismatch(adder, sigma_vth=0.0,
                                      n_samples=5, seed=3)
        assert max(delays) == pytest.approx(min(delays))

    def test_rejects_negative_sigma(self, node):
        with pytest.raises(ValueError):
            delay_under_mismatch(ripple_adder(node, 2), -0.01)
