"""Convergence/budget guards wired through the real solvers.

Satellite (d): non-convergence must degrade gracefully (partial result
plus diagnostics) or fail with a typed error -- never hang, never die
with a bare builtin exception.
"""

import math

import pytest

from repro.digital import EventDrivenSimulator, Netlist
from repro.robust import SimulationBudgetError
from repro.synthesis import (DesignRules, PlacementProblem, mosfet_cell,
                             place_cells, route_layout)
from repro.technology import get_node
from repro.thermal import ThermalStack, solve_operating_point


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestElectrothermalGuard:
    def test_non_convergence_returns_partial_result(self, node):
        result = solve_operating_point(node, n_gates=100_000,
                                       max_iterations=1,
                                       tolerance=1e-15)
        assert not result.converged
        assert math.isfinite(result.junction_temperature)
        assert result.junction_temperature >= ThermalStack().ambient
        assert result.report is not None
        assert not result.report.converged
        assert result.report.n_iterations == 1
        assert result.report.max_iterations == 1

    def test_convergence_attaches_passing_report(self, node):
        result = solve_operating_point(node, n_gates=10_000)
        assert result.converged
        assert result.report is not None
        assert result.report.converged
        assert result.report.residual <= result.report.tolerance

    def test_runaway_is_reported_not_raised(self, node):
        stack = ThermalStack(rth_junction_to_ambient=1e4)
        result = solve_operating_point(node, n_gates=1_000_000,
                                       stack=stack, max_iterations=50)
        assert result.runaway
        assert math.isfinite(result.junction_temperature)
        assert "runaway" in result.report.message


def glitch_generator(node):
    """XOR of a signal with a delayed copy of itself: every input
    toggle produces a deterministic output glitch (two transitions in
    one cycle).  The delay line must be longer than the XOR's own
    propagation delay or inertial filtering swallows the glitch."""
    netlist = Netlist(node)
    netlist.add_input("a")
    net = "a"
    for i in range(6):
        net = netlist.add_gate("INV", [net], f"n{i}").output
    netlist.add_gate("XOR2", ["a", net], "y")
    return netlist


class TestSimulatorBudgets:
    def test_oscillation_limit_trips_deterministically(self, node):
        sim = EventDrivenSimulator(glitch_generator(node),
                                   clock_period=1e-9,
                                   oscillation_limit=1)
        with pytest.raises(SimulationBudgetError, match="oscillat"):
            sim.run({"a": [True, False]}, n_cycles=2)

    def test_glitch_runs_fine_under_default_limits(self, node):
        sim = EventDrivenSimulator(glitch_generator(node),
                                   clock_period=1e-9)
        result = sim.run({"a": [True, False]}, n_cycles=2)
        # The glitch is real: y toggles twice per input change.
        assert sum(e.net == "y" for e in result.events) >= 2

    def test_event_budget_trips(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        net = "a"
        for i in range(4):
            net = netlist.add_gate("INV", [net], f"n{i}").output
        sim = EventDrivenSimulator(netlist, clock_period=1e-9,
                                   event_budget=2)
        with pytest.raises(SimulationBudgetError, match="event budget"):
            sim.run({"a": [True, False]}, n_cycles=4)


def routed_layout():
    node = get_node("350nm")
    cells = {f"m{i}": mosfet_cell(node, f"m{i}", width=5e-6)
             for i in range(6)}
    nets = {
        "n1": [("m0", "D"), ("m1", "G")],
        "n2": [("m1", "D"), ("m2", "G")],
        "n3": [("m2", "D"), ("m3", "G")],
        "n4": [("m4", "D"), ("m5", "G")],
    }
    problem = PlacementProblem(cells=cells, nets=nets)
    rules = DesignRules.for_node(node)
    return place_cells(problem, rules, n_iterations=300, seed=5)


class TestRouterBudget:
    def test_tiny_budget_degrades_gracefully(self):
        layout = routed_layout()
        result = route_layout(layout, search_budget=1)
        assert result.budget_exhausted
        assert result.n_routed <= result.n_nets
        assert result.completion < 1.0

    def test_large_budget_is_not_exhausted(self):
        layout = routed_layout()
        result = route_layout(layout, search_budget=10_000_000)
        assert not result.budget_exhausted
        assert result.completion >= 0.75
