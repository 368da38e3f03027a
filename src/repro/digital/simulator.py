"""Event-driven gate-level logic simulator.

Produces the *switching-event stream* that both the dynamic-power
estimator and the SWAN substrate-noise flow consume: the paper's SWAN
methodology combines per-cell injection macromodels "depending on the
event information obtained from a VHDL simulation of the system".
This module is that (VHDL-less) event engine.

The simulator is two-level (0/1), unit-capacitance-accurate in time:
each gate contributes its load-dependent propagation delay, events on
the same net collapse (inertial filtering), and flip-flops sample on
the rising edge of the global clock.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..robust.errors import ModelDomainError, SimulationBudgetError
from ..robust.guards import SimulationBudget
from ..robust.validate import check_count, check_positive, validated
from .netlist import Instance, Netlist
from ..robust.rng import resolve_rng


@dataclass(frozen=True, order=True)
class SwitchingEvent:
    """One net transition.

    Ordered by time so event lists merge cheaply.
    """

    time: float
    net: str = field(compare=False)
    value: bool = field(compare=False)
    instance: Optional[str] = field(compare=False, default=None)


@dataclass
class SimulationResult:
    """Output of a simulation run."""

    events: List[SwitchingEvent]
    final_values: Dict[str, bool]
    duration: float

    def activity_factor(self, n_cycles: int) -> float:
        """Average toggles per net per cycle."""
        nets = {e.net for e in self.events}
        if not nets or n_cycles < 1:
            return 0.0
        return len(self.events) / (len(nets) * n_cycles)


class EventDrivenSimulator:
    """Event-driven simulator over a :class:`Netlist`.

    Parameters
    ----------
    netlist:
        Design under simulation.
    clock_period:
        Global clock period [s] for sequential cells.
    wire_cap_per_fanout:
        Crude wire-load model passed to the netlist's fanout
        capacitance estimate.
    event_budget:
        Total simulated events allowed per :meth:`run` call (None =
        unlimited).  Exceeding it raises a typed
        :class:`~repro.robust.errors.SimulationBudgetError` instead of
        looping forever on a pathological design.
    oscillation_limit:
        Maximum toggles of any single net within one clock cycle
        before the run is declared oscillatory (glitch storm /
        combinational ringing) and a
        :class:`~repro.robust.errors.SimulationBudgetError` is raised.
    """

    #: Default per-run event budget: generous for real designs, finite
    #: so a glitch storm terminates with a typed error.
    DEFAULT_EVENT_BUDGET = 1_000_000
    #: Default per-net per-cycle toggle limit.
    DEFAULT_OSCILLATION_LIMIT = 512

    def __init__(self, netlist: Netlist, clock_period: float = 1e-9,
                 wire_cap_per_fanout: float = 0.5e-15,
                 event_budget: Optional[int] = DEFAULT_EVENT_BUDGET,
                 oscillation_limit: Optional[int] =
                 DEFAULT_OSCILLATION_LIMIT):
        check_positive("clock_period", clock_period)
        check_positive("wire_cap_per_fanout", wire_cap_per_fanout)
        if event_budget is not None:
            event_budget = check_count("event_budget", event_budget)
        if oscillation_limit is not None:
            oscillation_limit = check_count("oscillation_limit",
                                            oscillation_limit)
        self.netlist = netlist
        self.clock_period = clock_period
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.event_budget = event_budget
        self.oscillation_limit = oscillation_limit
        self._delay_cache: Dict[str, float] = {}
        self._loads_cache: Dict[str, List[Instance]] = {}

    def _gate_delay(self, instance: Instance) -> float:
        """Load-dependent propagation delay of ``instance`` [s]."""
        delay = self._delay_cache.get(instance.name)
        if delay is None:
            load = self.netlist.fanout_capacitance(
                instance.output, self.wire_cap_per_fanout)
            delay = instance.cell.delay(load)
            self._delay_cache[instance.name] = delay
        return delay

    def _loads(self, net: str) -> List[Instance]:
        loads = self._loads_cache.get(net)
        if loads is None:
            loads = self.netlist.loads_of(net)
            self._loads_cache[net] = loads
        return loads

    def run(self, stimulus: Dict[str, Sequence[bool]], n_cycles: int,
            initial_state: Optional[Dict[str, bool]] = None
            ) -> SimulationResult:
        """Simulate ``n_cycles`` clock cycles.

        ``stimulus`` maps each primary input to a per-cycle value
        sequence (shorter sequences repeat cyclically).

        Returns the time-stamped event stream.  Primary inputs change
        just after each rising clock edge; flip-flops sample the value
        their data nets held at the edge.
        """
        n_cycles = check_count("n_cycles", n_cycles)
        missing = [net for net in self.netlist.primary_inputs
                   if net not in stimulus]
        if missing:
            raise ModelDomainError(
                f"missing stimulus for inputs {missing}")
        budget = SimulationBudget(self.event_budget, name="event budget")

        values: Dict[str, bool] = {net: False for net in self.netlist.nets}
        if initial_state:
            values.update(initial_state)
        # Settle combinational logic from the initial state.
        settled = self.netlist.evaluate(
            {net: values[net] for net in self.netlist.primary_inputs},
            state={inst.output: values[inst.output]
                   for inst in self.netlist.instances.values()
                   if inst.is_sequential})
        values.update(settled)

        events: List[SwitchingEvent] = []
        counter = itertools.count()
        sequential = [inst for inst in self.netlist.instances.values()
                      if inst.is_sequential]

        for cycle in range(n_cycles):
            edge_time = cycle * self.clock_period
            queue: List[Tuple[float, int, str, bool, Optional[str]]] = []
            cycle_toggles: Dict[str, int] = {}

            # Flip-flops sample their data nets at the edge (clk-to-q
            # delay = the cell's loaded delay).
            for inst in sequential:
                sampled = values.get(inst.inputs[-1], False)
                if sampled != values.get(inst.output, False):
                    heapq.heappush(queue, (
                        edge_time + self._gate_delay(inst), next(counter),
                        inst.output, sampled, inst.name))

            # Primary inputs change shortly after the edge.
            for net, pattern in stimulus.items():
                new_value = bool(pattern[cycle % len(pattern)])
                if new_value != values.get(net, False):
                    heapq.heappush(queue, (
                        edge_time + 0.01 * self.clock_period, next(counter),
                        net, new_value, None))

            # Propagate events until the cycle's activity dies out.
            horizon = edge_time + self.clock_period
            while queue:
                time, _, net, value, source = heapq.heappop(queue)
                if values.get(net, False) == value:
                    continue
                if time >= horizon:
                    # Late event: apply silently at the horizon (the
                    # next cycle sees the settled value) but do not
                    # schedule further switching -- models a failing
                    # path without infinite event storms.
                    values[net] = value
                    continue
                values[net] = value
                budget.spend()
                toggles = cycle_toggles.get(net, 0) + 1
                cycle_toggles[net] = toggles
                if self.oscillation_limit is not None \
                        and toggles > self.oscillation_limit:
                    raise SimulationBudgetError(
                        f"net {net!r} toggled {toggles} times in cycle "
                        f"{cycle} (oscillation_limit="
                        f"{self.oscillation_limit}): the design is "
                        f"oscillating or glitch-storming")
                events.append(SwitchingEvent(
                    time=time, net=net, value=value, instance=source))
                for load in self._loads(net):
                    if load.is_sequential:
                        continue  # samples only at the clock edge
                    ins = tuple(values.get(n, False) for n in load.inputs)
                    new_out = load.cell.cell_type.evaluate(ins)
                    if new_out != values.get(load.output, False):
                        heapq.heappush(queue, (
                            time + self._gate_delay(load), next(counter),
                            load.output, new_out, load.name))

        return SimulationResult(
            events=events,
            final_values=dict(values),
            duration=n_cycles * self.clock_period,
        )


@validated(n_cycles="count")
def random_stimulus(netlist: Netlist, n_cycles: int,
                    seed: Optional[int] = None,
                    held_high: Iterable[str] = (),
                    rng: Optional["np.random.Generator"] = None
                    ) -> Dict[str, List[bool]]:
    """Uniform random per-cycle stimulus for every primary input.

    Inputs listed in ``held_high`` stay at 1 (e.g. enables).
    """
    import numpy as np
    rng = resolve_rng(rng, seed=seed)
    held = set(held_high)
    stimulus: Dict[str, List[bool]] = {}
    for net in netlist.primary_inputs:
        if net in held:
            stimulus[net] = [True]
        elif net == "zero":
            stimulus[net] = [False]
        else:
            stimulus[net] = [bool(b) for b in
                             rng.integers(0, 2, size=n_cycles)]
    return stimulus
