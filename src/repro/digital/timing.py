"""Static timing analysis over gate-level netlists.

Computes per-net arrival times, the critical path and slack, with
optional per-die V_T shifts so the Fig. 4 / section 3.1 variability
analyses can run on whole circuits instead of single gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .netlist import Instance, Netlist
from ..robust.rng import resolve_rng
from ..robust.validate import validated


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA run."""

    arrival_times: Dict[str, float]     # net -> latest arrival [s]
    critical_path: Tuple[str, ...]      # instance names, start to end
    critical_delay: float               # [s]

    def max_frequency(self, clock_overhead: float = 0.0) -> float:
        """Highest clock [Hz] the critical path supports."""
        total = self.critical_delay + clock_overhead
        if total <= 0:
            return float("inf")
        return 1.0 / total

    def slack(self, clock_period: float) -> float:
        """Timing slack [s] at ``clock_period``."""
        return clock_period - self.critical_delay


class StaticTimingAnalyzer:
    """Topological-order STA with load-dependent gate delays.

    Parameters
    ----------
    netlist:
        Design to analyze.
    wire_cap_per_fanout:
        Wire-load estimate per fanout [F].
    vth_offsets:
        Optional per-instance V_T shifts [V] (mismatch sampling);
        ``global_vth_offset`` shifts every gate (inter-die).
    """

    def __init__(self, netlist: Netlist,
                 wire_cap_per_fanout: float = 0.5e-15,
                 vth_offsets: Optional[Dict[str, float]] = None,
                 global_vth_offset: float = 0.0):
        self.netlist = netlist
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.vth_offsets = vth_offsets or {}
        self.global_vth_offset = global_vth_offset

    def gate_delay(self, instance: Instance) -> float:
        """Delay of one instance with its V_T shift applied [s]."""
        load = self.netlist.fanout_capacitance(
            instance.output, self.wire_cap_per_fanout)
        offset = (self.global_vth_offset
                  + self.vth_offsets.get(instance.name, 0.0))
        return instance.cell.delay(load, vth_offset=offset)

    def analyze(self) -> TimingReport:
        """Run STA; sequential cells are timing start/end points."""
        arrival: Dict[str, float] = {
            net: 0.0 for net in self.netlist.primary_inputs}
        best_pred: Dict[str, Optional[str]] = {}
        inst_arrival: Dict[str, float] = {}

        for instance in self.netlist.topological_order():
            if instance.is_sequential:
                # Launch point: clk-to-q only.
                start = self.gate_delay(instance)
                arrival[instance.output] = start
                inst_arrival[instance.name] = start
                best_pred[instance.name] = None
                continue
            input_arrivals = [
                (arrival.get(net, 0.0), net) for net in instance.inputs]
            latest, latest_net = max(input_arrivals)
            out_time = latest + self.gate_delay(instance)
            arrival[instance.output] = max(
                arrival.get(instance.output, 0.0), out_time)
            inst_arrival[instance.name] = out_time
            driver = self.netlist.driver_of(latest_net)
            best_pred[instance.name] = driver.name if driver else None

        if not inst_arrival:
            return TimingReport({}, (), 0.0)

        end_name = max(inst_arrival, key=inst_arrival.get)
        path: List[str] = []
        cursor: Optional[str] = end_name
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred.get(cursor)
        path.reverse()
        return TimingReport(
            arrival_times=arrival,
            critical_path=tuple(path),
            critical_delay=inst_arrival[end_name],
        )


@validated(global_vth_offset="finite")
def critical_delay(netlist: Netlist, global_vth_offset: float = 0.0,
                   vth_offsets: Optional[Dict[str, float]] = None) -> float:
    """Convenience wrapper: critical-path delay [s]."""
    analyzer = StaticTimingAnalyzer(
        netlist, vth_offsets=vth_offsets,
        global_vth_offset=global_vth_offset)
    return analyzer.analyze().critical_delay


def delay_under_mismatch(netlist: Netlist, sigma_vth: float,
                         n_samples: int = 100,
                         seed: Optional[int] = None) -> List[float]:
    """MC critical delays with independent per-gate V_T mismatch [s].

    The intra-die face of the Fig. 4 analysis: per-gate randomness
    makes the *max over paths* systematically slower than nominal.

    Compiles the netlist once
    (:class:`~repro.digital.timing_compiled.CompiledTimingGraph`) and
    evaluates every sample in one batched call.  Sample ``i`` consumes
    row ``i`` of one ``(n_samples, n_gates)`` normal block and matches
    :func:`critical_delay` at that row's per-gate offsets to float64
    round-off.
    """
    from ..robust.validate import check_count, check_non_negative
    from .timing_compiled import CompiledTimingGraph
    check_non_negative("sigma_vth", sigma_vth)
    n_samples = check_count("n_samples", n_samples)
    rng = resolve_rng(seed=seed)
    draws = rng.normal(0.0, sigma_vth,
                       size=(n_samples, len(netlist.instances)))
    batch = CompiledTimingGraph(netlist).evaluate(draws)
    return [float(value) for value in batch.critical_delays]
