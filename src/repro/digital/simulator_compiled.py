"""Compiled streaming event engine for SoC-scale activity extraction.

:class:`~repro.digital.simulator.EventDrivenSimulator` walks one
Python object per event through a ``heapq``; fine for toy netlists,
hopeless for the paper's Fig. 10 workload (the switching activity of
a ~220 kgate WLAN SoC feeding the SWAN substrate-noise flow).  This
module lowers a :class:`~repro.digital.netlist.Netlist` **once** to
flat numpy arrays -- gate-type codes with an 8-entry truth table per
cell, padded fanin pin tables, per-gate loaded delays and a
combinational net->loads CSR index -- and then runs cycles with a
vectorized event wheel: pending events live in struct-of-arrays
buffers ``(time, net, value, source)``, each step applies a *batch*
of them and re-evaluates their fanout gates in one batched
truth-table lookup, and the budget / oscillation guards operate on
per-net toggle counters.

A batch is the longest prefix of the time-sorted queue whose every
event comes before the cycle horizon, before the earliest
newly-scheduled event not yet merged into the queue, and strictly
before every earlier batch event's time plus its net's *reach* (the
smallest delay among the net's combinational loads).  Float addition
is monotonic, so nothing the batch schedules can land at or before a
batch event: one batch may span many wavefronts (events sharing one
timestamp) and still pops in the scalar order.  On the 20k-gate
``soc-noise`` SoC that is 286 steps where one wavefront per step took
1,955.

Equivalence contract with the scalar oracle
-------------------------------------------
The scalar simulator stays as the reference; for identical stimulus
the compiled engine reproduces its event stream **bit for bit** --
same event times (the per-gate delays come from the same
:meth:`Cell.delay` model and load caps, evaluated once per cell kind
over an array of loads with the scalar call's rounding), same ordering
on ties, same recorded values and instance attribution, and the same
final net values:

* the scalar heap pops in ``(time, push counter)`` order; the
  compiled pending buffer is append-ordered, so selecting the
  earliest-time events in buffer order reproduces the counter
  tie-breaking exactly;
* the scalar applies events one at a time, so a gate whose inputs
  switch in one batch is re-evaluated after *each* input event.  The
  compiled engine splits a batch into conflict-free groups (no
  duplicated nets, no shared fanout gate, no event net colliding with
  a fanout gate's output) and applies each group at once -- within
  such a group the one-at-a-time and all-at-once schedules are
  provably identical, whatever the event times, and each event is
  recorded and schedules its fanout at its own time;
* late events (at or past the cycle horizon) are applied silently in
  ``(time, order)`` sequence, as the scalar loop does;
* the event budget and the per-net-per-cycle oscillation guard raise
  the same typed :class:`SimulationBudgetError` at the same event.

Output is an :class:`EventTrace` -- the struct-of-arrays twin of
:class:`~repro.digital.simulator.SimulationResult` -- which the SWAN
flow (:mod:`repro.substrate.swan`) consumes directly in chunked numpy
calls, without ever materializing per-event Python objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..robust.errors import ModelDomainError, SimulationBudgetError
from ..robust.guards import SimulationBudget
from ..robust.validate import check_count, check_positive
from ..perf.profile import timed
from .gates import CELL_TYPES
from .netlist import Netlist, _csr_rows
from .simulator import SimulationResult, SwitchingEvent

__all__ = ["CompiledEventEngine", "EventTrace"]

#: Source index marking a primary-input (driverless) event.
_SRC_INPUT = -1

#: Most queued events one step looks at, so no step scans the whole
#: pending set.  Scanning this many costs a few microseconds, less than
#: the array calls every step makes.
_LOOKAHEAD = 4096


class _FinalValues:
    """The net values a run ends with, as the dict
    :attr:`EventTrace.final_values` reads: built from the run's final
    value array on first read and kept.  Its keys are the netlist's
    nets in order, then the run-only nets at ``extras`` (slots of the
    value array), each net mapped to its final value."""

    __slots__ = ("_names", "_values", "_n_nets", "_extras", "_dict")

    def __init__(self, names: Tuple[str, ...], values: np.ndarray,
                 n_nets: int, extras: List[int]):
        self._names = names
        self._values = values
        self._n_nets = n_nets
        self._extras = extras
        self._dict: Optional[Dict[str, bool]] = None

    def get(self) -> Dict[str, bool]:
        """The final values, built on the first call."""
        if self._dict is None:
            names = self._names
            values = self._values
            final = dict(zip(names, values[:self._n_nets].tolist()))
            for slot in self._extras:
                final[names[slot]] = bool(values[slot])
            self._dict = final
        return self._dict


class _FinalValuesField:
    """The :attr:`EventTrace.final_values` field: a trace is built with
    a dict or with a run's :class:`_FinalValues`, and reading the field
    gives the dict, the latter's built on the first read."""

    def __get__(self, trace: Optional["EventTrace"],
                owner: Optional[type] = None):
        if trace is None:
            return self
        final = trace._final
        return final.get() if isinstance(final, _FinalValues) else final

    def __set__(self, trace: "EventTrace", final) -> None:
        trace._final = final


@dataclass
class EventTrace:
    """A switching-event stream in struct-of-arrays form.

    The columnar twin of :class:`SimulationResult`: four parallel
    arrays (event ``k`` is ``times[k]``, ``net_indices[k]``,
    ``values[k]``, ``source_indices[k]``) plus the name tables that
    decode the integer columns.  ``source_indices`` holds the driving
    gate's position in netlist insertion order, or ``-1`` for a
    primary-input event.  A run's :attr:`final_values` is built from
    its final value array when it is first read, so a flow that never
    reads it (the SWAN flow) builds no per-net dict.

    Accessors mirror the scalar result; :meth:`to_events` /
    :meth:`to_result` materialize the object form for legacy
    consumers, and :meth:`chunks` yields bounded slices for streaming
    the trace through the substrate solver.
    """

    times: np.ndarray            # (n_events,) [s]
    net_indices: np.ndarray      # (n_events,) index into net_names
    values: np.ndarray           # (n_events,) bool, post-event level
    source_indices: np.ndarray   # (n_events,) gate index or -1
    net_names: Tuple[str, ...]
    instance_names: Tuple[str, ...]
    # Each net's value at the end of the run: the netlist's nets in
    # order, then the run-only nets the run set or wrote.  Read and set
    # through _FinalValuesField, installed after the class.
    final_values: Dict[str, bool]
    duration: float

    @property
    def n_events(self) -> int:
        """Number of recorded switching events."""
        return int(self.times.shape[0])

    def activity_factor(self, n_cycles: int) -> float:
        """Average toggles per switching net per cycle."""
        n_cycles = check_count("n_cycles", n_cycles)
        if self.n_events == 0:
            return 0.0
        n_nets = int(np.count_nonzero(np.bincount(self.net_indices)))
        return self.n_events / (n_nets * n_cycles)

    def to_events(self) -> List[SwitchingEvent]:
        """Materialize the stream as scalar :class:`SwitchingEvent`\\ s.

        Bit-for-bit identical (times, order, values, attribution) to
        the scalar oracle's event list under the same stimulus.
        """
        names = self.net_names
        instances = self.instance_names
        return [SwitchingEvent(
            time=float(t), net=names[int(n)], value=bool(v),
            instance=instances[int(s)] if s >= 0 else None)
            for t, n, v, s in zip(self.times, self.net_indices,
                                  self.values, self.source_indices)]

    def to_result(self) -> SimulationResult:
        """Convert to a scalar :class:`SimulationResult`."""
        return SimulationResult(events=self.to_events(),
                                final_values=dict(self.final_values),
                                duration=self.duration)

    def event_range(self, start: int, stop: int) -> "EventTrace":
        """Events ``start`` to ``stop - 1`` as a trace of their own.

        The slice shares the name tables, final values and duration of
        the full trace (they are metadata of the run, not of a slice)
        and views the underlying arrays without copying.
        """
        return EventTrace(
            times=self.times[start:stop],
            net_indices=self.net_indices[start:stop],
            values=self.values[start:stop],
            source_indices=self.source_indices[start:stop],
            net_names=self.net_names,
            instance_names=self.instance_names,
            final_values=self._final,
            duration=self.duration)

    def chunks(self, chunk_events: int) -> Iterator["EventTrace"]:
        """Yield consecutive :meth:`event_range` slices of at most
        ``chunk_events`` events."""
        chunk_events = check_count("chunk_events", chunk_events)
        for start in range(0, max(self.n_events, 1), chunk_events):
            yield self.event_range(start, start + chunk_events)


EventTrace.final_values = _FinalValuesField()  # type: ignore[assignment]


def _first_conflict(nets: np.ndarray, load_gates: np.ndarray,
                    load_event: np.ndarray,
                    load_outputs: np.ndarray) -> int:
    """Length of the longest conflict-free prefix of a batch slice.

    Events ``i < j`` conflict when they touch the same net, share a
    fanout gate, or one's net is the output of the other's fanout
    gate -- exactly the cases where the scalar one-at-a-time schedule
    and the batched schedule could diverge.  Returns the position the
    next group must start at (>= 1, so progress is guaranteed).
    """
    m = nets.size
    boundary = m
    order = np.argsort(nets, kind="stable")
    sorted_nets = nets[order]
    dup = sorted_nets[1:] == sorted_nets[:-1]
    if dup.any():
        boundary = min(boundary, int(order[1:][dup].min()))
    if load_gates.size:
        gate_order = np.argsort(load_gates, kind="stable")
        sorted_gates = load_gates[gate_order]
        dup_gate = sorted_gates[1:] == sorted_gates[:-1]
        if dup_gate.any():
            boundary = min(boundary, int(
                load_event[gate_order[1:][dup_gate]].min()))
        # An event net colliding with another event's fanout output:
        # the conflict activates when the later of the pair joins.
        slot = np.searchsorted(sorted_nets, load_outputs)
        slot = np.minimum(slot, m - 1)
        hit = sorted_nets[slot] == load_outputs
        if hit.any():
            net_pos = order[slot[hit]]
            boundary = min(boundary, int(
                np.maximum(net_pos, load_event[hit]).min()))
    return max(boundary, 1)


def _batch_end(q_time: np.ndarray, q_net: np.ndarray, head: int,
               limit: float, reach: np.ndarray) -> int:
    """End of the next batch: the longest prefix of the queue from
    ``head``, at most ``_LOOKAHEAD`` events, whose every event precedes
    ``limit`` and, strictly, every earlier batch event's time plus
    ``reach`` of its net.

    No event the batch schedules can then land at or before a later
    batch event (float addition is monotonic), so the batch pops in
    the scalar order.  The queue is time-sorted and the bound only
    falls, so the condition holds on a prefix.  The head event must
    precede ``limit``.
    """
    stop = head + _LOOKAHEAD
    times = q_time[head:stop]
    reached = np.minimum.accumulate(times + reach[q_net[head:stop]])
    return head + 1 + int(np.count_nonzero(
        times[1:] < np.minimum(reached[:-1], limit)))


class _EventBuffer:
    """Append-only struct-of-arrays overflow for newly scheduled events.

    Append order *is* the scalar heap's push-counter order.  The run
    loop keeps a time-sorted queue with a head pointer and merges this
    overflow into it only when its earliest entry (``tmin``, tracked
    incrementally) could precede the queue head -- so neither popping
    a batch nor appending ever scans the whole pending set.
    """

    def __init__(self, capacity: int = 1024):
        self.time = np.empty(capacity)
        self.net = np.empty(capacity, dtype=np.int64)
        self.value = np.empty(capacity, dtype=bool)
        self.source = np.empty(capacity, dtype=np.int64)
        self.n = 0
        self.tmin = np.inf

    def reset(self) -> None:
        self.n = 0
        self.tmin = np.inf

    def append(self, times: np.ndarray, nets: np.ndarray,
               values: np.ndarray, sources: np.ndarray) -> None:
        count = times.size
        if count == 0:
            return
        needed = self.n + count
        if needed > self.time.size:
            capacity = max(needed, 2 * self.time.size)
            for name in ("time", "net", "value", "source"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[:self.n] = old[:self.n]
                setattr(self, name, grown)
        self.time[self.n:needed] = times
        self.net[self.n:needed] = nets
        self.value[self.n:needed] = values
        self.source[self.n:needed] = sources
        self.n = needed
        self.tmin = min(self.tmin, times.min())


class CompiledEventEngine:
    """A :class:`Netlist` lowered to flat arrays for batched simulation.

    Drop-in compiled counterpart of :class:`EventDrivenSimulator`:
    same constructor parameters, same :meth:`run` contract, same
    guards -- but :meth:`run` returns an :class:`EventTrace` and the
    hot loop is pure array work per batch instead of per event.

    Compilation takes array passes and one array-valued
    :meth:`Cell.delay` call per netlist cell kind.  Each gate's load
    is the scalar simulator's own fanout capacitance, and the array
    call rounds exactly like the scalar one, so event times agree bit
    for bit.  Mutating the netlist afterwards does not
    update the compiled arrays -- recompile.
    """

    DEFAULT_EVENT_BUDGET = 1_000_000
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
        self._compile()

    # --- lowering --------------------------------------------------------

    @timed("digital.compile")
    def _compile(self) -> None:
        """Lower the netlist with array passes and O(cell kinds) model
        calls.

        Nets are numbered in :attr:`Netlist.nets` order and gates in
        insertion order.  The fanin and output tables, the load folds,
        the net->loads CSR and the settle levels are the netlist's own
        lowering (:meth:`Netlist._lowering`), so no net is looked up by
        name and no :class:`Instance` is built.  Each kind in use --
        the netlist's shared :class:`Cell`, one truth table and delay
        model -- takes one array-valued :meth:`Cell.delay` call.
        """
        netlist = self.netlist
        self._instance_names: Tuple[str, ...] = tuple(netlist._gate_names)
        n_gates = len(self._instance_names)
        self.n_gates = n_gates
        kind_cells = netlist._kind_cells
        kind = netlist._kind_array()
        rank, self._net_names = netlist._net_order()
        self._net_rank = rank
        # The run's value names: the nets, then the padding slot.
        self._value_names = self._net_names + ("<pad>",)
        n_nets = len(self._net_names)
        lowered = netlist._lowering()

        # 8-entry truth table per cell type: 3 inputs max in the
        # library, padded pins read the always-False padding slot.
        type_names = list(CELL_TYPES)
        type_code = {name: k for k, name in enumerate(type_names)}
        truth = np.zeros((len(type_names), 8), dtype=bool)
        for code, name in enumerate(type_names):
            cell_type = CELL_TYPES[name]
            if cell_type.is_sequential:
                continue
            for packed in range(8):
                bits = tuple(bool((packed >> b) & 1)
                             for b in range(cell_type.n_inputs))
                truth[code, packed] = cell_type.function(bits)
        self._truth_flat = truth.ravel()
        self._tcode8 = np.array(
            [type_code[cell.cell_type.name] * 8 for cell in kind_cells],
            dtype=np.int64)[kind]

        # Per-gate loaded delays.  V_T and V_DD stay scalar, so every
        # power in the delay model is still a Python-float ``**``, and
        # the load enters only through +, * and /, which numpy rounds
        # exactly like Python.
        load_cap = lowered.load_capacitance(self.wire_cap_per_fanout)
        delays = np.empty(n_gates)
        for k, cell in enumerate(kind_cells):
            members = np.flatnonzero(kind == k)
            if members.size:    # a kind whose first row failed has none
                delays[members] = cell.delay(load_cap[members])
        fanin = self._fanin = lowered.fanin
        out_net = self._out_net = lowered.out_net
        self._delays = delays
        csr_gates = self._csr_gates = lowered.csr_gates
        csr_count = self._csr_count = lowered.csr_count
        self._csr_start = lowered.csr_start
        # Reach: the smallest delay among a net's combinational loads
        # (inf without one), so an event at t schedules nothing before
        # t + reach[net].
        reach = np.full(n_nets, np.inf)
        np.minimum.at(reach, np.repeat(np.arange(n_nets), csr_count),
                      delays[csr_gates])
        self._reach = reach

        # Sequential cells in netlist insertion order (the scalar
        # simulator's sampling order).
        seq_idx = np.flatnonzero(lowered.is_seq)
        self._seq_gates = seq_idx
        self._seq_data = fanin[seq_idx, lowered.n_inputs[seq_idx] - 1]
        self._seq_out = out_net[seq_idx]
        self._seq_delay = delays[seq_idx]
        self._levels = lowered.levels

        # Nets that are neither driven nor primary inputs read as
        # False during the settle even if an initial state set them.
        # The primary inputs are the first nets.
        self._primary_inputs = list(netlist.primary_inputs)
        known = np.zeros(n_nets, dtype=bool)
        known[:len(self._primary_inputs)] = True
        known[out_net] = True
        self._floating = np.flatnonzero(~known)

    def _net_position(self, name: str) -> int:
        """Net ``name``'s index in the compiled value array, or -1 when
        the compiled netlist has no such net."""
        net = self.netlist._net_index.get(name)
        if net is None or net >= self._net_rank.size:
            return -1
        return int(self._net_rank[net])

    # --- evaluation helpers ----------------------------------------------

    def _evaluate(self, gates: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
        """Batched truth-table lookup of ``gates`` against ``values``."""
        bits = values[self._fanin[gates]]
        packed = bits[:, 0] + 2 * bits[:, 1] + 4 * bits[:, 2]
        return self._truth_flat[self._tcode8[gates] + packed]

    def _settle(self, values: np.ndarray) -> None:
        """Levelized combinational settle from the initial state."""
        floating = self._floating
        saved = values[floating].copy() if floating.size else None
        if floating.size:
            values[floating] = False
        for gates in self._levels:
            values[self._out_net[gates]] = self._evaluate(gates, values)
        if floating.size:
            values[floating] = saved

    def _batch_partition(self, batch_net: np.ndarray,
                         csr_count: np.ndarray, csr_start: np.ndarray
                         ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Conflict-free groups of one batch, with their load rows.

        Returns, for each group in order, its exclusive end position
        and its loads: exactly ``_csr_rows(batch_net[start:stop],
        ...)``.  The conflict scan gathers the loads of the whole
        remaining suffix, in event order; the group's are the prefix
        whose event position falls inside the group, cut with one
        ``searchsorted`` on the sorted event column.
        """
        m = batch_net.size
        csr_gates = self._csr_gates
        out_net = self._out_net
        groups: List[Tuple[int, np.ndarray, np.ndarray]] = []
        start = 0
        while start < m:
            nets_s = batch_net[start:]
            load_gates, load_event = _csr_rows(nets_s, csr_start,
                                               csr_count, csr_gates)
            size = 1 if nets_s.size == 1 else _first_conflict(
                nets_s, load_gates, load_event, out_net[load_gates])
            cut = int(np.searchsorted(load_event, size))
            start += size
            groups.append((start, load_gates[:cut], load_event[:cut]))
        return groups

    # --- simulation ------------------------------------------------------

    def run(self, stimulus: Dict[str, Sequence[bool]], n_cycles: int,
            initial_state: Optional[Dict[str, bool]] = None
            ) -> EventTrace:
        """Simulate ``n_cycles`` clock cycles; see the scalar oracle.

        Same contract as :meth:`EventDrivenSimulator.run` -- stimulus
        patterns repeat cyclically, flip-flops sample at the rising
        edge, inputs change just after it -- but the returned
        :class:`EventTrace` keeps the stream columnar.
        """
        n_cycles = check_count("n_cycles", n_cycles)
        # Same diagnostic bookkeeping as the scalar oracle's guard:
        # supplies the pinned exhaustion message (count + wall-clock).
        run_budget = SimulationBudget(self.event_budget,
                                      name="event budget",
                                      raise_on_exhaust=False)
        missing = [net for net in self._primary_inputs
                   if net not in stimulus]
        if missing:
            raise ModelDomainError(
                f"missing stimulus for inputs {missing}")
        for net, pattern in stimulus.items():
            if len(pattern) == 0:
                raise ModelDomainError(
                    f"empty stimulus pattern for net {net!r}")

        # Value-array layout: netlist nets, the always-False dummy
        # padding slot, then any run-only nets named by the stimulus
        # or initial state but absent from the netlist, in order.
        n_base = len(self._net_names)
        slots: Dict[str, int] = {}
        extra_names: List[str] = []
        for name in itertools.chain(stimulus, initial_state or ()):
            if name not in slots:
                index = self._net_position(name)
                if index < 0:
                    index = n_base + 1 + len(extra_names)
                    extra_names.append(name)
                slots[name] = index
        value_names = self._value_names + tuple(extra_names)
        n_values = n_base + 1 + len(extra_names)

        values = np.zeros(n_values, dtype=bool)
        if initial_state:
            for net, val in initial_state.items():
                values[slots[net]] = bool(val)
        self._settle(values)

        # Extend the loads CSR with empty rows for pad + extra nets.
        csr_count = np.zeros(n_values, dtype=np.int64)
        csr_count[:n_base] = self._csr_count
        csr_start = np.zeros(n_values, dtype=np.int64)
        csr_start[:n_base] = self._csr_start
        reach = np.full(n_values, np.inf)
        reach[:n_base] = self._reach
        out_net = self._out_net
        delays = self._delays
        initial_keys = {slots[net] for net in initial_state} \
            if initial_state else set()
        track_extras = bool(extra_names)
        written = np.zeros(n_values, dtype=bool) if track_extras \
            else None

        stim_nets = np.array([slots[net] for net in stimulus],
                             dtype=np.int64)
        patterns = np.empty((len(stimulus), n_cycles), dtype=bool)
        for k, (net, pattern) in enumerate(stimulus.items()):
            length = len(pattern)
            patterns[k] = [bool(pattern[c % length])
                           for c in range(n_cycles)]

        toggles = np.zeros(n_values, dtype=np.int64)
        buffer = _EventBuffer()
        budget_limit = self.event_budget
        osc_limit = self.oscillation_limit
        spent = 0
        time_parts: List[np.ndarray] = []
        net_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        source_parts: List[np.ndarray] = []

        empty_f = np.zeros(0)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_b = np.zeros(0, dtype=bool)

        for cycle in range(n_cycles):
            edge_time = cycle * self.clock_period
            horizon = edge_time + self.clock_period
            buffer.reset()
            toggles[:] = 0
            # Time-sorted pending queue consumed from ``head``; newly
            # scheduled events accumulate in ``buffer`` and merge in
            # lazily (a stable time sort of [queue remainder, overflow]
            # preserves push-counter order on ties, because every
            # queued event was pushed before every overflow event).
            q_time, q_net = empty_f, empty_i
            q_val, q_src = empty_b, empty_i
            head = 0

            # Flip-flops sample their data nets at the edge.
            if self._seq_gates.size:
                sampled = values[self._seq_data]
                changed = sampled != values[self._seq_out]
                if changed.any():
                    buffer.append(
                        edge_time + self._seq_delay[changed],
                        self._seq_out[changed], sampled[changed],
                        self._seq_gates[changed])
            # Primary inputs change shortly after the edge.
            if stim_nets.size:
                new_vals = patterns[:, cycle]
                changed = new_vals != values[stim_nets]
                if changed.any():
                    count = int(np.count_nonzero(changed))
                    buffer.append(
                        np.full(count,
                                edge_time + 0.01 * self.clock_period),
                        stim_nets[changed], new_vals[changed],
                        np.full(count, _SRC_INPUT, dtype=np.int64))

            while head < q_time.size or buffer.n:
                if buffer.n and (head == q_time.size
                                 or buffer.tmin <= q_time[head]
                                 or q_time[head] >= horizon):
                    q_time = np.concatenate(
                        [q_time[head:], buffer.time[:buffer.n]])
                    q_net = np.concatenate(
                        [q_net[head:], buffer.net[:buffer.n]])
                    q_val = np.concatenate(
                        [q_val[head:], buffer.value[:buffer.n]])
                    q_src = np.concatenate(
                        [q_src[head:], buffer.source[:buffer.n]])
                    order = np.argsort(q_time, kind="stable")
                    q_time = q_time[order]
                    q_net = q_net[order]
                    q_val = q_val[order]
                    q_src = q_src[order]
                    head = 0
                    buffer.reset()
                if q_time[head] >= horizon:
                    # Everything left is late: apply silently in
                    # (time, push-order) sequence, last write wins.
                    nets_rev = q_net[head:][::-1]
                    vals_rev = q_val[head:][::-1]
                    uniq, first = np.unique(nets_rev,
                                            return_index=True)
                    values[uniq] = vals_rev[first]
                    if track_extras:
                        written[uniq] = True
                    break
                end = _batch_end(q_time, q_net, head,
                                 min(horizon, buffer.tmin), reach)
                batch_time = q_time[head:end]
                batch_net = q_net[head:end]
                batch_val = q_val[head:end]
                batch_src = q_src[head:end]
                head = end

                groups = self._batch_partition(batch_net, csr_count,
                                               csr_start)
                start = 0
                for stop, grp_gates, grp_event in groups:
                    group_time = batch_time[start:stop]
                    group_net = batch_net[start:stop]
                    group_val = batch_val[start:stop]
                    group_src = batch_src[start:stop]
                    applied = values[group_net] != group_val
                    n_applied = int(np.count_nonzero(applied))
                    if n_applied:
                        applied_net = group_net[applied]
                        # Guards, with scalar-identical raise order:
                        # the budget check precedes the oscillation
                        # check at each event.
                        new_toggles = toggles[applied_net] + 1
                        toggles[applied_net] = new_toggles
                        budget_pos = (budget_limit - spent
                                      if budget_limit is not None
                                      and spent + n_applied
                                      > budget_limit else n_applied)
                        osc_pos = n_applied
                        if osc_limit is not None:
                            over = np.flatnonzero(
                                new_toggles > osc_limit)
                            if over.size:
                                osc_pos = int(over[0])
                        if budget_pos <= osc_pos \
                                and budget_pos < n_applied:
                            run_budget.spent = budget_limit + 1
                            raise SimulationBudgetError(
                                run_budget.exhaustion_message())
                        if osc_pos < n_applied:
                            net_name = value_names[
                                int(applied_net[osc_pos])]
                            raise SimulationBudgetError(
                                f"net {net_name!r} toggled "
                                f"{int(new_toggles[osc_pos])} times in "
                                f"cycle {cycle} (oscillation_limit="
                                f"{osc_limit}): the design is "
                                f"oscillating or glitch-storming")
                        spent += n_applied
                        time_parts.append(group_time[applied])
                        net_parts.append(applied_net)
                        value_parts.append(group_val[applied])
                        source_parts.append(group_src[applied])
                    values[group_net] = group_val
                    if track_extras:
                        written[group_net] = True
                    if n_applied:
                        live = applied[grp_event]
                        eval_gates = grp_gates[live]
                        if eval_gates.size:
                            new_out = self._evaluate(eval_gates, values)
                            out_nets = out_net[eval_gates]
                            sched = new_out != values[out_nets]
                            if sched.any():
                                sched_gates = eval_gates[sched]
                                buffer.append(
                                    group_time[grp_event[live][sched]]
                                    + delays[sched_gates],
                                    out_nets[sched], new_out[sched],
                                    sched_gates)
                    start = stop

        if time_parts:
            times = np.concatenate(time_parts)
            nets = np.concatenate(net_parts)
            vals = np.concatenate(value_parts)
            sources = np.concatenate(source_parts)
        else:
            times = np.zeros(0)
            nets = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0, dtype=bool)
            sources = np.zeros(0, dtype=np.int64)

        extras = [slot for slot in range(n_base + 1, n_values)
                  if slot in initial_keys or written[slot]]
        return EventTrace(
            times=times, net_indices=nets, values=vals,
            source_indices=sources,
            net_names=value_names,
            instance_names=self._instance_names,
            final_values=_FinalValues(value_names, values, n_base, extras),
            duration=n_cycles * self.clock_period)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompiledEventEngine({self.netlist.name!r}, "
                f"{self.n_gates} gates)")
