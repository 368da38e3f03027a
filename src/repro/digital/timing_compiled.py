"""Compiled timing graph: batched (vectorized) STA over all MC samples.

:class:`~repro.digital.timing.StaticTimingAnalyzer` walks Python
dicts gate by gate; Monte Carlo SSTA repeats that walk per sample, so
sign-off-grade quantiles (q = 0.999 needs thousands of dies) are out
of reach of the per-sample loop.  This module lowers a
:class:`~repro.digital.netlist.Netlist` *once* into flat numpy arrays
-- a levelized schedule, per-gate fanin indices and one array-valued
:class:`~repro.digital.delay.DelayModel` -- gathered from the
netlist's own lowering (:meth:`Netlist._lowering`: the Kahn order,
the settle levels and each driven net's load fold, shared with
:meth:`Netlist.topological_order` and the compiled event engine),
and then evaluates **all samples at once** over
``(n_samples, n_gates)`` arrays: levelized arrival propagation,
per-sample argmax predecessor tracking for critical paths, and
criticality counts.

Equivalence contract with the scalar oracle
-------------------------------------------
The scalar :class:`StaticTimingAnalyzer` stays as the reference; for
the same per-gate V_T offsets the batched path reproduces it exactly
(to float64 tolerance), including its tie-breaking:

* the scalar analyzer picks the latest input by ``max`` over
  ``(arrival, net_name)`` tuples, i.e. ties go to the
  lexicographically largest net name -- the compiled graph sorts each
  gate's fanin pins by net name descending so ``argmax`` (first max)
  agrees;
* the scalar endpoint is the first maximum of the instance-arrival
  dict in topological insertion order -- the compiled gate axis *is*
  that topological order, so ``argmax`` over it agrees;
* the delay formula is not duplicated: compilation makes one
  :meth:`Cell.delay_model` call per cell kind, over its gates' loads
  (:meth:`Netlist.fanout_capacitance`'s, bit for bit), and gathers the
  models' fields into a single array-valued :class:`DelayModel`,
  whose (elementwise) :meth:`DelayModel.delay` both paths share.

Callers pass V_T offsets as a ``(n_samples, n_gates)`` array with
gate columns in **netlist insertion order** (``list(netlist
.instances)``) -- the order Monte Carlo drivers draw in -- and the
graph permutes internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..robust.errors import ModelDomainError, ModelIndexError
from ..robust.validate import check_finite, check_non_negative
from .delay import DelayModel
from .netlist import Netlist

__all__ = ["CompiledTimingGraph", "BatchTimingResult"]

ArrayLike = Union[float, np.ndarray]

#: Fanin codes below zero: a primary-input / undriven net (arrival 0)
#: and a padding slot (never wins the argmax).
_PIN_INPUT = -1
_PIN_PAD = -2


@dataclass
class BatchTimingResult:
    """All-sample result of one :meth:`CompiledTimingGraph.evaluate`.

    Gate-indexed arrays are in the graph's internal topological
    order; use the name-based accessors (:meth:`critical_path`,
    :meth:`criticality`) rather than indexing them directly.
    """

    critical_delays: np.ndarray          # (n_samples,) [s]
    names_topo: Tuple[str, ...]          # gate axis of the arrays below
    names: Tuple[str, ...]               # netlist insertion order
    gate_arrivals: np.ndarray            # (n_samples, n_gates) [s]
    end_index: np.ndarray                # (n_samples,) topo gate index
    predecessor: np.ndarray              # (n_samples, n_gates) topo idx | -1
    _topo_of: Dict[str, int] = field(default_factory=dict, repr=False)
    _counts: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_samples(self) -> int:
        """Number of Monte Carlo samples evaluated."""
        return int(self.critical_delays.shape[0])

    def critical_path(self, sample: int = 0) -> Tuple[str, ...]:
        """Instance names on ``sample``'s critical path, start to end."""
        n = self.n_samples
        if not -n <= sample < n:
            raise ModelIndexError(f"sample {sample} out of range for {n}")
        if not self.names_topo:
            return ()
        path: List[int] = []
        cursor = int(self.end_index[sample])
        while cursor >= 0:
            path.append(cursor)
            cursor = int(self.predecessor[sample, cursor])
        return tuple(self.names_topo[idx] for idx in reversed(path))

    def criticality_counts(self) -> np.ndarray:
        """Per-gate critical-path hit counts (topological order)."""
        if self._counts is None:
            n_gates = len(self.names_topo)
            counts = np.zeros(n_gates, dtype=np.int64)
            if n_gates and self.n_samples:
                sample_idx = np.arange(self.n_samples)
                cursor = self.end_index.astype(np.int64).copy()
                active = np.ones(self.n_samples, dtype=bool)
                while active.any():
                    np.add.at(counts, cursor[active], 1)
                    cursor[active] = self.predecessor[
                        sample_idx[active], cursor[active]]
                    active &= cursor >= 0
            self._counts = counts
        return self._counts

    def criticality(self) -> Dict[str, float]:
        """P(gate on the critical path), instances with p > 0 only.

        Keys follow netlist insertion order, matching the scalar SSTA
        loop's accounting exactly under identical samples.
        """
        counts = self.criticality_counts()
        n = max(self.n_samples, 1)
        return {name: counts[self._topo_of[name]] / n
                for name in self.names
                if counts[self._topo_of[name]]}


class CompiledTimingGraph:
    """A :class:`Netlist` lowered to flat arrays for batched STA.

    Compilation reads the netlist's lowering (computed once per
    netlist state) and builds the gate axis, the delay model and the
    fanin table by gathers, with one :meth:`Cell.delay_model` call per
    cell kind and no per-gate Python; every subsequent
    :meth:`evaluate` call is pure array work over
    ``(n_samples, n_gates)`` and costs no per-gate Python beyond the
    level loop (depth iterations).

    Parameters
    ----------
    netlist:
        Design to compile.  Mutating the netlist afterwards does not
        update the compiled graph -- recompile.
    wire_cap_per_fanout:
        Wire-load estimate per fanout [F], folded into the per-gate
        load capacitances at compile time.
    """

    def __init__(self, netlist: Netlist,
                 wire_cap_per_fanout: float = 0.5e-15):
        check_non_negative("wire_cap_per_fanout", wire_cap_per_fanout)
        self.netlist = netlist
        self.wire_cap_per_fanout = float(wire_cap_per_fanout)
        self.node = netlist.node

        lowered = netlist._lowering()
        order = lowered.order
        n_gates = order.size
        self.n_gates = n_gates
        gate_names = netlist._gate_names
        self.names_topo: Tuple[str, ...] = tuple(
            [gate_names[g] for g in order.tolist()])
        self.names: Tuple[str, ...] = tuple(gate_names)
        self._topo_of = dict(zip(self.names_topo, range(n_gates)))
        # Column gather: topological gate k reads the external
        # (insertion-order) offset column order[k].
        self._gather = order
        topo = np.empty(n_gates, dtype=np.int64)
        topo[order] = np.arange(n_gates)

        # One array-valued delay model for the whole netlist, from one
        # Cell.delay_model call per kind in use, so both paths share
        # the exact same formula composition.
        load_cap = lowered.load_capacitance(self.wire_cap_per_fanout)
        kind = netlist._kind_array()
        drive_width = np.empty(n_gates)
        load_capacitance = np.empty(n_gates)
        for k, cell in enumerate(netlist._kind_cells):
            members = np.flatnonzero(kind == k)
            if members.size:    # a kind whose first row failed has none
                model = cell.delay_model(load_cap[members])
                drive_width[members] = model.drive_width
                load_capacitance[members] = model.load_capacitance
        self._delay_model: Optional[DelayModel] = DelayModel(
            node=self.node, drive_width=drive_width[order],
            load_capacitance=load_capacitance[order],
            prefactor=model.prefactor) if n_gates else None

        # Fanin codes: each pin's driver in topological order.
        # Sequential cells get a single pseudo primary-input pin (the
        # clk-to-q launch); pins are sorted by net name *descending*
        # so argmax tie-breaking matches the scalar analyzer's
        # max-over-(arrival, net) tuples.
        net_names = netlist._net_order()[1]
        n_nets = len(net_names)
        code = np.full(n_nets + 1, _PIN_INPUT, dtype=np.int64)
        code[lowered.out_net] = topo
        code[n_nets] = _PIN_PAD
        # Each net's place in descending name order, the padding last.
        name_rank = np.full(n_nets + 1, n_nets, dtype=np.int64)
        name_rank[sorted(range(n_nets), key=net_names.__getitem__,
                         reverse=True)] = np.arange(n_nets)
        pins = lowered.fanin[order]
        fanin = code[np.take_along_axis(
            pins, np.argsort(name_rank[pins], axis=1, kind="stable"),
            axis=1)]
        fanin[lowered.is_seq[order]] = (_PIN_INPUT, _PIN_PAD, _PIN_PAD)
        width = int((fanin != _PIN_PAD).sum(axis=1).max(initial=1))
        self._fanin = fanin[:, :width]
        # The sequential cells, then the combinational settle levels:
        # any schedule with drivers first gives the same arithmetic.
        launch = topo[lowered.is_seq]
        self._levels: List[np.ndarray] = (
            [launch] if launch.size else []) + [
            topo[gates] for gates in lowered.levels]

    # --- evaluation ------------------------------------------------------

    def _normalize_inputs(self, vth_offsets: Optional[ArrayLike],
                          global_vth_offset: ArrayLike
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate and broadcast offsets to ``(n_samples, n_gates)``."""
        glob = np.atleast_1d(np.asarray(global_vth_offset, dtype=float))
        if glob.ndim != 1:
            raise ModelDomainError(
                "global_vth_offset must be a scalar or a 1-D "
                f"(n_samples,) array, got shape {glob.shape}")
        check_finite("global_vth_offset", glob)
        if vth_offsets is None:
            offsets = np.zeros((glob.shape[0], self.n_gates))
        else:
            offsets = np.asarray(vth_offsets, dtype=float)
            if offsets.ndim == 1:
                offsets = offsets[np.newaxis, :]
            if offsets.ndim != 2 or offsets.shape[1] != self.n_gates:
                raise ModelDomainError(
                    f"vth_offsets must have shape (n_samples, "
                    f"{self.n_gates}), got {np.shape(vth_offsets)}")
            check_finite("vth_offsets", offsets)
        if glob.shape[0] == 1 and offsets.shape[0] > 1:
            glob = np.broadcast_to(glob, (offsets.shape[0],))
        if glob.shape[0] != offsets.shape[0]:
            raise ModelDomainError(
                f"global_vth_offset has {glob.shape[0]} samples but "
                f"vth_offsets has {offsets.shape[0]}")
        return offsets, glob

    def evaluate(self, vth_offsets: Optional[ArrayLike] = None,
                 global_vth_offset: ArrayLike = 0.0
                 ) -> BatchTimingResult:
        """Batched STA over every sample at once.

        Parameters
        ----------
        vth_offsets:
            ``(n_samples, n_gates)`` per-gate V_T shifts [V], gate
            columns in netlist insertion order; ``None`` for nominal.
        global_vth_offset:
            Inter-die shift [V]: scalar or ``(n_samples,)`` array.

        Returns
        -------
        BatchTimingResult
            Per-sample critical delays, predecessor matrix (critical
            paths) and criticality counts.
        """
        offsets, glob = self._normalize_inputs(
            vth_offsets, global_vth_offset)
        n_samples = offsets.shape[0]
        n_gates = self.n_gates
        if n_gates == 0:
            zeros = np.zeros((n_samples, 0))
            return BatchTimingResult(
                critical_delays=np.zeros(n_samples),
                names_topo=(), names=(), gate_arrivals=zeros,
                end_index=np.full(n_samples, -1, dtype=np.int64),
                predecessor=zeros.astype(np.int64),
                _topo_of=dict(self._topo_of))

        vth_eff = (self.node.vth + glob[:, np.newaxis]
                   + offsets[:, self._gather])
        delays = np.asarray(self._delay_model.delay(vth=vth_eff))

        arrival = np.zeros((n_samples, n_gates))
        pred = np.full((n_samples, n_gates), -1, dtype=np.int64)
        sample_idx = np.arange(n_samples)
        for gate_idx in self._levels:
            fan = self._fanin[gate_idx]                 # (L, F)
            fan_arrival = arrival[:, np.maximum(fan, 0)]  # (S, L, F)
            fan_arrival[:, fan == _PIN_INPUT] = 0.0
            fan_arrival[:, fan == _PIN_PAD] = -np.inf
            win = np.argmax(fan_arrival, axis=2)        # (S, L)
            latest = np.take_along_axis(
                fan_arrival, win[:, :, np.newaxis], axis=2)[:, :, 0]
            arrival[:, gate_idx] = latest + delays[:, gate_idx]
            winner = fan[np.arange(len(gate_idx))[np.newaxis, :], win]
            pred[:, gate_idx] = np.maximum(winner, -1)

        end = np.argmax(arrival, axis=1)
        return BatchTimingResult(
            critical_delays=arrival[sample_idx, end],
            names_topo=self.names_topo, names=self.names,
            gate_arrivals=arrival,
            end_index=end.astype(np.int64),
            predecessor=pred,
            _topo_of=dict(self._topo_of))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompiledTimingGraph({self.netlist.name!r}, "
                f"{self.n_gates} gates, {len(self._levels)} levels)")
