"""Compiled timing graph: batched (vectorized) STA over all MC samples.

:class:`~repro.digital.timing.StaticTimingAnalyzer` walks Python
dicts gate by gate; Monte Carlo SSTA repeats that walk per sample, so
sign-off-grade quantiles (q = 0.999 needs thousands of dies) are out
of reach of the per-sample loop.  This module lowers a
:class:`~repro.digital.netlist.Netlist` *once* into flat numpy arrays
-- a levelized topological schedule, per-gate fanin indices, load
capacitances and one array-valued :class:`~repro.digital.delay
.DelayModel` -- and then evaluates **all samples at once** over
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
* the delay formula is not duplicated: compilation builds each gate's
  :meth:`Cell.delay_model` and stacks them into a single array-valued
  :class:`DelayModel`, whose (elementwise) :meth:`DelayModel.delay`
  both paths share.

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

    Compilation is one topological pass (O(gates + pins)); every
    subsequent :meth:`evaluate` call is pure array work over
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

        order = netlist.topological_order()
        self.names_topo: Tuple[str, ...] = tuple(
            inst.name for inst in order)
        self.names: Tuple[str, ...] = tuple(netlist.instances)
        topo_of = {name: k for k, name in enumerate(self.names_topo)}
        self._topo_of = topo_of
        # Column scatter: external (insertion-order) offset columns
        # land at these topological positions.
        scatter = np.array([topo_of[name] for name in self.names],
                           dtype=np.int64)
        self._gather = np.empty_like(scatter)
        self._gather[scatter] = np.arange(len(scatter))
        n_gates = len(order)
        self.n_gates = n_gates

        # One array-valued delay model for the whole netlist, stacked
        # from each gate's own Cell.delay_model so both paths share
        # the exact same formula composition.
        models = [
            inst.cell.delay_model(netlist.fanout_capacitance(
                inst.output, self.wire_cap_per_fanout))
            for inst in order]
        if n_gates:
            self._delay_model: Optional[DelayModel] = DelayModel(
                node=self.node,
                drive_width=np.array(
                    [m.drive_width for m in models]),
                load_capacitance=np.array(
                    [m.load_capacitance for m in models]),
                prefactor=models[0].prefactor,
            )
        else:
            self._delay_model = None

        # Fanin pin table: per gate, (net name, driver topo index).
        # Sequential cells get a single pseudo primary-input pin (the
        # clk-to-q launch); pins are sorted by net name *descending*
        # so argmax tie-breaking matches the scalar analyzer's
        # max-over-(arrival, net) tuples.
        pin_lists: List[List[int]] = []
        levels = np.zeros(n_gates, dtype=np.int64)
        for g, inst in enumerate(order):
            if inst.is_sequential:
                pin_lists.append([_PIN_INPUT])
                levels[g] = 0
                continue
            pins: List[Tuple[str, int]] = []
            for net in inst.inputs:
                driver = netlist.driver_of(net)
                pins.append((net, topo_of[driver.name]
                             if driver is not None else _PIN_INPUT))
            pins.sort(key=lambda pin: pin[0], reverse=True)
            pin_lists.append([code for _, code in pins])
            driver_levels = [levels[code] for _, code in pins
                             if code >= 0]
            levels[g] = 1 + max(driver_levels) if driver_levels else 0

        max_fanin = max((len(p) for p in pin_lists), default=1)
        fanin = np.full((n_gates, max_fanin), _PIN_PAD, dtype=np.int64)
        for g, pins in enumerate(pin_lists):
            fanin[g, :len(pins)] = pins
        self._fanin = fanin
        self._levels: List[np.ndarray] = [
            np.flatnonzero(levels == lv)
            for lv in range(int(levels.max()) + 1 if n_gates else 0)]

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
