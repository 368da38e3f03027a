"""Electrothermal feedback: leakage heats the die, heat breeds leakage.

The nanometre-era positive feedback loop: subthreshold leakage grows
exponentially with temperature (V_T drops, kT rises), dissipated
leakage power raises the junction temperature through the package
resistance, and around the 65 nm node the loop gain becomes large
enough that poorly cooled designs *run away* -- a quantitative
sharpening of the paper's leakage warning.

The fixed-point iteration here couples
:func:`repro.digital.energy.analytic_power_estimate` (leakage vs T
through ``TechnologyNode.at_temperature``) with a lumped or meshed
thermal model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.constants import BOLTZMANN, ELECTRON_CHARGE
from ..robust.errors import ModelDomainError, ModelDomainWarning
from ..robust.guards import ConvergenceReport, IterationGuard
from ..robust.validate import (check_count, check_positive, check_range,
                               validated)
from ..technology.node import TechnologyNode
from ..digital.energy import analytic_power_estimate
from .mesh import ThermalStack

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ElectrothermalResult:
    """Outcome of the self-consistent temperature iteration."""

    converged: bool
    runaway: bool
    junction_temperature: float    # K (last iterate if runaway)
    dynamic_power: float           # W
    leakage_power: float           # W at the final temperature
    leakage_power_cold: float      # W at ambient (no feedback)
    n_iterations: int
    #: Structured convergence diagnostics (None for hand-built results).
    report: Optional[ConvergenceReport] = None

    @property
    def total_power(self) -> float:
        """Total power at the operating point [W]."""
        return self.dynamic_power + self.leakage_power

    @property
    def feedback_amplification(self) -> float:
        """Leakage at the hot point / leakage at ambient."""
        if self.leakage_power_cold <= 0:
            return 1.0
        return self.leakage_power / self.leakage_power_cold


@validated(frequency="positive", activity=(0.0, 1.0),
           tolerance="positive", runaway_temperature="positive")
def solve_operating_point(node: TechnologyNode,
                          n_gates: int = 1_000_000,
                          frequency: float = 1e9,
                          activity: float = 0.1,
                          stack: ThermalStack = ThermalStack(),
                          max_iterations: int = 100,
                          tolerance: float = 0.01,
                          runaway_temperature: float = 500.0
                          ) -> ElectrothermalResult:
    """Find the self-consistent junction temperature of a design.

    Fixed-point iteration: T -> leakage(T) -> power -> T' through the
    package resistance.  Declares *runaway* when the iterate exceeds
    ``runaway_temperature`` or fails to converge while still rising.
    Never raises on non-convergence: the last iterate is returned with
    ``converged=False`` and a :class:`ConvergenceReport` attached, so
    technology sweeps keep their partial results.
    """
    n_gates = check_count("n_gates", n_gates)
    max_iterations = check_count("max_iterations", max_iterations)
    cold = analytic_power_estimate(
        node.at_temperature(stack.ambient), n_gates, frequency,
        activity)
    dynamic = cold.dynamic + cold.short_circuit
    leak_cold = cold.leakage

    guard = IterationGuard(max_iterations, tolerance=tolerance,
                           name="electrothermal fixed point")
    temperature = stack.ambient
    leakage = leak_cold
    runaway = False
    for _ in guard:
        total = dynamic + leakage
        new_temperature = stack.ambient \
            + stack.rth_junction_to_ambient * total
        if new_temperature > runaway_temperature:
            temperature = new_temperature
            runaway = True
            break
        hot_node = node.at_temperature(new_temperature)
        leakage = analytic_power_estimate(
            hot_node, n_gates, frequency, activity).leakage
        if guard.converged(abs(new_temperature - temperature)):
            temperature = new_temperature
            break
        temperature = new_temperature
    if not guard.is_converged and not runaway:
        # Exhausted without converging: rising iterates mean runaway,
        # oscillation is reported as plain non-convergence.
        runaway = temperature > 0.9 * runaway_temperature
    message = "thermal runaway" if runaway else ""
    return ElectrothermalResult(
        converged=guard.is_converged, runaway=runaway,
        junction_temperature=temperature,
        dynamic_power=dynamic,
        leakage_power=leakage,
        leakage_power_cold=leak_cold,
        n_iterations=guard.n_iterations,
        report=guard.report(message))


@dataclass(frozen=True)
class ElectrothermalBatch:
    """Array-valued outcome of a batched electrothermal solve.

    Every field holds an ndarray of shape ``(n_nodes,) + grid_shape``
    where ``grid_shape`` is the broadcast shape of the Rth grid and
    power corners passed to :func:`solve_operating_point_batch`.
    :meth:`result` extracts one element as a scalar
    :class:`ElectrothermalResult` with a :class:`ConvergenceReport`
    matching the oracle's (same name, counts, residual, tolerance and
    message; wall-clock is NaN since no per-element loop ran).
    """

    #: ``residual`` is NaN for elements that ran away before a first
    #: residual was measured -- exactly like the scalar guard.
    __nonfinite_ok__ = ("residual",)

    node_names: Tuple[str, ...]
    converged: np.ndarray          # bool
    runaway: np.ndarray            # bool
    junction_temperature: np.ndarray
    dynamic_power: np.ndarray
    leakage_power: np.ndarray
    leakage_power_cold: np.ndarray
    n_iterations: np.ndarray       # int
    residual: np.ndarray
    max_iterations: int
    tolerance: float

    @property
    def shape(self) -> Tuple[int, ...]:
        """(n_nodes,) + grid shape of every field."""
        return self.junction_temperature.shape

    @property
    def total_power(self) -> np.ndarray:
        """Total power at each operating point [W]."""
        return self.dynamic_power + self.leakage_power

    @property
    def feedback_amplification(self) -> np.ndarray:
        """Leakage at the hot point / leakage at ambient, elementwise."""
        cold = self.leakage_power_cold
        safe = np.where(cold <= 0, 1.0, cold)
        return np.where(cold <= 0, 1.0, self.leakage_power / safe)

    def result(self, index) -> ElectrothermalResult:
        """One element as a scalar :class:`ElectrothermalResult`."""
        if np.ndim(self.junction_temperature[index]) != 0:
            raise ModelDomainError(
                f"index {index!r} selects a sub-array of shape "
                f"{np.shape(self.junction_temperature[index])}, not one "
                f"operating point")
        converged = bool(self.converged[index])
        runaway = bool(self.runaway[index])
        report = ConvergenceReport(
            name="electrothermal fixed point",
            converged=converged,
            n_iterations=int(self.n_iterations[index]),
            max_iterations=self.max_iterations,
            residual=float(self.residual[index]),
            tolerance=self.tolerance,
            message="thermal runaway" if runaway else "",
        )
        return ElectrothermalResult(
            converged=converged, runaway=runaway,
            junction_temperature=float(self.junction_temperature[index]),
            dynamic_power=float(self.dynamic_power[index]),
            leakage_power=float(self.leakage_power[index]),
            leakage_power_cold=float(self.leakage_power_cold[index]),
            n_iterations=int(self.n_iterations[index]),
            report=report)


def _engine_constants(node: TechnologyNode,
                      ambient: float) -> Dict[str, float]:
    """Per-node scalar constants of the electrothermal fixed point.

    Computed through the *same* scalar calls the oracle makes at
    ambient (so the cold power breakdown is bit-for-bit), plus the
    pre-exponential leakage factors that isolate the loop's only
    temperature dependence: ``at_temperature`` shifts V_T linearly
    (clamped at 0.02 V) and leaves geometry, oxide and supply alone,
    so per iteration only the subthreshold exponential moves.
    """
    from ..devices.capacitance import inverter_input_capacitance
    from ..devices.leakage import gate_leakage_per_gate
    node_a = node.at_temperature(ambient)
    avg_load = 3.0 * inverter_input_capacitance(
        node_a, 2.0 * node_a.feature_size)
    budget = gate_leakage_per_gate(node_a)
    fs = node.feature_size
    width_n = 2.0 * fs
    width_p = 2.0 * width_n
    return {
        "name": node.name,
        "avg_load": avg_load,
        "vdd": node.vdd,
        "vdd_sq": node.vdd ** 2,
        "sub_cold": budget.subthreshold,
        "gate": budget.gate,
        "vth": node.vth,
        "vth_tc": node.vth_temp_coefficient,
        "t0": node.temperature,
        "n_sub": node.subthreshold_n,
        "dibl": node.dibl,
        # i0 = i0_per_width * W * L_min / L with L = L_min, transcribed
        # with the oracle's exact operation order.
        "i0_n": node.i0_per_width * width_n * fs / fs,
        "i0_p": node.i0_per_width * width_p * fs / fs,
    }


def _batch_solve(consts: Sequence[Dict[str, float]], rth: np.ndarray,
                 n_gates: np.ndarray, frequency: np.ndarray,
                 activity: np.ndarray, ambient: float,
                 max_iterations: int, tolerance: float,
                 runaway_temperature: float) -> ElectrothermalBatch:
    """Masked fixed-point iteration over pre-broadcast arrays.

    All array arguments share a full shape whose leading axis indexes
    ``consts``.  Replicates the oracle loop element-for-element: the
    runaway exit is taken *before* the residual is recorded, the
    residual is recorded every live iteration (converged or not), and
    exhausted points are flagged runaway only while still hot
    (T > 0.9 * runaway threshold).
    """
    shape = rth.shape
    grid_ndim = len(shape) - 1

    def per_node(key: str) -> np.ndarray:
        values = np.asarray([c[key] for c in consts], dtype=float)
        return np.broadcast_to(
            values.reshape((len(consts),) + (1,) * grid_ndim), shape)

    vdd = per_node("vdd")
    dyn = (activity * n_gates * per_node("avg_load")
           * per_node("vdd_sq") * frequency)
    dynamic = dyn + 0.1 * dyn
    gate_power = n_gates * per_node("gate") * vdd
    sub_cold = n_gates * per_node("sub_cold") * vdd
    leak_cold = sub_cold + gate_power
    vth0 = per_node("vth")
    vth_tc = per_node("vth_tc")
    t0 = per_node("t0")
    n_sub = per_node("n_sub")
    dibl_vdd = per_node("dibl") * vdd
    i0_n = per_node("i0_n")
    i0_p = per_node("i0_p")

    def leak(temperature: np.ndarray) -> np.ndarray:
        hot_vth = np.maximum(
            vth0 + vth_tc * (temperature - t0), 0.02)
        vth_eff = hot_vth - dibl_vdd
        phi_t = BOLTZMANN * temperature / ELECTRON_CHARGE
        exponential = np.exp((0.0 - vth_eff) / (n_sub * phi_t))
        isub = 0.5 * (i0_n * exponential + i0_p * exponential) / 1
        return n_gates * isub * vdd + gate_power

    lo_cal, hi_cal = TechnologyNode.CALIBRATED_TEMPERATURE_RANGE
    temperature = np.full(shape, ambient)
    leakage = np.array(leak_cold)
    converged = np.zeros(shape, dtype=bool)
    runaway = np.zeros(shape, dtype=bool)
    n_iterations = np.zeros(shape, dtype=int)
    residual = np.full(shape, float("nan"))
    active = np.ones(shape, dtype=bool)
    for i in range(1, max_iterations + 1):
        if not active.any():
            break
        total = dynamic + leakage
        new_temperature = ambient + rth * total
        hit = active & (new_temperature > runaway_temperature)
        if hit.any():
            temperature = np.where(hit, new_temperature, temperature)
            runaway |= hit
            n_iterations = np.where(hit, i, n_iterations)
            active = active & ~hit
            if not active.any():
                break
        live = np.where(active, new_temperature, ambient)
        extreme = active & ((live < lo_cal) | (live > hi_cal))
        if extreme.any():
            worst = float(live[extreme].max())
            warnings.warn(
                f"temperature {worst:g} K is outside the calibrated "
                f"range [{lo_cal:g}, {hi_cal:g}] K; the V_T and "
                f"mobility extrapolations are unvalidated there",
                ModelDomainWarning, stacklevel=3)
        leakage = np.where(active, leak(live), leakage)
        step = np.abs(new_temperature - temperature)
        residual = np.where(active, step, residual)
        hits_tol = active & (step == step) & (np.abs(step) <= tolerance)
        converged |= hits_tol
        n_iterations = np.where(hits_tol, i, n_iterations)
        temperature = np.where(active, new_temperature, temperature)
        active = active & ~hits_tol
    n_iterations = np.where(active, max_iterations, n_iterations)
    runaway |= active & (temperature > 0.9 * runaway_temperature)
    return ElectrothermalBatch(
        node_names=tuple(c["name"] for c in consts),
        converged=converged, runaway=runaway,
        junction_temperature=temperature,
        dynamic_power=np.broadcast_to(dynamic, shape).copy(),
        leakage_power=leakage,
        leakage_power_cold=np.broadcast_to(leak_cold, shape).copy(),
        n_iterations=n_iterations,
        residual=residual,
        max_iterations=max_iterations,
        tolerance=tolerance)


def solve_operating_point_batch(nodes, rth: ArrayLike = 20.0,
                                n_gates: ArrayLike = 1_000_000,
                                frequency: ArrayLike = 1e9,
                                activity: ArrayLike = 0.1,
                                ambient: float = 318.0,
                                max_iterations: int = 100,
                                tolerance: float = 0.01,
                                runaway_temperature: float = 500.0
                                ) -> ElectrothermalBatch:
    """Vectorized twin of :func:`solve_operating_point`.

    Solves the electrothermal fixed point for every (node, grid
    element) pair in one batched iteration: ``rth``, ``n_gates``,
    ``frequency`` and ``activity`` broadcast together into the grid
    (e.g. an Rth sweep crossed with power corners), and the returned
    :class:`ElectrothermalBatch` has shape ``(len(nodes),) +
    grid_shape``.  Per-element convergence masks replicate the
    oracle's :class:`IterationGuard` semantics; junction temperatures
    agree with per-point scalar solves to the engine's 1e-9 relative
    contract and the discrete outcomes (convergence flag, runaway
    flag, iteration count, report message) agree exactly.
    """
    if isinstance(nodes, TechnologyNode):
        nodes = [nodes]
    nodes = list(nodes)
    if not nodes:
        raise ModelDomainError("need at least one technology node")
    check_positive("rth", rth)
    check_positive("frequency", frequency)
    check_range("activity", activity, 0.0, 1.0)
    check_positive("ambient", ambient)
    check_positive("tolerance", tolerance)
    check_positive("runaway_temperature", runaway_temperature)
    max_iterations = check_count("max_iterations", max_iterations)
    gates = np.asarray(n_gates, dtype=float)
    if not np.all(np.isfinite(gates)) or np.any(gates < 1) \
            or np.any(gates != np.floor(gates)):
        raise ModelDomainError(
            f"n_gates must be integral and >= 1, got {n_gates!r}")
    rth_b, ng_b, f_b, a_b = np.broadcast_arrays(
        np.asarray(rth, dtype=float), gates,
        np.asarray(frequency, dtype=float),
        np.asarray(activity, dtype=float))
    ambient = float(ambient)
    shape = (len(nodes),) + rth_b.shape
    consts = [_engine_constants(node, ambient) for node in nodes]
    return _batch_solve(
        consts,
        np.broadcast_to(rth_b, shape), np.broadcast_to(ng_b, shape),
        np.broadcast_to(f_b, shape), np.broadcast_to(a_b, shape),
        ambient, max_iterations, float(tolerance),
        float(runaway_temperature))


def runaway_rth_threshold(node: TechnologyNode,
                          n_gates: int = 1_000_000,
                          frequency: float = 1e9,
                          activity: float = 0.1,
                          ambient: float = 318.0,
                          rth_range: Optional[Sequence[float]] = None
                          ) -> float:
    """Package resistance [K/W] above which the design runs away.

    Bisects over R_th: the cheapest-possible-package question.  A
    smaller threshold at smaller nodes = cooling budgets must grow
    just to stand still.  Runs the batched bisection of
    :func:`runaway_rth_thresholds` for the one node.
    """
    return float(runaway_rth_thresholds(
        [node], n_gates=n_gates, frequency=frequency,
        activity=activity, ambient=ambient, rth_range=rth_range)[0])


def _runaway_rth_threshold_reference(
        node: TechnologyNode, n_gates: int = 1_000_000,
        frequency: float = 1e9, activity: float = 0.1,
        ambient: float = 318.0,
        rth_range: Optional[Sequence[float]] = None) -> float:
    """Scalar reference of :func:`runaway_rth_threshold`: the 40-step
    geometric bisection with one :func:`solve_operating_point` per
    probe (only tests call it)."""
    lo, hi = 0.1, 2000.0
    if rth_range is not None:
        lo, hi = rth_range

    def runs_away(rth: float) -> bool:
        stack = ThermalStack(rth_junction_to_ambient=rth,
                             ambient=ambient)
        return solve_operating_point(
            node, n_gates, frequency, activity, stack).runaway

    if not runs_away(hi):
        return hi
    if runs_away(lo):
        return lo
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if runs_away(mid):
            hi = mid
        else:
            lo = mid
    return lo


def runaway_rth_thresholds(nodes: Sequence[TechnologyNode],
                           n_gates: ArrayLike = 1_000_000,
                           frequency: ArrayLike = 1e9,
                           activity: ArrayLike = 0.1,
                           ambient: float = 318.0,
                           rth_range: Optional[Sequence[float]] = None
                           ) -> np.ndarray:
    """All nodes' runaway R_th thresholds as one batched bisection.

    Same probe sequence as the scalar bisection (geometric midpoints,
    40 steps, bracket checks first) with every node's probe solved in
    a single :func:`solve_operating_point_batch` call per step, so the
    per-node results match :func:`_runaway_rth_threshold_reference`.
    """
    nodes = list(nodes)
    if not nodes:
        raise ModelDomainError("need at least one technology node")
    lo_0, hi_0 = (0.1, 2000.0) if rth_range is None else rth_range
    check_positive("rth_range", (lo_0, hi_0))
    count = len(nodes)
    check_positive("ambient", ambient)
    ambient = float(ambient)
    consts = [_engine_constants(node, ambient) for node in nodes]
    gates = np.asarray(n_gates, dtype=float)
    if not np.all(np.isfinite(gates)) or np.any(gates < 1) \
            or np.any(gates != np.floor(gates)):
        raise ModelDomainError(
            f"n_gates must be integral and >= 1, got {n_gates!r}")
    check_positive("frequency", frequency)
    check_range("activity", activity, 0.0, 1.0)
    ng, freq, act = (np.broadcast_to(np.asarray(v, dtype=float), (count,))
                     for v in (gates, frequency, activity))

    def runs_away(rth: np.ndarray) -> np.ndarray:
        return _batch_solve(consts, rth, ng, freq, act, ambient,
                            max_iterations=100, tolerance=0.01,
                            runaway_temperature=500.0).runaway

    lo = np.full(count, float(lo_0))
    hi = np.full(count, float(hi_0))
    out = np.empty(count)
    # Bracket checks first, exactly like the scalar path: a design
    # that never runs away pins the answer at hi, one that always
    # runs away pins it at lo.
    safe_at_hi = ~runs_away(hi)
    out[safe_at_hi] = hi[safe_at_hi]
    hot_at_lo = ~safe_at_hi & runs_away(lo)
    out[hot_at_lo] = lo[hot_at_lo]
    open_mask = ~safe_at_hi & ~hot_at_lo
    if open_mask.any():
        for _ in range(40):
            mid = np.sqrt(lo * hi)
            away = runs_away(mid)
            hi = np.where(open_mask & away, mid, hi)
            lo = np.where(open_mask & ~away, mid, lo)
        out[open_mask] = lo[open_mask]
    return out


def electrothermal_rth_sweep(nodes: Sequence[TechnologyNode],
                             rth_values: Sequence[float],
                             n_gates: int = 1_000_000,
                             frequency: float = 1e9,
                             activity: float = 0.1,
                             ambient: float = 318.0,
                             max_iterations: int = 100,
                             tolerance: float = 0.01,
                             runaway_temperature: float = 500.0
                             ) -> List[Dict[str, object]]:
    """Junction temperature across a nodes x Rth grid, one row each.

    The CLI's ``electrothermal`` table and the electrothermal
    benchmark both drive this entry point: one masked batched
    iteration solves the whole grid.
    """
    nodes = list(nodes)
    rth_values = [float(r) for r in rth_values]
    batch = solve_operating_point_batch(
        nodes, rth=np.asarray(rth_values, dtype=float),
        n_gates=n_gates, frequency=frequency, activity=activity,
        ambient=ambient, max_iterations=max_iterations,
        tolerance=tolerance, runaway_temperature=runaway_temperature)
    return [_sweep_row(node.name, rth, batch.result((i, j)))
            for i, node in enumerate(nodes)
            for j, rth in enumerate(rth_values)]


def _rth_sweep_reference(nodes: Sequence[TechnologyNode],
                         rth_values: Sequence[float],
                         n_gates: int = 1_000_000,
                         frequency: float = 1e9,
                         activity: float = 0.1,
                         ambient: float = 318.0,
                         max_iterations: int = 100,
                         tolerance: float = 0.01,
                         runaway_temperature: float = 500.0
                         ) -> List[Dict[str, object]]:
    """Scalar reference of :func:`electrothermal_rth_sweep`: one
    :func:`solve_operating_point` per grid element (only tests and
    the electrothermal benchmark call it)."""
    rows: List[Dict[str, object]] = []
    for node in nodes:
        for rth in map(float, rth_values):
            result = solve_operating_point(
                node, n_gates=n_gates, frequency=frequency,
                activity=activity,
                stack=ThermalStack(rth_junction_to_ambient=rth,
                                   ambient=ambient),
                max_iterations=max_iterations, tolerance=tolerance,
                runaway_temperature=runaway_temperature)
            rows.append(_sweep_row(node.name, rth, result))
    return rows


def _sweep_row(name: str, rth: float,
               result: ElectrothermalResult) -> Dict[str, object]:
    """One nodes x Rth sweep row."""
    return {
        "node": name,
        "rth_K_per_W": rth,
        "junction_K": result.junction_temperature,
        "leakage_W": result.leakage_power,
        "feedback_amplification": result.feedback_amplification,
        "converged": result.converged,
        "runaway": result.runaway,
        "n_iterations": result.n_iterations,
    }


def fixed_die_electrothermal_trend(nodes: Sequence[TechnologyNode],
                                   die_area: float = 50e-6,
                                   stack: ThermalStack = ThermalStack(),
                                   max_frequency: float = 3e9
                                   ) -> List[Dict[str, float]]:
    """The broken constant-power-density promise, electrothermally.

    Fill the same die area at each node (gate count scales with
    density ~ S^2) and clock at each node's own achievable speed
    (capped at ``max_frequency``).  Full scaling promised constant
    power density; leakage + sub-full voltage scaling break it, and
    the self-consistent junction temperature climbs node over node
    until the loop runs away.

    ``die_area`` in m^2 (default 50 mm^2).  All nodes are solved in
    one batched fixed-point iteration.
    """
    from ..digital.delay import fo4_delay_model
    nodes = list(nodes)
    if not nodes:
        return []
    per_node_gates = []
    per_node_f = []
    for node in nodes:
        gate_area = (8 * node.wire_pitch) * (12 * node.wire_pitch)
        per_node_gates.append(max(int(die_area / gate_area), 1))
        per_node_f.append(min(1.0 / (30.0 * fo4_delay_model(node).delay()),
                              max_frequency))
    ambient = float(stack.ambient)
    consts = [_engine_constants(node, ambient) for node in nodes]
    batch = _batch_solve(
        consts,
        np.full(len(nodes), float(stack.rth_junction_to_ambient)),
        np.asarray(per_node_gates, dtype=float),
        np.asarray(per_node_f, dtype=float),
        np.full(len(nodes), 0.1), ambient,
        max_iterations=100, tolerance=0.01,
        runaway_temperature=500.0)
    rows = []
    for i, (node, n_gates, f_clk) in enumerate(
            zip(nodes, per_node_gates, per_node_f)):
        result = batch.result(i)
        rows.append({
            "node": node.name,
            "n_gates_M": n_gates / 1e6,
            "f_clk_GHz": f_clk / 1e9,
            "junction_C": result.junction_temperature - 273.15,
            "total_power_W": result.total_power,
            "power_density_W_cm2": result.total_power
            / (die_area * 1e4),
            "feedback_amplification": result.feedback_amplification,
            "runaway": float(result.runaway),
        })
    return rows
