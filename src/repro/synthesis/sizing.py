"""Optimization-based circuit sizing (the AMGIE engine).

"Most of the basic techniques in both circuit and layout synthesis
today rely on powerful numerical optimization engines coupled to
evaluation engines" (section 4.2).  This module is the optimization
half: a differential-evolution global search over the design
variables, scoring candidates with the analytic evaluation engines of
:mod:`repro.analog.circuits` through a penalty-based cost function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..robust.errors import ModelDomainError, ReproError
from ..robust.guards import ConvergenceReport
from ..robust.validate import check_count
from ..technology.node import TechnologyNode
from ..analog.circuits import (DetectorFrontend, DetectorFrontendDesign,
                               FrontendPerformance, OtaDesign,
                               OtaPerformance, SingleStageOta)


@dataclass(frozen=True)
class Variable:
    """One design variable with log-uniform search bounds."""

    name: str
    low: float
    high: float
    log_scale: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)) \
                or self.low <= 0 or self.high <= self.low:
            raise ModelDomainError(
                f"bad bounds for {self.name}: ({self.low}, {self.high})")

    def decode(self, unit: float) -> float:
        """Map a [0, 1] optimizer coordinate to a physical value."""
        unit = min(max(unit, 0.0), 1.0)
        if self.log_scale:
            return self.low * (self.high / self.low) ** unit
        return self.low + (self.high - self.low) * unit

    def _decode_column(self, units: np.ndarray) -> np.ndarray:
        """:meth:`decode` of every element of ``units``, bit for bit.

        One ``np.clip`` replaces the per-element clamp; the mapping
        stays :meth:`decode`'s Python float expression, because
        numpy's ``power`` differs from libm's ``pow`` in the last bit
        on about 5 % of exponents.
        """
        units = np.clip(units, 0.0, 1.0).tolist()
        low = self.low
        if self.log_scale:
            ratio = self.high / self.low
            return np.array([low * ratio ** u for u in units])
        span = self.high - self.low
        return np.array([low + span * u for u in units])


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one synthesis run."""

    values: Dict[str, float]
    performance: object
    cost: float
    n_evaluations: int
    feasible: bool
    #: Optimizer convergence diagnostics (None for hand-built results).
    report: Optional[ConvergenceReport] = None
    #: Which evaluation path scored the population ("oracle" or
    #: "vectorized"); hand-built results default to the oracle.
    backend: str = "oracle"


@dataclass
class Specification:
    """Performance spec: constraints plus an objective to minimize.

    ``constraints`` maps a performance attribute to ("min"/"max",
    bound); ``objective`` names the attribute to minimize once
    feasible (typically ``power`` or ``area``).
    """

    constraints: Dict[str, Tuple[str, float]]
    objective: str = "power"

    def __post_init__(self) -> None:
        """Typed validation of the spec targets (bugfix: a NaN bound
        used to silently make every candidate 'feasible').

        Directions are still checked lazily in :meth:`penalty` so a
        mutated-after-construction spec fails the same way it always
        did.
        """
        for attr, entry in self.constraints.items():
            try:
                _direction, bound = entry
            except (TypeError, ValueError):
                raise ModelDomainError(
                    f"constraint {attr!r} must be a (direction, bound) "
                    f"pair, got {entry!r}") from None
            if not isinstance(bound, (int, float)) \
                    or isinstance(bound, bool) \
                    or not math.isfinite(bound):
                raise ModelDomainError(
                    f"constraint {attr!r} bound must be a finite "
                    f"number, got {bound!r}")

    def penalty(self, performance: object):
        """Sum of normalized constraint violations (0 when feasible).

        Accepts scalar performance objects (returns a float, the
        oracle path) and array-valued ones from the batched
        evaluators (returns the elementwise ndarray of penalties).
        Array handling adds violation terms in the same constraint
        order with explicit ``np.where`` masks, so each element is
        bit-for-bit the scalar result -- no implicit broadcasting
        surprises.
        """
        values = {attr: getattr(performance, attr)
                  for attr in self.constraints}
        if all(np.ndim(v) == 0 for v in values.values()):
            total = 0.0
            for attr, (direction, bound) in self.constraints.items():
                value = values[attr]
                if direction == "min":
                    if value < bound:
                        total += (bound - value) / max(abs(bound), 1e-30)
                elif direction == "max":
                    if value > bound:
                        total += (value - bound) / max(abs(bound), 1e-30)
                else:
                    raise ModelDomainError(f"bad direction {direction!r}")
            return total
        arrays = np.broadcast_arrays(
            *[np.asarray(v, dtype=float) for v in values.values()])
        total = np.zeros(arrays[0].shape)
        for (attr, (direction, bound)), value in \
                zip(self.constraints.items(), arrays):
            scale = max(abs(bound), 1e-30)
            if direction == "min":
                term = np.where(value < bound, (bound - value) / scale,
                                0.0)
            elif direction == "max":
                term = np.where(value > bound, (value - bound) / scale,
                                0.0)
            else:
                raise ModelDomainError(f"bad direction {direction!r}")
            total = total + term
        return total

    def is_feasible(self, performance: object):
        """True when all constraints hold (elementwise for arrays)."""
        penalty = self.penalty(performance)
        if np.ndim(penalty) == 0:
            return bool(penalty == 0.0)
        return penalty == 0.0


class CircuitSynthesizer:
    """Generic AMGIE-style sizing loop.

    Parameters
    ----------
    variables:
        The free design variables and their ranges.
    evaluate:
        Callable mapping a {name: value} dict to a performance object
        (one of the evaluation engines).  May raise ValueError for
        infeasible geometry; those candidates are heavily penalized.
    spec:
        Constraints + objective.
    evaluate_batch:
        Optional vectorized twin: maps a {name: ndarray} dict of
        per-candidate columns to a performance object with array
        fields (NaN for infeasible candidates).  When provided,
        :meth:`run` scores a whole DE generation in one call; when
        omitted, it scores candidates one by one through ``evaluate``.
    """

    PENALTY_WEIGHT = 1e3

    def __init__(self, variables: Sequence[Variable],
                 evaluate: Callable[[Dict[str, float]], object],
                 spec: Specification,
                 evaluate_batch: Optional[
                     Callable[[Dict[str, np.ndarray]], object]] = None):
        if not variables:
            raise ModelDomainError("need at least one design variable")
        self.variables = list(variables)
        self.evaluate = evaluate
        self.evaluate_batch = evaluate_batch
        self.spec = spec
        self._n_evaluations = 0

    def _decode(self, x: np.ndarray) -> Dict[str, float]:
        return {var.name: var.decode(float(u))
                for var, u in zip(self.variables, x)}

    def _cost(self, x: np.ndarray) -> float:
        self._n_evaluations += 1
        values = self._decode(x)
        try:
            performance = self.evaluate(values)
        except (ReproError, ValueError):
            return 1e12
        penalty = self.spec.penalty(performance)
        objective = getattr(performance, self.spec.objective)
        cost = objective + self.PENALTY_WEIGHT * penalty \
            * (abs(objective) + 1e-12)
        # A NaN/inf cost would poison differential evolution's ranking;
        # treat the candidate like an infeasible geometry instead.
        if not math.isfinite(cost):
            return 1e12
        # Normalize the objective so penalties always dominate.
        return cost

    def _decode_batch(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Decode an (n_vars, S) population one variable row at a
        time, bit-for-bit equal to the oracle's per-candidate
        :meth:`_decode`."""
        return {var.name: var._decode_column(row)
                for var, row in zip(self.variables, x)}

    def _cost_batch(self, x: np.ndarray) -> np.ndarray:
        """Vectorized cost: scores all S candidates in one pass.

        scipy's ``vectorized=True`` sends ``x`` with shape
        ``(n_vars, S)`` and expects ``(S,)`` back.  Candidates the
        oracle would reject (typed evaluator errors) come back as
        NaN from the batched evaluator and land on the same 1e12
        sentinel, so the cost surface is element-for-element the
        oracle's.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[:, np.newaxis]
        self._n_evaluations += x.shape[1]
        performance = self.evaluate_batch(self._decode_batch(x))
        penalty = np.asarray(self.spec.penalty(performance), dtype=float)
        objective = np.asarray(getattr(performance, self.spec.objective),
                               dtype=float)
        cost = objective + self.PENALTY_WEIGHT * penalty \
            * (np.abs(objective) + 1e-12)
        cost = np.where(np.isfinite(cost), cost, 1e12)
        return cost[0] if single else cost

    def run(self, seed: Optional[int] = None, maxiter: int = 60,
            popsize: int = 20,
            backend: Optional[str] = None) -> SynthesisResult:
        """Run differential evolution; returns the best design.

        Scores each generation in one batched call when the
        synthesizer has a batched evaluator, and candidates one by one
        through the scalar evaluator otherwise.  Both paths use
        deferred updating, so a fixed seed yields the *identical*
        optimization trajectory -- and best design -- on either.
        ``backend`` (``"oracle"``/``"vectorized"``) forces one path;
        it is kept only for the perfbench ota-synthesis workload.
        """
        maxiter = check_count("maxiter", maxiter)
        popsize = check_count("popsize", popsize, minimum=4)
        if backend is None:
            backend = ("vectorized" if self.evaluate_batch is not None
                       else "oracle")
        if backend not in ("oracle", "vectorized"):
            raise ModelDomainError(
                "backend must be one of ('oracle', 'vectorized'), "
                f"got {backend!r}")
        if backend == "vectorized" and self.evaluate_batch is None:
            raise ModelDomainError(
                "vectorized backend requested but this synthesizer has "
                "no batched evaluator; pass evaluate_batch= or use "
                "backend='oracle'")
        from scipy.optimize import differential_evolution

        self._n_evaluations = 0
        bounds = [(0.0, 1.0)] * len(self.variables)
        common = dict(seed=seed, maxiter=maxiter, popsize=popsize,
                      tol=1e-8, polish=False, init="sobol",
                      updating="deferred")
        if backend == "vectorized":
            result = differential_evolution(
                self._cost_batch, bounds, vectorized=True, **common)
        else:
            result = differential_evolution(self._cost, bounds, **common)
        values = self._decode(result.x)
        performance = self.evaluate(values)
        report = ConvergenceReport(
            name="differential evolution",
            converged=bool(result.success),
            n_iterations=int(getattr(result, "nit", 0)),
            max_iterations=maxiter,
            residual=float(result.fun),
            message=str(getattr(result, "message", "")),
        )
        return SynthesisResult(
            values=values,
            performance=performance,
            cost=float(result.fun),
            n_evaluations=self._n_evaluations,
            feasible=self.spec.is_feasible(performance),
            report=report,
            backend=backend,
        )


# --- ready-made synthesis setups ------------------------------------------

def ota_synthesizer(node: TechnologyNode, load_capacitance: float,
                    spec: Specification) -> CircuitSynthesizer:
    """Sizing setup for the single-stage OTA."""
    engine = SingleStageOta(node, load_capacitance)
    f = node.feature_size

    def evaluate(values: Dict[str, float]) -> OtaPerformance:
        design = OtaDesign(
            input_width=values["input_width"],
            input_length=values["input_length"],
            load_width=values["load_width"],
            load_length=values["load_length"],
            tail_current=values["tail_current"],
        )
        return engine.evaluate(design)

    def evaluate_batch(values: Dict[str, np.ndarray]) -> OtaPerformance:
        return engine.evaluate_batch(
            values["input_width"], values["input_length"],
            values["load_width"], values["load_length"],
            values["tail_current"], invalid="nan")

    variables = [
        Variable("input_width", 2 * f, 2000 * f),
        Variable("input_length", f, 20 * f),
        Variable("load_width", 2 * f, 1000 * f),
        Variable("load_length", f, 40 * f),
        Variable("tail_current", 1e-6, 5e-3),
    ]
    return CircuitSynthesizer(variables, evaluate, spec,
                              evaluate_batch=evaluate_batch)


def frontend_synthesizer(node: TechnologyNode,
                         spec: Specification,
                         detector_capacitance: float = 5e-12,
                         detector_leakage: float = 1e-9
                         ) -> CircuitSynthesizer:
    """Sizing setup for the detector front-end of Fig. 8."""
    engine = DetectorFrontend(node, detector_capacitance,
                              detector_leakage)
    f = node.feature_size

    def evaluate(values: Dict[str, float]) -> FrontendPerformance:
        design = DetectorFrontendDesign(
            input_width=values["input_width"],
            input_length=values["input_length"],
            feedback_capacitance=values["feedback_capacitance"],
            shaper_time_constant=values["shaper_time_constant"],
            drain_current=values["drain_current"],
        )
        return engine.evaluate(design)

    def evaluate_batch(values: Dict[str, np.ndarray]
                       ) -> FrontendPerformance:
        return engine.evaluate_batch(
            values["input_width"], values["input_length"],
            values["feedback_capacitance"],
            values["shaper_time_constant"],
            values["drain_current"], invalid="nan")

    variables = [
        Variable("input_width", 10 * f, 20000 * f),
        Variable("input_length", f, 10 * f),
        Variable("feedback_capacitance", 20e-15, 5e-12),
        Variable("shaper_time_constant", 50e-9, 20e-6),
        Variable("drain_current", 10e-6, 5e-3),
    ]
    return CircuitSynthesizer(variables, evaluate, spec,
                              evaluate_batch=evaluate_batch)


def default_ota_spec() -> Specification:
    """A representative OTA spec (gain/GBW/PM/offset, minimize power)."""
    return Specification(constraints={
        "gain_db": ("min", 36.0),
        "gbw_hz": ("min", 50e6),
        "phase_margin_deg": ("min", 60.0),
        "offset_sigma": ("max", 3e-3),
        "swing": ("min", 0.2),
    }, objective="power")


def default_frontend_spec() -> Specification:
    """A detector-front-end spec in the AMGIE paper's style."""
    return Specification(constraints={
        "enc_electrons": ("max", 1000.0),
        "peaking_time": ("max", 3e-6),
        "charge_gain": ("min", 1e12),     # 1 mV/fC
    }, objective="power")
