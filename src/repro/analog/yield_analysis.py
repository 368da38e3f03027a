"""Statistical analog design: parametric yield under process variation.

Section 4.1 closes with: "analog designers have always had to cope
with process tolerances and mismatches, and have been using
statistical methods already a long time ago" (Director's statistical
IC design, [8]).  This module is that methodology on top of the
evaluation engines: Monte Carlo over inter-die shifts and intra-die
mismatch, per-spec yield, and the yield-vs-device-area curve that
justifies why analog transistors stay big.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..technology.node import TechnologyNode
from ..variability.pelgrom import sigma_delta_beta, sigma_delta_vth
from ..variability.statistical import MonteCarloSampler, VariationSpec
from .circuits import OtaDesign, OtaPerformance, SingleStageOta
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class YieldReport:
    """Per-spec and overall parametric yield of one sizing."""

    n_samples: int
    overall_yield: float
    per_spec_yield: Dict[str, float]
    mean_offset: float          # V (should be ~0)
    sigma_offset: float         # V (the MC-measured spread)


class OtaYieldAnalyzer:
    """Monte Carlo yield of a single-stage OTA sizing.

    Each sample draws (a) an inter-die V_T shift that moves the bias
    point (gm, GBW, swing), and (b) intra-die pair mismatch that sets
    the random offset, then re-evaluates the analytic engine and
    checks the spec.
    """

    def __init__(self, node: TechnologyNode, design: OtaDesign,
                 load_capacitance: float,
                 variation: VariationSpec = VariationSpec(),
                 seed: Optional[int] = None):
        self.node = node
        self.design = design
        self.engine = SingleStageOta(node, load_capacitance)
        self.variation = variation
        self.rng = resolve_rng(seed=seed)
        self._sampler = MonteCarloSampler(node, variation, seed=seed)

    def _evaluate_shifted(self, vth_global: float,
                          length_factor: float,
                          tox_factor: float) -> OtaPerformance:
        """Re-evaluate the engine on a globally shifted node."""
        shifted_node = self.node.with_overrides(
            name=f"{self.node.name}@die",
            vth=self.node.vth + vth_global,
            feature_size=self.node.feature_size * length_factor,
            tox=self.node.tox * tox_factor,
        )
        engine = SingleStageOta(shifted_node,
                                self.engine.load_capacitance)
        return engine.evaluate(self.design)

    def _offset_sigmas(self) -> tuple:
        sigma_in = sigma_delta_vth(self.node, self.design.input_width,
                                   self.design.input_length)
        sigma_beta = sigma_delta_beta(self.node,
                                      self.design.input_width,
                                      self.design.input_length)
        return sigma_in, sigma_beta

    def sample_performance(self) -> OtaPerformance:
        """One MC draw of the OTA's performance."""
        die = self._sampler.sample_die()
        nominal = self._evaluate_shifted(die.vth_global,
                                         die.length_factor_global,
                                         die.tox_factor_global)
        # Replace the analytic offset sigma by an actual draw.
        sigma_in, sigma_beta = self._offset_sigmas()
        offset = (sigma_in * self.rng.standard_normal()
                  + 0.1 * sigma_beta * self.rng.standard_normal())
        return dataclasses.replace(nominal, offset_sigma=abs(offset))

    def _performance_matrix_oracle(self, batch, offsets: np.ndarray,
                                   keys: List[str]) -> np.ndarray:
        """Scalar reference of :meth:`_performance_matrix_batch`: one
        ``with_overrides`` + evaluate per die (only tests call it)."""
        n_samples = len(offsets)
        values = np.empty((n_samples, len(keys)))
        for i in range(n_samples):
            perf = self._evaluate_shifted(
                float(batch.vth_global[i]),
                float(batch.length_factor_global[i]),
                float(batch.tox_factor_global[i]))
            perf = dataclasses.replace(perf,
                                       offset_sigma=float(offsets[i]))
            for k, key in enumerate(keys):
                values[i, k] = getattr(perf, key)
        return values

    def _performance_matrix_batch(self, batch, offsets: np.ndarray,
                                  keys: List[str]) -> np.ndarray:
        """Vectorized twin: all dies in one ``evaluate_batch`` call.

        The per-die node overrides are the same elementwise
        expressions the oracle feeds ``with_overrides``, so every
        column is bit-for-bit the oracle's (dies whose shift pushes
        the node out of its domain come back NaN and count as spec
        failures instead of aborting the whole run).
        """
        design = self.design
        perf = self.engine.evaluate_batch(
            design.input_width, design.input_length,
            design.load_width, design.load_length,
            design.tail_current,
            node_overrides={
                "vth": self.node.vth + batch.vth_global,
                "feature_size": (self.node.feature_size
                                 * batch.length_factor_global),
                "tox": self.node.tox * batch.tox_factor_global,
            },
            invalid="nan")
        n_samples = len(offsets)
        values = np.empty((n_samples, len(keys)))
        for k, key in enumerate(keys):
            if key == "offset_sigma":
                values[:, k] = offsets
            else:
                values[:, k] = np.asarray(getattr(perf, key),
                                          dtype=float)
        return values

    def run(self, spec: Dict[str, float],
            n_samples: int = 300) -> YieldReport:
        """MC yield against ``spec``.

        ``spec`` keys: ``gain_db``/``gbw_hz``/``phase_margin_deg``/
        ``slew_rate``/``swing`` are minima; ``power``/``offset_sigma``
        maxima (same convention as :meth:`OtaPerformance.meets`).
        Every die is evaluated in one
        :meth:`SingleStageOta.evaluate_batch` call with per-die node
        overrides, bit-for-bit the per-die scalar loop.
        """
        if n_samples < 1:
            raise ModelDomainError("n_samples must be positive")
        minima = ("gain_db", "gbw_hz", "phase_margin_deg",
                  "slew_rate", "swing")
        batch = self._sampler.sample_dies_batch(n_samples)
        sigma_in, sigma_beta = self._offset_sigmas()
        draws = self.rng.standard_normal((n_samples, 2))
        offsets = np.abs(sigma_in * draws[:, 0]
                         + 0.1 * sigma_beta * draws[:, 1])
        keys = list(spec)
        values = self._performance_matrix_batch(batch, offsets, keys)
        bounds = np.array([spec[key] for key in keys])
        is_min = np.array([key in minima for key in keys])
        ok = np.where(is_min, values >= bounds, values <= bounds)
        all_ok = ok.all(axis=1) if keys else np.ones(n_samples, bool)
        return YieldReport(
            n_samples=n_samples,
            overall_yield=float(np.count_nonzero(all_ok)) / n_samples,
            per_spec_yield={key: float(np.count_nonzero(ok[:, k]))
                            / n_samples
                            for k, key in enumerate(keys)},
            mean_offset=float(offsets.mean()),
            sigma_offset=float(offsets.std(ddof=1)),
        )


def offset_yield(node: TechnologyNode, width: float, length: float,
                 offset_limit: float) -> float:
    """Closed-form offset yield of a differential pair.

    P(|offset| < limit) for offset ~ N(0, A_VT/sqrt(WL)): the
    analytic backbone of the yield-vs-area trade.
    """
    from scipy.stats import norm
    if offset_limit <= 0:
        raise ModelDomainError("offset_limit must be positive")
    sigma = sigma_delta_vth(node, width, length)
    return float(norm.cdf(offset_limit / sigma)
                 - norm.cdf(-offset_limit / sigma))


def yield_vs_area(node: TechnologyNode, offset_limit: float = 3e-3,
                  area_factors: Sequence[float] = (1, 2, 4, 8, 16, 32),
                  base_width: Optional[float] = None,
                  base_length: Optional[float] = None
                  ) -> List[Dict[str, float]]:
    """Offset yield vs input-pair area: why analog devices stay big.

    Doubling W*L improves sigma by sqrt(2); reaching 6-sigma offset
    yield costs orders of magnitude more area than a minimum device --
    the quantitative core of section 4.1's area argument.
    """
    base_width = base_width if base_width is not None \
        else 10.0 * node.feature_size
    base_length = base_length if base_length is not None \
        else 2.0 * node.feature_size
    rows = []
    for factor in area_factors:
        scale = math.sqrt(factor)
        width = base_width * scale
        length = base_length * scale
        sigma = sigma_delta_vth(node, width, length)
        rows.append({
            "area_factor": float(factor),
            "area_um2": width * length * 1e12,
            "sigma_offset_mV": sigma * 1e3,
            "yield": offset_yield(node, width, length, offset_limit),
            "sigma_level": offset_limit / sigma,
        })
    return rows


def area_for_offset_yield(node: TechnologyNode, offset_limit: float,
                          sigma_level: float = 3.0) -> float:
    """Gate area [m^2] for the pair to meet ``offset_limit`` at
    ``sigma_level`` confidence."""
    if offset_limit <= 0 or sigma_level <= 0:
        raise ModelDomainError("offset_limit and sigma_level must be positive")
    sigma_needed = offset_limit / sigma_level
    return (node.avt / sigma_needed) ** 2
