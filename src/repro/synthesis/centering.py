"""Yield-aware sizing: design centering.

Combines the AMGIE optimization loop with the statistical-design
methodology of the paper's reference [8] (Director et al., "Statistical
integrated circuit design"): instead of optimizing the *nominal*
performance, optimize the performance at a guard-banded (k-sigma)
corner, pushing the design to the centre of the feasible region so
process spread no longer clips the yield.

The spread model reuses the analytic sensitivities of the evaluation
engines: offset spreads with Pelgrom mismatch, bias-dependent metrics
(GBW, slew, power) with the inter-die V_T shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..robust.validate import check_positive
from ..technology.node import TechnologyNode
from ..analog.circuits import OtaDesign, OtaPerformance, SingleStageOta
from ..analog.yield_analysis import OtaYieldAnalyzer
from ..variability.statistical import VariationSpec
from .sizing import (CircuitSynthesizer, Specification, SynthesisResult,
                     Variable)


class GuardBandedOta:
    """Evaluation engine wrapper returning k-sigma worst-case numbers.

    Each metric is evaluated at the inter-die V_T corner that hurts it
    most (+k sigma for drive-dependent metrics, either corner for
    power), and the offset constraint is checked at k times the
    mismatch sigma.
    """

    def __init__(self, node: TechnologyNode, load_capacitance: float,
                 n_sigma: float = 3.0,
                 variation: VariationSpec = VariationSpec()):
        check_positive("n_sigma", n_sigma)
        self.node = node
        self.load_capacitance = load_capacitance
        self.n_sigma = n_sigma
        self.variation = variation

    def _engine_at(self, vth_shift: float) -> SingleStageOta:
        shifted = self.node.with_overrides(
            vth=min(self.node.vth + vth_shift, 0.9 * self.node.vdd))
        return SingleStageOta(shifted, self.load_capacitance)

    def evaluate(self, design: OtaDesign) -> OtaPerformance:
        """Worst-case-corner performance of one sizing."""
        shift = self.n_sigma * self.variation.vth_inter
        slow = self._engine_at(+shift).evaluate(design)
        fast = self._engine_at(-shift).evaluate(design)
        nominal = self._engine_at(0.0).evaluate(design)
        return OtaPerformance(
            gain_db=min(slow.gain_db, fast.gain_db),
            gbw_hz=min(slow.gbw_hz, fast.gbw_hz),
            phase_margin_deg=min(slow.phase_margin_deg,
                                 fast.phase_margin_deg),
            slew_rate=min(slow.slew_rate, fast.slew_rate),
            input_noise_rms=max(slow.input_noise_rms,
                                fast.input_noise_rms),
            offset_sigma=self.n_sigma * nominal.offset_sigma,
            power=max(slow.power, fast.power),
            area=nominal.area,
            swing=min(slow.swing, fast.swing),
        )


def centered_ota_synthesizer(node: TechnologyNode,
                             load_capacitance: float,
                             spec: Specification,
                             n_sigma: float = 3.0,
                             variation: VariationSpec = VariationSpec()
                             ) -> CircuitSynthesizer:
    """AMGIE sizing against the k-sigma corner instead of nominal."""
    engine = GuardBandedOta(node, load_capacitance, n_sigma, variation)
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

    variables = [
        Variable("input_width", 2 * f, 2000 * f),
        Variable("input_length", f, 20 * f),
        Variable("load_width", 2 * f, 1000 * f),
        Variable("load_length", f, 40 * f),
        Variable("tail_current", 1e-6, 5e-3),
    ]
    return CircuitSynthesizer(variables, evaluate, spec)


@dataclass(frozen=True)
class CenteringComparison:
    """Nominal-optimized vs centered design, judged by MC yield."""

    nominal: SynthesisResult
    centered: SynthesisResult
    nominal_yield: float
    centered_yield: float
    power_cost: float       # centered power / nominal power


def compare_centering(node: TechnologyNode, load_capacitance: float,
                      spec: Specification,
                      n_sigma: float = 3.0,
                      seed: int = 0,
                      maxiter: int = 30,
                      n_mc: int = 200,
                      variation: VariationSpec = VariationSpec()
                      ) -> CenteringComparison:
    """The headline experiment of statistical design.

    Optimize once against nominal performance and once against the
    k-sigma corner; score both with the same Monte Carlo yield
    analyzer.  Centering should buy yield at a modest power premium.
    """
    from .sizing import ota_synthesizer

    nominal_result = ota_synthesizer(
        node, load_capacitance, spec).run(seed=seed, maxiter=maxiter)
    centered_result = centered_ota_synthesizer(
        node, load_capacitance, spec, n_sigma, variation).run(
            seed=seed, maxiter=maxiter)

    mc_spec = {attr: bound
               for attr, (direction, bound) in spec.constraints.items()}

    def mc_yield(result: SynthesisResult) -> float:
        design = OtaDesign(
            input_width=result.values["input_width"],
            input_length=result.values["input_length"],
            load_width=result.values["load_width"],
            load_length=result.values["load_length"],
            tail_current=result.values["tail_current"],
        )
        analyzer = OtaYieldAnalyzer(node, design, load_capacitance,
                                    variation, seed=seed)
        return analyzer.run(mc_spec, n_samples=n_mc).overall_yield

    nominal_perf = nominal_result.performance
    centered_perf = centered_result.performance
    return CenteringComparison(
        nominal=nominal_result,
        centered=centered_result,
        nominal_yield=mc_yield(nominal_result),
        centered_yield=mc_yield(centered_result),
        power_cost=centered_perf.power / max(nominal_perf.power, 1e-15),
    )
