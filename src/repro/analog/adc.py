"""A/D converter survey and figure-of-merit analysis.

Fig. 6 overlays "real A/D converter designs" (the red squares) on the
thermal and mismatch limit lines.  We do not have the paper's survey
database, so this module ships a synthetic survey of published-design-
like points (speed/resolution/power triples spanning flash, pipeline,
SAR and sigma-delta architectures, with the era-typical 2-20x margin
above the mismatch limit), placed on the Fig. 6 plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..robust.rng import resolve_rng
from ..technology.node import TechnologyNode
from .tradeoff import (TradeoffPoint, accuracy_from_bits,
                       mismatch_constant, thermal_noise_constant)
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class AdcDesign:
    """One converter design point."""

    name: str
    architecture: str
    sample_rate: float       # S/s
    n_bits: float            # effective resolution (ENOB)
    power: float             # W

    def to_tradeoff_point(self) -> TradeoffPoint:
        """Project onto the Fig. 6 plane."""
        return TradeoffPoint(label=self.name, speed=self.sample_rate,
                             n_bits=self.n_bits, power=self.power)


# Synthetic survey: era-accurate (late-90s / early-2000s) design
# points.  Powers sit a small factor above each point's mismatch-limit
# minimum, which is exactly how the paper's red squares cluster.
SURVEY: List[AdcDesign] = [
    AdcDesign("flash-6b-1G", "flash", 1.0e9, 5.5, 2.0),
    AdcDesign("flash-8b-400M", "flash", 400e6, 7.4, 0.8),
    AdcDesign("pipeline-10b-40M", "pipeline", 40e6, 9.2, 0.069),
    AdcDesign("pipeline-12b-20M", "pipeline", 20e6, 11.0, 0.25),
    AdcDesign("pipeline-14b-10M", "pipeline", 10e6, 12.5, 0.32),
    AdcDesign("pipeline-10b-100M", "pipeline", 100e6, 9.4, 0.4),
    AdcDesign("sar-8b-1M", "sar", 1e6, 7.7, 0.0008),
    AdcDesign("sar-10b-5M", "sar", 5e6, 9.3, 0.006),
    AdcDesign("sar-12b-1M", "sar", 1e6, 11.2, 0.012),
    AdcDesign("sd-16b-100k", "sigma-delta", 100e3, 15.0, 0.045),
    AdcDesign("sd-18b-40k", "sigma-delta", 40e3, 16.5, 0.15),
    AdcDesign("sd-13b-2M", "sigma-delta", 2e6, 12.6, 0.035),
    AdcDesign("flash-7b-600M", "flash", 600e6, 6.3, 0.9),
    AdcDesign("pipeline-11b-60M", "pipeline", 60e6, 10.3, 0.28),
    AdcDesign("sar-9b-200k", "sar", 200e3, 8.6, 0.0003),
    AdcDesign("pipeline-13b-5M", "pipeline", 5e6, 12.1, 0.085),
    AdcDesign("sd-14b-1M", "sigma-delta", 1e6, 13.3, 0.03),
    AdcDesign("flash-5b-2G", "flash", 2.0e9, 4.6, 1.6),
    AdcDesign("pipeline-9b-200M", "pipeline", 200e6, 8.4, 0.45),
    AdcDesign("sar-11b-500k", "sar", 500e3, 10.4, 0.004),
]


def survey_vs_limits(node: TechnologyNode,
                     temperature: float = 300.0
                     ) -> List[Dict[str, float]]:
    """Each survey converter against the two eq. 4 limits.

    ``margin_over_mismatch`` ~ O(1-30) and ``margin_over_thermal`` ~
    O(100-3000) reproduces the Fig. 6 clustering near the mismatch
    line.
    """
    mismatch = mismatch_constant(node)
    thermal = thermal_noise_constant(temperature)
    rows = []
    for design in SURVEY:
        fom = design.to_tradeoff_point().figure_of_merit
        rows.append({
            "name": design.name,
            "architecture": design.architecture,
            "sample_rate_Hz": design.sample_rate,
            "enob": design.n_bits,
            "power_W": design.power,
            "fom_J": fom,
            "margin_over_mismatch": fom / mismatch,
            "margin_over_thermal": fom / thermal,
        })
    return rows


def minimum_adc_power(node: TechnologyNode, sample_rate: float,
                      n_bits: float, calibrated: bool = False,
                      temperature: float = 300.0) -> float:
    """Minimum power [W] of a converter spec in ``node``.

    Uncalibrated converters pay the mismatch limit; ``calibrated``
    (trimmed/digitally corrected) ones only the thermal limit -- the
    paper's "untrimmed or uncalibrated" qualifier.
    """
    accuracy = accuracy_from_bits(n_bits)
    thermal = sample_rate * accuracy ** 2 * thermal_noise_constant(
        temperature)
    if calibrated:
        return thermal
    mismatch = sample_rate * accuracy ** 2 * mismatch_constant(node)
    return max(thermal, mismatch)


def resolution_speed_frontier(node: TechnologyNode,
                              power_budget: float,
                              n_bits_range: Sequence[float]
                              ) -> List[Dict[str, float]]:
    """Max sample rate vs resolution at a fixed power budget."""
    if power_budget <= 0:
        raise ModelDomainError("power_budget must be positive")
    rows = []
    for n_bits in n_bits_range:
        unit = minimum_adc_power(node, 1.0, n_bits)
        rows.append({
            "n_bits": n_bits,
            "max_sample_rate_Hz": power_budget / unit,
        })
    return rows


def sample_synthetic_survey(node: TechnologyNode, n_designs: int = 30,
                            seed: Optional[int] = None,
                            margin_range: tuple = (2.0, 30.0)
                            ) -> List[AdcDesign]:
    """Generate additional survey points consistent with ``node``.

    Designs land a log-uniform margin above the mismatch limit --
    useful for populating Fig. 6 more densely in the benchmark.
    """
    rng = resolve_rng(seed=seed)
    mismatch = mismatch_constant(node)
    designs = []
    for index in range(n_designs):
        n_bits = float(rng.uniform(5.0, 16.0))
        speed = float(10.0 ** rng.uniform(5.0, 9.5 - 0.2 * n_bits))
        margin = float(np.exp(rng.uniform(
            math.log(margin_range[0]), math.log(margin_range[1]))))
        accuracy = accuracy_from_bits(n_bits)
        power = margin * mismatch * speed * accuracy ** 2
        designs.append(AdcDesign(
            name=f"synthetic-{index}",
            architecture="synthetic",
            sample_rate=speed,
            n_bits=n_bits,
            power=power,
        ))
    return designs
