"""Behavioural pipeline ADC: mismatch becomes missing codes and ENOB.

Eq. 4 argues about power floors; this module closes the loop to the
signal: a 1.5-bit/stage pipeline ADC whose inter-stage gains and
comparator thresholds carry V_T-mismatch errors sized by the Pelgrom
model.  Feeding it a sine and FFT-ing the output measures the SNDR and
effective bits the mismatch actually leaves -- and shows digital
calibration winning them back, the escape hatch the paper's
"untrimmed or uncalibrated" qualifier points at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..robust.errors import CalibrationError, ModelDomainError
from ..robust.validate import check_count
from ..technology.node import TechnologyNode
from ..variability.pelgrom import sigma_delta_vth
from .metrics import spectral_metrics
from .noise import enob_from_snr
from ..robust.rng import resolve_rng


@dataclass
class PipelineStage:
    """One 1.5-bit pipeline stage with its error terms.

    The multiplying DAC implements V_out = 2*(V_in - d*V_ref/2) with
    d in {-1, 0, +1}; errors perturb the gain, the DAC levels and the
    comparator thresholds.
    """

    gain_error: float = 0.0           # relative MDAC gain error
    dac_offset: float = 0.0           # V, DAC level shift
    threshold_offsets: Tuple[float, float] = (0.0, 0.0)  # V

    def convert(self, v_in: float, v_ref: float) -> Tuple[int, float]:
        """One stage: decision d and residue voltage."""
        t_low = -v_ref / 4.0 + self.threshold_offsets[0]
        t_high = v_ref / 4.0 + self.threshold_offsets[1]
        if v_in < t_low:
            decision = -1
        elif v_in > t_high:
            decision = 1
        else:
            decision = 0
        residue = (2.0 * (1.0 + self.gain_error)
                   * (v_in - decision * (v_ref / 2.0 + self.dac_offset)))
        return decision, residue


class PipelineAdc:
    """An N-stage, 1.5-bit/stage pipeline converter.

    Parameters
    ----------
    node:
        Technology node; mismatch errors are drawn with Pelgrom sigma
        for the given device area.
    n_stages:
        Pipeline depth; resolution ~ n_stages + 1 bits.
    v_ref:
        Reference (full scale is +/- v_ref).
    device_area:
        W*L [m^2] of the matching-critical devices; smaller area =
        more mismatch = fewer clean bits.  None = ideal converter.
    seed:
        Mismatch draw seed.
    """

    def __init__(self, node: TechnologyNode, n_stages: int = 9,
                 v_ref: float = 1.0,
                 device_area: Optional[float] = None,
                 seed: Optional[int] = None):
        if n_stages < 2:
            raise ModelDomainError("n_stages must be >= 2")
        if v_ref <= 0:
            raise ModelDomainError("v_ref must be positive")
        self.node = node
        self.n_stages = n_stages
        self.v_ref = v_ref
        self.stages: List[PipelineStage] = []
        rng = resolve_rng(seed=seed)
        for _ in range(n_stages):
            if device_area is None:
                self.stages.append(PipelineStage())
                continue
            side = math.sqrt(device_area)
            sigma_vt = sigma_delta_vth(node, side, side)
            # V_T errors map to the stage errors through typical
            # circuit sensitivities: gain via the amplifier input
            # pair (normalized to ~0.5 V effective swing), thresholds
            # and DAC levels directly.
            self.stages.append(PipelineStage(
                gain_error=float(rng.normal(0.0, 2.0 * sigma_vt
                                            / 0.5)),
                dac_offset=float(rng.normal(0.0, sigma_vt)),
                threshold_offsets=(
                    float(rng.normal(0.0, 3.0 * sigma_vt)),
                    float(rng.normal(0.0, 3.0 * sigma_vt))),
            ))
        self._calibration: Optional[np.ndarray] = None

    @property
    def n_bits(self) -> int:
        """Nominal resolution [bits]."""
        return self.n_stages + 1

    def convert(self, v_in: float) -> int:
        """One conversion: signed output code."""
        residue = float(np.clip(v_in, -self.v_ref, self.v_ref))
        code = 0
        for stage in self.stages:
            decision, residue = stage.convert(residue, self.v_ref)
            code = 2 * code + decision
            residue = float(np.clip(residue, -self.v_ref, self.v_ref))
        # Final 1-bit flash on the last residue.
        code = 2 * code + (1 if residue > 0 else -1)
        return code

    def convert_array(self, voltages: np.ndarray) -> np.ndarray:
        """Vector conversion (loop; clarity over speed)."""
        return np.array([self.convert(float(v)) for v in voltages],
                        dtype=float)

    # --- calibration ------------------------------------------------------

    def calibrate(self, n_points: int = 4096) -> None:
        """Foreground calibration: learn the code-to-voltage map.

        Sweeps a known ramp and stores the mean input voltage per
        output code; subsequent :meth:`corrected_output` uses it.
        This is the digital correction that moves a converter from
        the mismatch limit to the thermal limit in Fig. 6.
        """
        ramp = np.linspace(-0.95 * self.v_ref, 0.95 * self.v_ref,
                           n_points)
        codes = self.convert_array(ramp)
        table: Dict[float, List[float]] = {}
        for v, c in zip(ramp, codes):
            table.setdefault(float(c), []).append(float(v))
        self._calibration = np.array(
            sorted((c, float(np.mean(vs))) for c, vs in table.items()))

    def corrected_output(self, codes: np.ndarray) -> np.ndarray:
        """Map raw codes through the calibration table [V]."""
        if self._calibration is None:
            raise CalibrationError(
                "no calibration table: call calibrate() before "
                "corrected_output()")
        cal_codes = self._calibration[:, 0]
        cal_volts = self._calibration[:, 1]
        return np.interp(codes, cal_codes, cal_volts)


@dataclass(frozen=True)
class AdcTestResult:
    """Dynamic test outcome (coherent sine + FFT)."""

    sndr_db: float
    enob: float
    n_samples: int


def sine_test(adc: PipelineAdc, n_samples: int = 4096,
              cycles: int = 67,
              amplitude_fraction: float = 0.9,
              calibrated: bool = False) -> AdcTestResult:
    """Coherent sine-wave test: SNDR and ENOB by FFT.

    Coherent sampling is enforced, not assumed: ``cycles`` must be a
    positive *integer* bin count, coprime to ``n_samples`` and below
    Nyquist, so the carrier lands in exactly one FFT bin.  A
    non-integer count would smear carrier power into the noise bins
    (spectral leakage biasing ENOB low), and a count at or past
    ``n_samples // 2`` aliases -- both now raise a typed error before
    any conversion runs.
    """
    if n_samples < 256:
        raise ModelDomainError("n_samples must be >= 256")
    cycles = check_count("cycles", cycles)
    if math.gcd(cycles, n_samples) != 1:
        raise ModelDomainError("cycles must be coprime to n_samples")
    if cycles >= n_samples // 2:
        raise ModelDomainError(
            f"cycles must stay below Nyquist (n_samples // 2 = "
            f"{n_samples // 2}), got {cycles}")
    t = np.arange(n_samples)
    v_in = (amplitude_fraction * adc.v_ref
            * np.sin(2.0 * math.pi * cycles * t / n_samples))
    codes = adc.convert_array(v_in)
    if calibrated:
        if adc._calibration is None:
            adc.calibrate()
        signal = adc.corrected_output(codes)
    else:
        signal = codes
    report = spectral_metrics(np.asarray(signal, dtype=float), cycles)
    return AdcTestResult(sndr_db=report.sndr_db,
                         enob=enob_from_snr(report.sndr_db),
                         n_samples=n_samples)


def enob_vs_device_area(node: TechnologyNode,
                        area_factors: Sequence[float] = (1, 4, 16, 64),
                        n_stages: int = 9,
                        base_area: Optional[float] = None,
                        seed: int = 0,
                        n_samples: int = 2048,
                        cycles: int = 67) -> List[Dict[str, float]]:
    """The mismatch-vs-resolution experiment.

    Small matching devices clip the effective bits well below the
    nominal resolution; quadrupling the area buys back ~1 bit per
    step -- the circuit-level face of eq. 4's mismatch term.  The
    calibrated column shows digital correction recovering the bits
    without the area.
    """
    if base_area is None:
        base_area = (4.0 * node.feature_size) ** 2
    rows = []
    for factor in area_factors:
        adc = PipelineAdc(node, n_stages=n_stages,
                          device_area=base_area * factor, seed=seed)
        raw = sine_test(adc, n_samples=n_samples, cycles=cycles)
        calibrated = sine_test(adc, n_samples=n_samples,
                               cycles=cycles, calibrated=True)
        rows.append({
            "area_factor": float(factor),
            "area_um2": base_area * factor * 1e12,
            "enob_raw": raw.enob,
            "enob_calibrated": calibrated.enob,
            "nominal_bits": float(adc.n_bits),
        })
    return rows
