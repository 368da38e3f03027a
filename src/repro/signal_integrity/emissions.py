"""Out-of-band emission analysis (the paper's Fig. 9 consequence).

The paper's worry is regulatory: substrate-induced VCO spurs "may
cause conflicts with out-of-band emission requirements".  This module
closes that loop: emission masks, spur-versus-mask verdicts, and the
maximum tolerable substrate noise / required isolation for a given
mask -- the design-facing numbers a mixed-signal integrator needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .vco import SpurReport, VcoModel
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class EmissionMask:
    """A transmit emission mask: limits vs frequency offset.

    ``segments`` maps (offset_low, offset_high) [Hz] to the allowed
    level [dBc] in that band.  Offsets are absolute values.
    """

    name: str
    segments: Tuple[Tuple[float, float, float], ...]

    def limit_at(self, offset: float) -> float:
        """Allowed spur level [dBc] at ``offset`` [Hz] from carrier."""
        offset = abs(offset)
        for low, high, level in self.segments:
            if low <= offset < high:
                return level
        return -math.inf   # outside all bands: nothing allowed

    def margin(self, offset: float, spur_dbc: float) -> float:
        """Mask margin [dB]: positive = compliant."""
        return self.limit_at(offset) - spur_dbc


#: A WLAN-era 2.4 GHz transmit-mask-like profile (simplified).
WLAN_MASK = EmissionMask(
    name="wlan-2.4GHz-like",
    segments=(
        (0.0, 11e6, 0.0),          # in-band
        (11e6, 20e6, -30.0),
        (20e6, 30e6, -40.0),
        (30e6, 1e12, -50.0),
    ),
)

#: A stricter cellular-like mask.
CELLULAR_MASK = EmissionMask(
    name="cellular-like",
    segments=(
        (0.0, 2.5e6, 0.0),
        (2.5e6, 10e6, -45.0),
        (10e6, 1e12, -60.0),
    ),
)


@dataclass(frozen=True)
class ComplianceReport:
    """Spur-vs-mask verdict for one VCO/noise combination."""

    mask_name: str
    spur_offset: float
    spur_dbc: float
    limit_dbc: float

    @property
    def margin_db(self) -> float:
        """Positive = compliant."""
        return self.limit_dbc - self.spur_dbc

    @property
    def compliant(self) -> bool:
        """True when the spur fits under the mask."""
        return self.margin_db >= 0.0


def check_spurs(report: SpurReport,
                mask: EmissionMask = WLAN_MASK) -> ComplianceReport:
    """Check a Fig. 9 spur report against an emission mask."""
    worst = report.worst_spur_dbc
    return ComplianceReport(
        mask_name=mask.name,
        spur_offset=report.clock_frequency,
        spur_dbc=worst,
        limit_dbc=mask.limit_at(report.clock_frequency),
    )


def max_tolerable_noise(vco: VcoModel, offset: float,
                        mask: EmissionMask = WLAN_MASK,
                        margin_db: float = 6.0) -> float:
    """Max sinusoidal substrate amplitude [V] keeping the spur under
    the mask with ``margin_db`` to spare.

    Inverts the narrowband-FM spur formula: spur = 20*log10(K*A/(2f)).
    """
    if offset <= 0:
        raise ModelDomainError("offset must be positive")
    allowed = mask.limit_at(offset) - margin_db
    if math.isinf(allowed):
        return 0.0
    beta_over_2 = 10.0 ** (allowed / 20.0)
    return 2.0 * beta_over_2 * offset / vco.substrate_sensitivity


def required_isolation_db(actual_noise: float, vco: VcoModel,
                          offset: float,
                          mask: EmissionMask = WLAN_MASK,
                          margin_db: float = 6.0) -> float:
    """Extra substrate isolation [dB] needed for mask compliance.

    0 when the design already complies; the number a floorplanner
    must find through guard rings, separate grounds, or distance.
    """
    if actual_noise < 0:
        raise ModelDomainError("actual_noise must be non-negative")
    tolerable = max_tolerable_noise(vco, offset, mask, margin_db)
    if tolerable <= 0:
        return math.inf
    if actual_noise <= tolerable:
        return 0.0
    return 20.0 * math.log10(actual_noise / tolerable)


def compliance_sweep(vco: VcoModel, noise_amplitudes: Sequence[float],
                     offset: float,
                     mask: EmissionMask = WLAN_MASK
                     ) -> List[Dict[str, float]]:
    """Spur level and mask margin vs substrate noise amplitude."""
    rows = []
    for amplitude in noise_amplitudes:
        spur = vco.analytic_spur_level(amplitude, offset)
        rows.append({
            "noise_mV": amplitude * 1e3,
            "spur_dbc": spur,
            "limit_dbc": mask.limit_at(offset),
            "margin_db": mask.limit_at(offset) - spur,
        })
    return rows
