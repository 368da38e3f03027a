"""Mixed-signal signal integrity: crosstalk, supply bounce, VCO spurs."""

from .vco import (
    Spectrum,
    SpurReport,
    VcoModel,
    spectrum_of,
    synthetic_clock_noise,
    vco_spur_experiment,
)
from .coupling import (
    SupplyRail,
    capacitive_crosstalk_ratio,
    crosstalk_trend,
    simultaneous_switching_noise,
    supply_bounce,
)
from .emissions import (
    CELLULAR_MASK,
    WLAN_MASK,
    ComplianceReport,
    EmissionMask,
    check_spurs,
    compliance_sweep,
    max_tolerable_noise,
    required_isolation_db,
)
from .phase_noise import (
    LeesonParameters,
    leeson_phase_noise,
    phase_noise_profile,
    rms_jitter,
    substrate_noise_psd_from_waveform,
    substrate_phase_noise,
    total_phase_noise,
)
from .metrics import (
    comparison_report,
    correlation,
    pointwise_nrmse,
    relative_p2p_error,
    relative_rms_error,
)

__all__ = [
    "Spectrum", "SpurReport", "VcoModel", "spectrum_of",
    "synthetic_clock_noise", "vco_spur_experiment",
    "SupplyRail", "capacitive_crosstalk_ratio", "crosstalk_trend",
    "simultaneous_switching_noise",
    "supply_bounce",
    "CELLULAR_MASK", "WLAN_MASK", "ComplianceReport", "EmissionMask",
    "check_spurs", "compliance_sweep", "max_tolerable_noise",
    "required_isolation_db",
    "LeesonParameters", "leeson_phase_noise", "phase_noise_profile",
    "rms_jitter", "substrate_noise_psd_from_waveform",
    "substrate_phase_noise", "total_phase_noise",
    "comparison_report", "correlation", "pointwise_nrmse",
    "relative_p2p_error", "relative_rms_error",
]
