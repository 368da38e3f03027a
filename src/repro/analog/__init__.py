"""Analog design analysis: eq. 4/5 trade-offs, ADCs, noise, circuits."""

from .tradeoff import (
    TradeoffPoint,
    accuracy_from_bits,
    limit_gap,
    minimum_power,
    mismatch_constant,
    thermal_noise_constant,
    tradeoff_plane,
)
from .adc import (
    SURVEY,
    AdcDesign,
    minimum_adc_power,
    resolution_speed_frontier,
    sample_synthetic_survey,
    survey_vs_limits,
)
from .supply_scaling import (
    analog_power_trend,
    digital_power_trend,
    headroom_trend,
    mismatch_limited_power,
    power_ratio,
)
from .noise import (
    enob_from_snr,
    noise_budget,
)
from .adc_behavioral import (
    AdcTestResult,
    PipelineAdc,
    PipelineStage,
    enob_vs_device_area,
    sine_test,
)
from .switched_capacitor import (
    ScAmplifier,
    design_sc_stage,
)
from .yield_analysis import (
    OtaYieldAnalyzer,
    YieldReport,
    offset_yield,
    yield_vs_area,
)
from .circuits import (
    DetectorFrontend,
    DetectorFrontendDesign,
    FrontendPerformance,
    OtaDesign,
    OtaPerformance,
    SingleStageOta,
)
from .metrics import (
    LinearityReport,
    SpectralReport,
    histogram_linearity,
    histogram_linearity_batch,
    spectral_metrics,
    spectral_metrics_batch,
    transfer_linearity,
    transfer_linearity_batch,
)
from .chain import (
    ChainDesign,
    ChainSignoff,
    ChainSpec,
    R2rDac,
    SarAdc,
    SignalChain,
    chain_signoff,
    chain_signoff_batch,
    chain_yield_vs_node,
)

__all__ = [
    "TradeoffPoint", "accuracy_from_bits", "limit_gap",
    "minimum_power", "mismatch_constant", "thermal_noise_constant",
    "tradeoff_plane",
    "SURVEY", "AdcDesign", "minimum_adc_power",
    "resolution_speed_frontier", "sample_synthetic_survey",
    "survey_vs_limits",
    "analog_power_trend", "digital_power_trend", "headroom_trend",
    "mismatch_limited_power", "power_ratio",
    "enob_from_snr", "noise_budget",
    "ScAmplifier", "design_sc_stage",
    "AdcTestResult", "PipelineAdc", "PipelineStage",
    "enob_vs_device_area", "sine_test",
    "OtaYieldAnalyzer", "YieldReport",
    "offset_yield", "yield_vs_area",
    "DetectorFrontend", "DetectorFrontendDesign", "FrontendPerformance",
    "OtaDesign", "OtaPerformance", "SingleStageOta",
    "LinearityReport", "SpectralReport",
    "histogram_linearity", "histogram_linearity_batch",
    "spectral_metrics", "spectral_metrics_batch",
    "transfer_linearity", "transfer_linearity_batch",
    "ChainDesign", "ChainSignoff", "ChainSpec",
    "R2rDac", "SarAdc", "SignalChain",
    "chain_signoff", "chain_signoff_batch", "chain_yield_vs_node",
]
