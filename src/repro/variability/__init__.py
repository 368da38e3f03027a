"""Process variability: dopant statistics, LER, Pelgrom matching, MC."""

from .dopants import (
    DopantPlacementModel,
    PlacedDopants,
    channel_dopant_count,
    dopant_count_sigma,
    dopant_count_vs_length,
    vth_sigma_from_rdf,
)
from .ler import (
    LerParameters,
    current_spread_from_ler,
    effective_length_profile,
    generate_edge,
    relative_ler_trend,
)
from .pelgrom import (
    offset_sigma_diff_pair,
    sigma_capacitor_mismatch,
    sigma_delta_beta,
    sigma_delta_vth,
    sigma_resistor_mismatch,
)
from .spatial import (
    SpatialSpec,
    VtMap,
    common_centroid_benefit,
    matching_vs_distance,
    sample_vt_map,
)
from .statistical import (
    DieBatch,
    MonteCarloSampler,
    SampledDevice,
    SampledDie,
    VariationSpec,
    YieldResult,
    monte_carlo_yield,
    monte_carlo_yield_batch,
    relative_variability_trend,
)

__all__ = [
    "DopantPlacementModel", "PlacedDopants", "channel_dopant_count",
    "dopant_count_sigma", "dopant_count_vs_length", "vth_sigma_from_rdf",
    "LerParameters", "current_spread_from_ler", "effective_length_profile",
    "generate_edge", "relative_ler_trend",
    "offset_sigma_diff_pair",
    "sigma_capacitor_mismatch", "sigma_delta_beta", "sigma_delta_vth",
    "sigma_resistor_mismatch",
    "SpatialSpec", "VtMap", "common_centroid_benefit",
    "matching_vs_distance", "sample_vt_map",
    "DieBatch", "MonteCarloSampler", "SampledDevice", "SampledDie",
    "VariationSpec", "YieldResult", "monte_carlo_yield",
    "monte_carlo_yield_batch", "relative_variability_trend",
]
