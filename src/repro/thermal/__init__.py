"""Thermal analysis: die thermal mesh and electrothermal feedback."""

from .mesh import K_SILICON, ThermalMesh, ThermalStack
from .electrothermal import (
    ElectrothermalBatch,
    ElectrothermalResult,
    electrothermal_rth_sweep,
    fixed_die_electrothermal_trend,
    runaway_rth_threshold,
    runaway_rth_thresholds,
    solve_operating_point,
    solve_operating_point_batch,
)

__all__ = [
    "K_SILICON", "ThermalMesh", "ThermalStack",
    "ElectrothermalBatch", "ElectrothermalResult",
    "electrothermal_rth_sweep",
    "fixed_die_electrothermal_trend",
    "runaway_rth_threshold", "runaway_rth_thresholds",
    "solve_operating_point", "solve_operating_point_batch",
]
