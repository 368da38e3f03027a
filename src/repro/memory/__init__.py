"""Embedded memory models: 6T SRAM cell and array analysis."""

from .sram import (
    SramCell,
    SramCellDesign,
    cell_failure_probability,
    snm_trend,
    snm_under_mismatch,
)
from .array import ArraySpec, SramArray
from .sense_amp import (
    SenseAmp,
    read_access_with_offset,
)
from .lowpower import (
    RetentionResult,
    body_bias_retention,
    drowsy_mode,
    minimum_retention_voltage,
    power_gate_array,
    retention_techniques_trend,
)

__all__ = [
    "SramCell", "SramCellDesign", "cell_failure_probability",
    "snm_trend", "snm_under_mismatch",
    "ArraySpec", "SramArray",
    "SenseAmp", "read_access_with_offset",
    "RetentionResult", "body_bias_retention", "drowsy_mode",
    "minimum_retention_voltage", "power_gate_array",
    "retention_techniques_trend",
]
