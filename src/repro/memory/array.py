"""SRAM array model: access time, leakage and yield at the macro level."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..technology.node import TechnologyNode
from ..devices.capacitance import device_capacitances, junction_capacitance
from ..interconnect.wire import WireGeometry, capacitance_per_length, \
    resistance_per_length
from .sram import SramCell, SramCellDesign, cell_failure_probability
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class ArraySpec:
    """Organization of one SRAM macro."""

    n_rows: int = 256
    n_cols: int = 128
    column_mux: int = 4

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1 or self.column_mux < 1:
            raise ModelDomainError("array dimensions must be positive")
        if self.n_cols % self.column_mux:
            raise ModelDomainError("n_cols must be divisible by column_mux")

    @property
    def capacity_bits(self) -> int:
        """Total storage [bits]."""
        return self.n_rows * self.n_cols


class SramArray:
    """An SRAM macro: cells plus bitline/wordline electrical models."""

    def __init__(self, node: TechnologyNode,
                 spec: ArraySpec = ArraySpec(),
                 design: SramCellDesign = SramCellDesign()):
        self.node = node
        self.spec = spec
        self.design = design
        self.cell = SramCell(node, design)

    @property
    def cell_height(self) -> float:
        """Cell pitch along the bitline [m]."""
        return math.sqrt(self.cell.area() / 2.0)

    @property
    def cell_width(self) -> float:
        """Cell pitch along the wordline [m]."""
        return 2.0 * self.cell_height

    def bitline_capacitance(self) -> float:
        """One bitline's capacitance [F]: wire + access-drain junctions."""
        geom = WireGeometry.for_node(self.node, layer=2)
        length = self.spec.n_rows * self.cell_height
        wire = capacitance_per_length(geom) * length
        junctions = self.spec.n_rows * junction_capacitance(
            self.node, self.design.access_ratio * self.node.feature_size)
        return wire + junctions

    def wordline_delay(self) -> float:
        """Wordline RC delay across the row [s]."""
        geom = WireGeometry.for_node(self.node, layer=1)
        length = self.spec.n_cols * self.cell_width
        r = resistance_per_length(geom)
        c = capacitance_per_length(geom)
        gate_load = self.spec.n_cols * device_capacitances(
            self.node,
            self.design.access_ratio * self.node.feature_size
        ).input_capacitance
        return 0.5 * r * length * (c * length + 2.0 * gate_load)

    def bitline_swing_time(self, swing: float = 0.1) -> float:
        """Time for the cell to pull ``swing`` volts of bitline [s].

        t = C_BL * dV / I_cell with the read current through the
        access + pull-down stack (conservatively the weaker access
        device's saturation current).
        """
        if swing <= 0:
            raise ModelDomainError("swing must be positive")
        read_current = self.cell.ax_l.ids(self.node.vdd, self.node.vdd / 2)
        if read_current <= 0:
            return float("inf")
        return self.bitline_capacitance() * swing / read_current

    def total_leakage(self) -> float:
        """Array standby leakage [W]."""
        return (self.spec.capacity_bits * self.cell.leakage_current()
                * self.node.vdd)

    def area(self) -> float:
        """Macro area [m^2] with 30 % periphery overhead."""
        return 1.3 * self.spec.capacity_bits * self.cell.area()

    def yield_estimate(self, n_samples: int = 200,
                       seed: Optional[int] = None) -> Dict[str, float]:
        """Array yield from the per-cell SNM failure probability.

        Y = (1 - p_cell)^bits: the million-fold multiplication that
        makes memory the canary of process variability.
        """
        stats = cell_failure_probability(
            self.node, self.design, n_samples=n_samples, seed=seed)
        p = stats["fail_probability"]
        bits = self.spec.capacity_bits
        log_yield = bits * math.log(max(1.0 - p, 1e-300))
        return {
            "cell_fail_probability": p,
            "cell_sigma_level": stats["sigma_level"],
            "array_yield": math.exp(log_yield),
            "capacity_bits": float(bits),
        }
