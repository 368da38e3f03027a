"""Sense-amplifier offset: where SRAM speed meets variability.

The read path's other mismatch victim: a latch-type sense amplifier
fires correctly only when the bitline differential exceeds its random
offset.  As sigma_VT grows with scaling, the required bitline swing
(k-sigma of the offset) grows, the cell must discharge the bitline
longer, and read access time inherits the variability tax -- the
memory-speed face of section 2.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..technology.node import TechnologyNode
from ..variability.pelgrom import sigma_delta_vth
from .array import ArraySpec, SramArray
from .sram import SramCellDesign
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class SenseAmp:
    """A latch-type sense amplifier with Pelgrom-sized offset.

    Parameters
    ----------
    node:
        Technology node.
    input_width / input_length:
        Input-pair device dimensions [m]; the offset knob.
    """

    node: TechnologyNode
    input_width: float
    input_length: float

    def __post_init__(self) -> None:
        if self.input_width < self.node.feature_size \
                or self.input_length < self.node.feature_size:
            raise ModelDomainError("input pair below feature size")

    @property
    def offset_sigma(self) -> float:
        """Input-referred offset sigma [V]."""
        return sigma_delta_vth(self.node, self.input_width,
                               self.input_length)

    def required_swing(self, sigma_level: float = 5.0) -> float:
        """Bitline differential [V] for a ``sigma_level`` sense yield.

        Memory arrays have millions of sense events: 5-6 sigma is the
        working confidence level.
        """
        if sigma_level <= 0:
            raise ModelDomainError("sigma_level must be positive")
        return sigma_level * self.offset_sigma

    @classmethod
    def sized_for(cls, node: TechnologyNode,
                  area_factor: float = 8.0) -> "SenseAmp":
        """A typical sense amp: input pair ``area_factor`` x minimum."""
        scale = math.sqrt(area_factor)
        return cls(node=node,
                   input_width=2.0 * node.feature_size * scale,
                   input_length=node.feature_size * scale)


def read_access_with_offset(node: TechnologyNode,
                            spec: ArraySpec = ArraySpec(),
                            design: SramCellDesign = SramCellDesign(),
                            sense: Optional[SenseAmp] = None,
                            sigma_level: float = 5.0
                            ) -> Dict[str, float]:
    """Read access time with the offset-driven swing requirement.

    The bitline must develop ``sigma_level`` sigmas of sense-amp
    offset instead of a fixed 100 mV; everything else follows the
    array model.
    """
    array = SramArray(node, spec, design)
    sense = sense or SenseAmp.sized_for(node)
    swing = sense.required_swing(sigma_level)
    swing_time = array.bitline_swing_time(swing=max(swing, 1e-3))
    access = (array.wordline_delay() + swing_time
              + 0.2 * swing_time)
    return {
        "offset_sigma_mV": sense.offset_sigma * 1e3,
        "required_swing_mV": swing * 1e3,
        "swing_time_ns": swing_time * 1e9,
        "access_time_ns": access * 1e9,
    }
