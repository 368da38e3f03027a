"""Roadmap projection: extrapolate technology nodes beyond the library.

The paper reasons about "65 nm and beyond" ([1], the ITRS 2003 roadmap).
This module fits the scaling trends of the built-in node library and
projects hypothetical future nodes, so that every analysis in the
library can be asked "and what happens at 22 nm?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..robust.errors import ModelDomainError

if TYPE_CHECKING:
    from ..technology.node import TechnologyNode


@dataclass(frozen=True)
class TrendFit:
    """Power-law fit of one node parameter against feature size.

    ``value = coefficient * (feature_size / 1 m) ** exponent``, with an
    optional floor below which the parameter saturates (e.g. t_ox
    cannot scale below ~1 nm, V_T stops near 0.1 V -- the saturation
    effects the paper's argument hinges on).
    """

    parameter: str
    coefficient: float
    exponent: float
    floor: float = 0.0

    def evaluate(self, feature_size: float) -> float:
        """Evaluate the trend at ``feature_size`` [m]."""
        if feature_size <= 0:
            raise ModelDomainError("feature_size must be positive")
        value = self.coefficient * feature_size ** self.exponent
        return max(value, self.floor)


# Physical floors the roadmap cannot scale through.
_FLOORS = {
    "vdd": 0.5,          # V: subthreshold operation limit for logic
    "vth": 0.10,         # V: leakage explosion limit
    "tox": 0.8e-9,       # m: direct-tunnelling limit
    "wire_pitch": 20e-9, # m: patterning limit
    "avt": 0.5e-3 * 1e-6,
    "body_factor": 0.02,
}

_FITTED_PARAMETERS = (
    "vdd", "vth", "tox", "wire_pitch", "channel_doping", "subthreshold_n",
    "dibl", "body_factor", "avt", "alpha_power", "i0_per_width",
    "dielectric_k",
)


def fit_trend(parameter: str,
              nodes: Optional[Sequence[TechnologyNode]] = None) -> TrendFit:
    """Fit ``parameter`` vs feature size as a power law over ``nodes``.

    Uses least squares in log-log space.  Defaults to the built-in
    library.
    """
    from ..technology.library import all_nodes
    if nodes is None:
        nodes = all_nodes()
    if len(nodes) < 2:
        raise ModelDomainError("need at least two nodes to fit a trend")
    sizes = np.array([node.feature_size for node in nodes])
    values = np.array([getattr(node, parameter) for node in nodes])
    if np.any(values <= 0):
        raise ModelDomainError(f"parameter {parameter} must be positive to fit")
    exponent, log_coeff = np.polyfit(np.log(sizes), np.log(values), 1)
    return TrendFit(
        parameter=parameter,
        coefficient=math.exp(log_coeff),
        exponent=float(exponent),
        floor=_FLOORS.get(parameter, 0.0),
    )


class Roadmap:
    """Projects :class:`TechnologyNode` parameters to arbitrary sizes.

    Examples
    --------
    >>> roadmap = Roadmap()
    >>> node22 = roadmap.project(22e-9)
    >>> node22.vdd < 1.0
    True
    """

    def __init__(self, nodes: Optional[Sequence[TechnologyNode]] = None):
        from ..technology.library import all_nodes
        self._nodes = list(nodes) if nodes is not None else all_nodes()
        self._fits: Dict[str, TrendFit] = {
            parameter: fit_trend(parameter, self._nodes)
            for parameter in _FITTED_PARAMETERS
        }

    def project(self, feature_size: float,
                name: Optional[str] = None) -> TechnologyNode:
        """Return a projected node at ``feature_size`` [m]."""
        from ..technology.node import TechnologyNode
        if feature_size <= 0:
            raise ModelDomainError("feature_size must be positive")
        params = {parameter: fit.evaluate(feature_size)
                  for parameter, fit in self._fits.items()}
        # Keep VT a sane fraction of VDD even deep in extrapolation.
        params["vth"] = min(params["vth"], 0.6 * params["vdd"])
        metal_layers = max(node.metal_layers for node in self._nodes)
        return TechnologyNode(
            name=name or f"{feature_size*1e9:.0f}nm(projected)",
            feature_size=feature_size,
            metal_layers=metal_layers,
            **params,
        )

    def project_series(self, feature_sizes: Sequence[float]
                       ) -> List[TechnologyNode]:
        """Project a whole series of nodes."""
        return [self.project(size) for size in feature_sizes]
