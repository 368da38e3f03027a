"""Wire electrical models: the paper's eq. 3 and its ingredients.

A wire of length L with resistance r and capacitance c per unit length
has the first-order (distributed RC) delay

    t_wire = r*c*L^2 / 2  =  rho*kappa * (L / lambda)^2        (eq. 3)

with rho, kappa the per-unit-*area* resistance and capacitance and
lambda the technology wire pitch.  The second form exposes the paper's
scaling argument: delay depends only on the length *in pitches*, so
wires that scale with the technology keep constant delay while gates
get faster -- and fixed-length global wires get relatively slower still.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.constants import EPSILON_0
from ..robust.errors import ModelDomainError
from ..robust.validate import check_positive, validated
from ..technology.node import TechnologyNode


@dataclass(frozen=True)
class WireGeometry:
    """Cross-sectional geometry of one routing layer.

    Parameters
    ----------
    pitch:
        Wire pitch (width + spacing) [m].
    width_fraction:
        Wire width as a fraction of the pitch (0.5 = equal line/space).
    aspect_ratio:
        Thickness / width.
    dielectric_k:
        Relative permittivity of the surrounding dielectric.
    resistivity:
        Conductor resistivity [ohm*m].
    """

    pitch: float
    width_fraction: float = 0.5
    aspect_ratio: float = 2.0
    dielectric_k: float = 3.9
    resistivity: float = 1.68e-8

    def __post_init__(self) -> None:
        check_positive("pitch", self.pitch)
        if not 0 < self.width_fraction < 1:
            raise ModelDomainError(
                f"width_fraction must be in (0, 1), "
                f"got {self.width_fraction!r}")
        check_positive("aspect_ratio", self.aspect_ratio)
        check_positive("dielectric_k", self.dielectric_k)
        check_positive("resistivity", self.resistivity)

    @property
    def width(self) -> float:
        """Wire width [m]."""
        return self.width_fraction * self.pitch

    @property
    def spacing(self) -> float:
        """Spacing to the neighbouring wire [m]."""
        return self.pitch - self.width

    @property
    def thickness(self) -> float:
        """Wire (metal) thickness [m]."""
        return self.aspect_ratio * self.width

    @classmethod
    def for_node(cls, node: TechnologyNode, layer: int = 1,
                 aspect_ratio: float = None) -> "WireGeometry":
        """Geometry of metal layer ``layer`` in ``node``.

        Upper layers are progressively wider (pitch doubles every two
        layers), the usual reverse-scaled stack.  The default aspect
        ratio follows the historical trend: wires got taller relative
        to their width as pitches shrank (to hold resistance down),
        from ~1.2 at 350 nm to ~2.2 at 32 nm -- which is what makes
        sidewall coupling grow with scaling (section 2.3).
        """
        if layer < 1 or layer > node.metal_layers:
            raise ModelDomainError(
                f"layer must be in 1..{node.metal_layers}, got {layer}")
        if aspect_ratio is None:
            feature_nm = node.feature_size * 1e9
            aspect_ratio = min(max(2.3 - 1.1 * feature_nm / 350.0,
                                   1.2), 2.3)
        pitch = node.wire_pitch * 2.0 ** ((layer - 1) // 2)
        return cls(pitch=pitch, aspect_ratio=aspect_ratio,
                   dielectric_k=node.dielectric_k,
                   resistivity=node.conductor_resistivity)


def resistance_per_length(geom: WireGeometry) -> float:
    """Wire resistance per unit length r [ohm/m]."""
    return geom.resistivity / (geom.width * geom.thickness)


@validated(_result_finite=True, miller_factor="positive")
def capacitance_per_length(geom: WireGeometry,
                           miller_factor: float = 1.0) -> float:
    """Wire capacitance per unit length c [F/m].

    Parallel-plate estimate: sidewall coupling to the two neighbours
    (dominant at tight pitch) plus top+bottom ground planes at one
    pitch distance.  ``miller_factor`` > 1 models simultaneous
    opposite switching of neighbours (crosstalk-degraded delay).
    """
    eps = geom.dielectric_k * EPSILON_0
    sidewall = 2.0 * eps * geom.thickness / geom.spacing * miller_factor
    plates = 2.0 * eps * geom.width / geom.pitch
    fringe = eps  # constant fringe term ~ eps per unit length
    return sidewall + plates + fringe


@validated(_result_finite=True, length="non-negative",
           miller_factor="positive")
def wire_delay(geom: WireGeometry, length: float,
               miller_factor: float = 1.0) -> float:
    """Eq. 3: distributed RC delay t = r*c*L^2/2 [s]."""
    r = resistance_per_length(geom)
    c = capacitance_per_length(geom, miller_factor)
    return 0.5 * r * c * length ** 2


@validated(_result_finite=True, length="non-negative",
           vdd="non-negative", activity="non-negative")
def wire_energy(geom: WireGeometry, length: float, vdd: float,
                activity: float = 1.0) -> float:
    """Dynamic energy per (activity-weighted) transition C*V^2 [J].

    Section 2.3: the interconnect-capacitance share of power grows
    with scaling just as its delay share does.
    """
    c = capacitance_per_length(geom)
    return activity * c * length * vdd ** 2
