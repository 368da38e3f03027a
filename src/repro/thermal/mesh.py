"""Finite-difference die thermal model.

Section 4.3 lists "thermal interactions" among the mixed-signal
coupling channels.  This mesh is the thermal twin of the substrate
solver: the die surface is tiled, each tile dissipates the power of
the blocks above it, heat spreads laterally through the silicon and
vertically through the package to the heatsink/ambient.

The electrical analogy makes the machinery identical to
:mod:`repro.substrate.mesh`: power = current, temperature rise =
voltage, thermal conductance = electrical conductance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from ..robust.validate import check_positive
from ..robust.errors import ModelDomainError

if TYPE_CHECKING:
    from scipy import sparse

#: Thermal conductivity of silicon [W/(m*K)].
K_SILICON = 130.0


@dataclass(frozen=True)
class ThermalStack:
    """Vertical heat path from junction to ambient.

    Parameters
    ----------
    die_thickness:
        Silicon thickness [m] (lateral spreading layer).
    rth_junction_to_ambient:
        Package + heatsink thermal resistance [K/W] for the whole
        die.
    ambient:
        Ambient temperature [K].
    """

    die_thickness: float = 300e-6
    rth_junction_to_ambient: float = 20.0
    ambient: float = 318.0     # 45 C in-system ambient

    def __post_init__(self) -> None:
        check_positive("die_thickness", self.die_thickness)
        check_positive("rth_junction_to_ambient",
                       self.rth_junction_to_ambient)
        check_positive("ambient", self.ambient)


class ThermalMesh:
    """2-D surface thermal mesh of a die.

    Lateral conduction through the silicon slab; each tile also
    connects to the ambient node through its share of the package
    resistance.  ``solve`` maps a power map to a temperature map.
    """

    def __init__(self, die_width: float, die_height: float,
                 nx: int = 20, ny: int = 20,
                 stack: ThermalStack = ThermalStack()):
        if die_width <= 0 or die_height <= 0:
            raise ModelDomainError("die dimensions must be positive")
        if nx < 2 or ny < 2:
            raise ModelDomainError("mesh must be at least 2x2")
        self.die_width = die_width
        self.die_height = die_height
        self.nx = nx
        self.ny = ny
        self.stack = stack
        self.dx = die_width / nx
        self.dy = die_height / ny
        self._solver = None

    @property
    def n_nodes(self) -> int:
        """Number of surface tiles."""
        return self.nx * self.ny

    def node_at(self, x: float, y: float) -> int:
        """Tile index containing position (x, y)."""
        i = min(max(int(x / self.dx), 0), self.nx - 1)
        j = min(max(int(y / self.dy), 0), self.ny - 1)
        return j * self.nx + i

    def _lateral_conductance(self, horizontal: bool) -> float:
        thickness = self.stack.die_thickness
        if horizontal:
            return K_SILICON * thickness * self.dy / self.dx
        return K_SILICON * thickness * self.dx / self.dy

    def _vertical_conductance(self) -> float:
        """Per-tile conductance to ambient [W/K]."""
        total = 1.0 / self.stack.rth_junction_to_ambient
        return total / self.n_nodes

    def conductance_matrix(self) -> sparse.csc_matrix:
        """Assemble the thermal conductance matrix."""
        n = self.n_nodes
        g_h = self._lateral_conductance(True)
        g_v = self._lateral_conductance(False)
        g_down = self._vertical_conductance()
        # Neighbour edge list by array slicing (same construction as
        # the substrate mesh); the sparse constructor sums duplicate
        # (row, col) entries, realising the stamps.
        index = np.arange(n).reshape(self.ny, self.nx)
        edge_a = np.concatenate([index[:, :-1].ravel(),
                                 index[:-1, :].ravel()])
        edge_b = np.concatenate([index[:, 1:].ravel(),
                                 index[1:, :].ravel()])
        edge_g = np.concatenate([
            np.full(self.ny * (self.nx - 1), g_h),
            np.full((self.ny - 1) * self.nx, g_v)])
        every = np.arange(n)
        rows = np.concatenate([edge_a, edge_b, edge_a, edge_b, every])
        cols = np.concatenate([edge_a, edge_b, edge_b, edge_a, every])
        vals = np.concatenate([edge_g, edge_g, -edge_g, -edge_g,
                               np.full(n, g_down)])
        from scipy import sparse

        return sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))

    def solve(self, power_map: np.ndarray) -> np.ndarray:
        """Temperature [K] per tile for a per-tile power map [W]."""
        power_map = np.asarray(power_map, dtype=float)
        if power_map.shape != (self.n_nodes,):
            raise ModelDomainError(
                f"power_map must have shape ({self.n_nodes},)")
        if np.any(power_map < 0):
            raise ModelDomainError("power_map entries must be non-negative")
        if self._solver is None:
            from scipy.sparse.linalg import factorized

            self._solver = factorized(self.conductance_matrix())
        rise = self._solver(power_map)
        return self.stack.ambient + rise

    def block_power_map(self, blocks: Sequence[Tuple[float, float,
                                                     float, float,
                                                     float]]
                        ) -> np.ndarray:
        """Power map from (x1, y1, x2, y2, watts) block tuples."""
        power = np.zeros(self.n_nodes)
        x_centres = (np.arange(self.nx) + 0.5) * self.dx
        y_centres = (np.arange(self.ny) + 0.5) * self.dy
        for x1, y1, x2, y2, watts in blocks:
            if watts < 0:
                raise ModelDomainError("block power must be non-negative")
            inside = np.outer((y1 <= y_centres) & (y_centres < y2),
                              (x1 <= x_centres) & (x_centres < x2))
            count = np.count_nonzero(inside)
            if count:
                power += (watts / count) * inside.ravel()
        return power

    def hotspot(self, power_map: np.ndarray) -> Tuple[int, float]:
        """(tile index, temperature [K]) of the hottest tile."""
        temperatures = self.solve(power_map)
        index = int(np.argmax(temperatures))
        return index, float(temperatures[index])
