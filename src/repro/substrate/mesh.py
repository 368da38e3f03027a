"""Finite-difference substrate model.

"For the noise propagation through the substrate, typically finite
difference methods or boundary element methods are used to solve for
the substrate potential distribution due to injected noise sources"
(section 4.3).  This module discretizes an EPI-type substrate (the
process of the paper's Fig. 10 SoC) as a resistive mesh:

* a thin high-resistivity epi layer carries lateral currents between
  surface nodes;
* the low-resistivity bulk underneath acts as a single *common node*
  every surface node connects to vertically -- the dominant coupling
  path of EPI wafers (noise goes down into the bulk under the digital
  block and comes back up under the analog block);
* the bulk reaches ground through a finite backside (die-attach)
  impedance, which is what makes the coupling non-zero;
* contacts (injectors, sensors, guard rings) attach at surface nodes.

The mesh is resistive (quasi-static): the substrate RC corner sits in
the tens of GHz, far above digital switching spectra, which is the
standard SWAN-era approximation.  Transfer impedances to a sensor are
obtained with *one* sparse solve via reciprocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np
from ..robust.errors import ModelDomainError, ModelIndexError
from ..robust.validate import check_finite, check_positive

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class SubstrateProcess:
    """Electrical description of the substrate stack.

    Parameters
    ----------
    epi_resistivity:
        Epi-layer resistivity [ohm*m] (high-resistivity: ~0.1).
    epi_thickness:
        Epi-layer thickness [m].
    bulk_resistivity:
        Heavily doped bulk resistivity [ohm*m] (~1e-4: EPI-type).
    bulk_thickness:
        Bulk thickness to the backside contact [m].
    backplane_grounded:
        Whether the die backside is attached to ground (a paddle).
    backside_resistance:
        Die-attach + package impedance from the bulk to true ground
        [ohm]; only meaningful when the backplane is grounded.
    """

    epi_resistivity: float = 0.1
    epi_thickness: float = 5e-6
    bulk_resistivity: float = 1e-4
    bulk_thickness: float = 300e-6
    backplane_grounded: bool = True
    backside_resistance: float = 2.0

    def __post_init__(self) -> None:
        check_positive("epi_resistivity", self.epi_resistivity)
        check_positive("epi_thickness", self.epi_thickness)
        check_positive("bulk_resistivity", self.bulk_resistivity)
        check_positive("bulk_thickness", self.bulk_thickness)
        check_positive("backside_resistance", self.backside_resistance)


class SubstrateMesh:
    """Uniform 2-D surface mesh of a die's substrate.

    Node (i, j) sits at the centre of surface tile (i, j); lateral
    sheet conductances connect 4-neighbours, and each node has a
    vertical conductance to the shared *bulk node* (through epi +
    bulk), which in turn reaches ground through the backside
    impedance.  Guard-ring/substrate-contact nodes add a strong local
    conductance to ground (the board ground of their supply rail).
    """

    def __init__(self, die_width: float, die_height: float,
                 nx: int = 40, ny: int = 40,
                 process: SubstrateProcess = SubstrateProcess()):
        check_positive("die_width", die_width)
        check_positive("die_height", die_height)
        if nx < 2 or ny < 2:
            raise ModelDomainError("mesh must be at least 2x2")
        self.die_width = die_width
        self.die_height = die_height
        self.nx = nx
        self.ny = ny
        self.process = process
        self.dx = die_width / nx
        self.dy = die_height / ny
        self._extra_ground: Dict[int, float] = {}
        self._solver = None

    # --- indexing -----------------------------------------------------------

    def node_index(self, i: int, j: int) -> int:
        """Flat index of mesh node (i, j)."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ModelIndexError(f"node ({i}, {j}) outside mesh "
                             f"{self.nx}x{self.ny}")
        return j * self.nx + i

    def node_at(self, x: float, y: float) -> int:
        """Flat index of the node containing chip position (x, y)."""
        i = min(max(int(x / self.dx), 0), self.nx - 1)
        j = min(max(int(y / self.dy), 0), self.ny - 1)
        return self.node_index(i, j)

    def nodes_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Array twin of :meth:`node_at`: the node of each (x, y) pair."""
        i = np.clip((np.asarray(x) / self.dx).astype(np.int64),
                    0, self.nx - 1)
        j = np.clip((np.asarray(y) / self.dy).astype(np.int64),
                    0, self.ny - 1)
        return j * self.nx + i

    @property
    def n_nodes(self) -> int:
        """Surface mesh nodes (the bulk node is index ``n_nodes``)."""
        return self.nx * self.ny

    @property
    def bulk_node(self) -> int:
        """Index of the shared bulk node."""
        return self.nx * self.ny

    # --- conductances ----------------------------------------------------------

    def _lateral_conductance(self, horizontal: bool) -> float:
        """Epi sheet conductance between neighbouring nodes [S]."""
        p = self.process
        sheet_resistance = p.epi_resistivity / p.epi_thickness  # ohm/sq
        if horizontal:
            squares = self.dx / self.dy
        else:
            squares = self.dy / self.dx
        return 1.0 / (sheet_resistance * squares)

    def _vertical_conductance(self) -> float:
        """Per-node conductance from the surface to the bulk node [S]."""
        p = self.process
        area = self.dx * self.dy
        resistance = (p.epi_resistivity * p.epi_thickness
                      + p.bulk_resistivity * p.bulk_thickness) / area
        return 1.0 / resistance

    def _backside_conductance(self) -> float:
        """Bulk-node-to-ground conductance [S]."""
        p = self.process
        if not p.backplane_grounded:
            return 1e-9
        return 1.0 / p.backside_resistance

    def add_ground_contact(self, x: float, y: float,
                           resistance: float = 10.0) -> int:
        """Attach a substrate contact / guard ring node to ground.

        Returns the node index.  Invalidate any cached factorization.
        """
        if resistance <= 0:
            raise ModelDomainError("contact resistance must be positive")
        node = self.node_at(x, y)
        self._extra_ground[node] = (self._extra_ground.get(node, 0.0)
                                    + 1.0 / resistance)
        self._solver = None
        return node

    def add_guard_ring(self, x1: float, y1: float, x2: float, y2: float,
                       resistance_per_contact: float = 10.0) -> List[int]:
        """Ground every boundary node of the box [(x1,y1),(x2,y2)]."""
        nodes = []
        steps = max(int((x2 - x1) / self.dx), 1)
        for k in range(steps + 1):
            x = x1 + (x2 - x1) * k / steps
            nodes.append(self.add_ground_contact(
                x, y1, resistance_per_contact))
            nodes.append(self.add_ground_contact(
                x, y2, resistance_per_contact))
        steps = max(int((y2 - y1) / self.dy), 1)
        for k in range(steps + 1):
            y = y1 + (y2 - y1) * k / steps
            nodes.append(self.add_ground_contact(
                x1, y, resistance_per_contact))
            nodes.append(self.add_ground_contact(
                x2, y, resistance_per_contact))
        return sorted(set(nodes))

    # --- system assembly and solving ----------------------------------------------

    def conductance_matrix(self) -> sparse.csc_matrix:
        """Assemble the nodal conductance matrix G (SPD).

        System size is ``n_nodes + 1``: surface nodes plus the shared
        bulk node.
        """
        n = self.n_nodes
        size = n + 1
        bulk = self.bulk_node
        g_h = self._lateral_conductance(horizontal=True)
        g_v_lat = self._lateral_conductance(horizontal=False)
        g_down = self._vertical_conductance()
        # Edge list built by array slicing: horizontal neighbours,
        # vertical neighbours, and every surface node down to the
        # shared bulk node.  Duplicate (row, col) entries are summed
        # by the sparse constructor, which realises the stamps.
        index = np.arange(n).reshape(self.ny, self.nx)
        edge_a = np.concatenate([index[:, :-1].ravel(),
                                 index[:-1, :].ravel(),
                                 index.ravel()])
        edge_b = np.concatenate([index[:, 1:].ravel(),
                                 index[1:, :].ravel(),
                                 np.full(n, bulk)])
        edge_g = np.concatenate([
            np.full(self.ny * (self.nx - 1), g_h),
            np.full((self.ny - 1) * self.nx, g_v_lat),
            np.full(n, g_down)])
        # Grounded terms go on the diagonal only.
        diag = np.zeros(size)
        diag[bulk] += self._backside_conductance()
        for node, g in self._extra_ground.items():
            diag[node] += g
        every = np.arange(size)
        rows = np.concatenate([edge_a, edge_b, edge_a, edge_b, every])
        cols = np.concatenate([edge_a, edge_b, edge_b, edge_a, every])
        vals = np.concatenate([edge_g, edge_g, -edge_g, -edge_g, diag])
        from scipy import sparse

        matrix = sparse.csc_matrix(
            (vals, (rows, cols)), shape=(size, size))
        return matrix

    def solve(self, currents: np.ndarray) -> np.ndarray:
        """Node potentials [V] for injected current vector(s) [A].

        ``currents`` may be 1-D -- length ``n_nodes`` (surface only)
        or ``n_nodes + 1`` (including the bulk node) -- or a 2-D
        ``(n_nodes, k)`` / ``(n_nodes + 1, k)`` matrix of ``k``
        independent right-hand sides (e.g. one per time bin of a
        streamed event trace).  All columns reuse the one cached LU
        factorization.  The returned array matches the input's
        dimensionality and always includes the bulk node as its last
        row.
        """
        currents = np.asarray(currents, dtype=float)
        if currents.ndim not in (1, 2):
            raise ModelDomainError(
                f"currents must be 1-D or 2-D, got shape "
                f"{currents.shape}")
        check_finite("currents", currents)
        if currents.shape[0] == self.n_nodes:
            pad = np.zeros((1,) + currents.shape[1:])
            currents = np.concatenate([currents, pad], axis=0)
        if currents.shape[0] != self.n_nodes + 1:
            raise ModelDomainError(
                f"currents must have {self.n_nodes} or "
                f"{self.n_nodes + 1} rows, got shape {currents.shape}")
        if self._solver is None:
            from scipy.sparse.linalg import splu

            self._solver = splu(self.conductance_matrix())
        return self._solver.solve(currents)

    def transfer_impedance_to(self, sensor: int) -> np.ndarray:
        """Transfer impedance Z[node -> sensor] for every node [ohm].

        By reciprocity of the resistive network, injecting 1 A at the
        *sensor* and reading all node voltages gives the impedance
        from every node to the sensor in a single solve -- the trick
        that makes SWAN-scale analysis cheap.
        """
        rhs = np.zeros(self.n_nodes + 1)
        rhs[sensor] = 1.0
        return self.solve(rhs)
