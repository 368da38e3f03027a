"""Substrate-type trade study: EPI vs high-ohmic bulk.

The paper's reference [11] (Donnay & Gielen's substrate-noise book)
devotes chapters to the two substrate families:

* **EPI-type** (thin high-ohmic epi on a heavily doped bulk): the
  bulk is a die-wide equipotential, so coupling is distance-
  *independent* beyond ~4 epi thicknesses, guard rings help little,
  and everything hinges on grounding the bulk well.
* **High-ohmic** (uniform lightly doped substrate): coupling decays
  with distance, guard rings intercept lateral surface currents and
  work well.

This module runs both through the same mesh and quantifies the
difference -- the floorplanning decision table for the paper's
section-4.3 problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .mesh import SubstrateMesh, SubstrateProcess

#: An EPI-type stack (the paper's Fig. 10 SoC process family).
EPI_PROCESS = SubstrateProcess(
    epi_resistivity=0.1,
    epi_thickness=5e-6,
    bulk_resistivity=1e-4,
    bulk_thickness=300e-6,
    backplane_grounded=True,
    backside_resistance=2.0,
)

#: A uniform high-ohmic substrate: the whole wafer conducts laterally
#: ("epi" = the full thickness) and there is no equipotential bulk --
#: the backside is left unconnected, as in cost-driven packages.
HIGH_OHMIC_PROCESS = SubstrateProcess(
    # The conduction happens in the top ~100 um of the wafer (set as
    # the lateral layer); there is no low-ohmic hub underneath, which
    # the model expresses as an effectively insulating "bulk" and a
    # floating backside.
    epi_resistivity=0.2,
    epi_thickness=100e-6,
    bulk_resistivity=1e3,
    bulk_thickness=200e-6,
    backplane_grounded=False,
)


@dataclass(frozen=True)
class IsolationStudy:
    """Coupling of one (injector, sensor, mitigation) combination."""

    substrate: str
    mitigation: str
    transfer_ohm: float

    def isolation_db_vs(self, baseline: "IsolationStudy") -> float:
        """Isolation gained relative to ``baseline`` [dB]."""
        if self.transfer_ohm <= 0:
            return math.inf
        return 20.0 * math.log10(baseline.transfer_ohm
                                 / self.transfer_ohm)


def _study(process: SubstrateProcess, label: str, die: float,
           injector_xy: Tuple[float, float],
           sensor_xy: Tuple[float, float],
           mitigation: str, nx: int = 24) -> IsolationStudy:
    mesh = SubstrateMesh(die, die, nx=nx, ny=nx, process=process)
    # Both substrates carry the standard-cell substrate ties: a
    # coarse grid of surface contacts to the ground rails.  On a
    # high-ohmic wafer these taps are the *only* ground and localize
    # the noise; on EPI the bulk shorts past them.
    n_taps = 5
    for i in range(n_taps):
        for j in range(n_taps):
            mesh.add_ground_contact(
                die * (i + 0.5) / n_taps, die * (j + 0.5) / n_taps,
                resistance=30.0)
    if mitigation == "guard-ring":
        sx, sy = sensor_xy
        ring = 0.08 * die
        mesh.add_guard_ring(sx - ring, sy - ring, sx + ring, sy + ring,
                            resistance_per_contact=1.0)
    injector = mesh.node_at(*injector_xy)
    sensor = mesh.node_at(*sensor_xy)
    transfer = float(mesh.transfer_impedance_to(sensor)[injector])
    return IsolationStudy(substrate=label, mitigation=mitigation,
                          transfer_ohm=transfer)


def compare_substrates(die: float = 3e-3,
                       injector_xy: Optional[Tuple[float, float]] = None,
                       near_xy: Optional[Tuple[float, float]] = None,
                       far_xy: Optional[Tuple[float, float]] = None,
                       nx: int = 24) -> List[Dict[str, float]]:
    """The EPI-vs-high-ohmic decision table.

    For each substrate: baseline coupling (near sensor), what distance
    buys (far sensor), and what a guard ring buys -- the three knobs a
    mixed-signal floorplanner actually has.
    """
    # Default positions sit at midpoints of the substrate-tap grid
    # (taps at odd tenths of the die edge), so every probe point is
    # equidistant from its surrounding taps and the comparison does
    # not alias against the tap pattern.
    injector_xy = injector_xy or (0.2 * die, 0.2 * die)
    near_xy = near_xy or (0.4 * die, 0.4 * die)
    far_xy = far_xy or (0.8 * die, 0.8 * die)
    rows = []
    for label, process in (("epi", EPI_PROCESS),
                           ("high-ohmic", HIGH_OHMIC_PROCESS)):
        base = _study(process, label, die, injector_xy, near_xy,
                      "none", nx)
        distance = _study(process, label, die, injector_xy, far_xy,
                          "none", nx)
        ring = _study(process, label, die, injector_xy, near_xy,
                      "guard-ring", nx)
        rows.append({
            "substrate": label,
            "baseline_ohm": base.transfer_ohm,
            "distance_gain_db": distance.isolation_db_vs(base),
            "guard_ring_gain_db": ring.isolation_db_vs(base),
        })
    return rows


def isolation_knob_ranking(die: float = 3e-3,
                           nx: int = 24,
                           effective_db: float = 6.0
                           ) -> Dict[str, str]:
    """Which mitigation to reach for on which substrate.

    A knob counts as *effective* when it buys at least
    ``effective_db`` of isolation.  The model reproduces the book's
    guidance: on a high-ohmic substrate the surface knobs (distance
    first -- it is free) are effective; on EPI neither surface knob
    clears the bar and the answer is grounding the bulk
    (``"backside-grounding"``).
    """
    rows = compare_substrates(die=die, nx=nx)
    ranking = {}
    for row in rows:
        if row["distance_gain_db"] >= effective_db:
            ranking[row["substrate"]] = "distance"
        elif row["guard_ring_gain_db"] >= effective_db:
            ranking[row["substrate"]] = "guard-ring"
        else:
            ranking[row["substrate"]] = "backside-grounding"
    return ranking
