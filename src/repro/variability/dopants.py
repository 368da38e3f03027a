"""Random dopant fluctuation (RDF): Figs. 2 and 3 of the paper.

The channel of a nanometre MOSFET contains only a handful of dopant
atoms.  Their *number* fluctuates with sigma = sqrt(N) (Poisson), which
directly perturbs V_T (Fig. 2); their random *placement* -- in
particular of the source/drain dopants -- perturbs the effective
channel length (Fig. 3).  Both effects grow as the dopant count falls
with L^2 scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.constants import (ELECTRON_CHARGE, EPSILON_0, EPSILON_SI)
from ..robust.validate import check_count, validated
from ..technology.node import TechnologyNode
from ..robust.rng import resolve_rng


@validated(_result_finite=True, width="positive", length="positive")
def channel_dopant_count(node: TechnologyNode,
                         width: Optional[float] = None,
                         length: Optional[float] = None) -> float:
    """Mean number of dopant atoms in the channel depletion region.

    N = N_A * W * L * x_dep with x_dep the maximum depletion depth.
    This is the quantity Fig. 2 plots against channel length: it falls
    roughly with L^2 (W tracks L, x_dep shrinks slowly) and drops below
    ~100 atoms in the deep-nanometre regime.
    """
    length = length if length is not None else node.feature_size
    width = width if width is not None else 2.0 * length
    return node.channel_doping * width * length * node.depletion_depth


@validated(_result_finite=True, mean_count="non-negative")
def dopant_count_sigma(mean_count: float) -> float:
    """Poisson statistics: sigma_N = sqrt(N) (section 2.4)."""
    return math.sqrt(mean_count)


@validated(_result_finite=True, width="positive", length="positive")
def vth_sigma_from_rdf(node: TechnologyNode,
                       width: Optional[float] = None,
                       length: Optional[float] = None) -> float:
    """Analytic sigma_VT [V] from random dopant fluctuation.

    Uses the standard depletion-charge argument: V_T depends on the
    depletion charge Q_dep = q*N/(W*L); a sqrt(N) fluctuation of N
    gives sigma_VT = (q / (C_ox*W*L)) * sqrt(N) * (x_dep sharing
    factor ~0.5 for the half of the depletion charge that images on
    the gate).
    """
    length = length if length is not None else node.feature_size
    width = width if width is not None else 2.0 * length
    n_mean = channel_dopant_count(node, width, length)
    cox_total = node.cox * width * length
    return 0.5 * ELECTRON_CHARGE * math.sqrt(n_mean) / cox_total


def dopant_count_vs_length(node: TechnologyNode,
                           lengths: Sequence[float],
                           aspect_ratio: float = 2.0
                           ) -> List[Dict[str, float]]:
    """Tabulate Fig. 2: dopant count (and its sigma) vs channel length.

    ``aspect_ratio`` sets W = aspect_ratio * L so both dimensions scale
    together, as in the figure.
    """
    rows = []
    for length in lengths:
        mean_count = channel_dopant_count(
            node, width=aspect_ratio * length, length=length)
        rows.append({
            "length_nm": length * 1e9,
            "dopant_count": mean_count,
            "sigma_count": dopant_count_sigma(mean_count),
            "relative_sigma": (dopant_count_sigma(mean_count) / mean_count
                               if mean_count > 0 else float("inf")),
        })
    return rows


@dataclass(frozen=True)
class PlacedDopants:
    """Monte Carlo sample of discrete dopant positions (Fig. 3).

    Positions are in metres within the channel box
    [0, length] x [0, width]; ``source_edge``/``drain_edge`` are the
    per-device encroachment of S/D dopants into the channel.
    """

    x: np.ndarray           # along the channel (source -> drain)
    y: np.ndarray           # along the width
    length: float
    width: float
    source_encroachment: float
    drain_encroachment: float

    @property
    def count(self) -> int:
        """Number of dopants actually placed."""
        return int(self.x.size)


class DopantPlacementModel:
    """Monte Carlo model of discrete dopant placement (Fig. 3).

    Channel dopants are thrown uniformly (Poisson count); source/drain
    dopants diffuse a random distance into the channel, modelled as the
    maximum of an exponential tail per edge.  The resulting effective-
    length spread feeds the paper's claim that random S/D placement
    adds an L_eff uncertainty on top of the V_T uncertainty.
    """

    #: Default lateral implant straggle [m].  Like line-edge roughness
    #: this is set by process physics, not by the drawn length -- the
    #: reason the paper says the effect "is also enforced as the
    #: number of dopants goes down": the same absolute straggle eats a
    #: growing fraction of a shrinking channel.
    DEFAULT_STRAGGLE = 3e-9

    def __init__(self, node: TechnologyNode,
                 lateral_straggle: Optional[float] = None,
                 seed: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        self.node = node
        self.lateral_straggle = (lateral_straggle if lateral_straggle
                                 is not None else self.DEFAULT_STRAGGLE)
        self.rng = resolve_rng(rng, seed=seed)

    def sample(self, width: Optional[float] = None,
               length: Optional[float] = None) -> PlacedDopants:
        """Draw one device's dopant configuration."""
        length = length if length is not None else self.node.feature_size
        width = width if width is not None else 2.0 * length
        mean_count = channel_dopant_count(self.node, width, length)
        count = int(self.rng.poisson(mean_count))
        x = self.rng.uniform(0.0, length, size=count)
        y = self.rng.uniform(0.0, width, size=count)
        # Edge encroachment: deepest of ~W/pitch independent S/D dopant
        # columns, each exponentially distributed.
        columns = max(int(width / self.node.wire_pitch * 4), 1)
        source = float(np.max(self.rng.exponential(
            self.lateral_straggle, size=columns)))
        drain = float(np.max(self.rng.exponential(
            self.lateral_straggle, size=columns)))
        return PlacedDopants(x=x, y=y, length=length, width=width,
                             source_encroachment=source,
                             drain_encroachment=drain)

    def sample_batch(self, n_devices: int,
                     width: Optional[float] = None,
                     length: Optional[float] = None
                     ) -> Dict[str, np.ndarray]:
        """Batched draw of ``n_devices`` devices' count and L_eff.

        Vectorized twin of repeated :meth:`sample` calls for the
        statistics that do not need individual dopant *positions*:
        returns ``count`` (Poisson per device), ``source``/``drain``
        encroachments (max of the per-column exponential tails) and
        ``effective_length``, each of shape ``(n_devices,)``.  The
        per-dopant (x, y) clouds are skipped, which is what makes the
        batch 10-100x faster than the scalar loop; the distributions
        of the returned quantities are identical.
        """
        n_devices = check_count("n_devices", n_devices)
        length = length if length is not None else self.node.feature_size
        width = width if width is not None else 2.0 * length
        mean_count = channel_dopant_count(self.node, width, length)
        counts = self.rng.poisson(mean_count, size=n_devices)
        columns = max(int(width / self.node.wire_pitch * 4), 1)
        tails = self.rng.exponential(
            self.lateral_straggle, size=(n_devices, 2, columns))
        encroachment = tails.max(axis=2)
        effective = np.maximum(
            length - encroachment[:, 0] - encroachment[:, 1], 0.0)
        return {
            "count": counts.astype(float),
            "source_encroachment": encroachment[:, 0],
            "drain_encroachment": encroachment[:, 1],
            "effective_length": effective,
        }

    def effective_length_statistics(self, n_devices: int,
                                    width: Optional[float] = None,
                                    length: Optional[float] = None
                                    ) -> Dict[str, float]:
        """MC statistics of L_eff across ``n_devices`` devices."""
        n_devices = check_count("n_devices", n_devices, minimum=2)
        samples = self.sample_batch(n_devices, width,
                                    length)["effective_length"]
        nominal = length if length is not None else self.node.feature_size
        return {
            "n_devices": float(n_devices),
            "nominal_length_nm": nominal * 1e9,
            "mean_leff_nm": float(samples.mean()) * 1e9,
            "sigma_leff_nm": float(samples.std(ddof=1)) * 1e9,
            "relative_sigma": float(samples.std(ddof=1) / samples.mean()),
        }
