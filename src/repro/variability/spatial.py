"""Spatially correlated intra-die variation.

Pelgrom's distance term (used in :mod:`repro.variability.pelgrom`) is
the two-point shadow of a richer structure: across-die parameter
*gradients* (lens aberrations, anneal non-uniformity) plus a
spatially *correlated* random field (with a mm-class correlation
length) plus white per-device noise.  This module generates such V_T
maps and quantifies their circuit consequences: nearby devices match
better than far ones, common-centroid layouts cancel gradients, and
correlated timing variation averages *less* than independent-mismatch
SSTA predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..technology.node import TechnologyNode
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class SpatialSpec:
    """Decomposition of intra-die V_T variation.

    Parameters
    ----------
    gradient_sigma:
        Sigma of the across-die linear gradient magnitude [V/m].
    correlated_sigma:
        Sigma of the correlated random field [V].
    correlation_length:
        Correlation length of that field [m] (~1-3 mm historically).
    white_sigma:
        Per-device independent sigma [V] (the Pelgrom area term for
        the device size of interest).
    """

    gradient_sigma: float = 5.0       # V/m, ~5 mV/mm
    correlated_sigma: float = 0.008   # V
    correlation_length: float = 2e-3  # m
    white_sigma: float = 0.01         # V

    def __post_init__(self) -> None:
        if min(self.gradient_sigma, self.correlated_sigma,
               self.correlation_length, self.white_sigma) < 0:
            raise ModelDomainError("spec values must be non-negative")
        if self.correlation_length == 0:
            raise ModelDomainError("correlation_length must be positive")


class VtMap:
    """A sampled V_T-offset field over a die.

    Query with :meth:`at` (arbitrary positions, bilinear) or sample
    device pairs/arrays for matching studies.
    """

    def __init__(self, die: float, offsets: np.ndarray,
                 white_sigma: float,
                 rng: np.random.Generator):
        self.die = die
        self._grid = offsets
        self._n = offsets.shape[0]
        self._white_sigma = white_sigma
        self._rng = rng

    def at(self, x, y, include_white: bool = True):
        """V_T offset [V] at position(s) (x, y).

        Scalars in, float out; arrays in, elementwise array out
        (bilinear interpolation vectorized over all query points, one
        white-noise draw per point).
        """
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        scalar = x_arr.ndim == 0 and y_arr.ndim == 0
        if (np.any(x_arr < 0) or np.any(x_arr > self.die)
                or np.any(y_arr < 0) or np.any(y_arr > self.die)):
            raise ModelDomainError("position outside the die")
        u = np.minimum(x_arr / self.die * (self._n - 1),
                       self._n - 1 - 1e-9)
        v = np.minimum(y_arr / self.die * (self._n - 1),
                       self._n - 1 - 1e-9)
        i = u.astype(int)
        j = v.astype(int)
        fu, fv = u - i, v - j
        smooth = ((1 - fu) * (1 - fv) * self._grid[j, i]
                  + fu * (1 - fv) * self._grid[j, i + 1]
                  + (1 - fu) * fv * self._grid[j + 1, i]
                  + fu * fv * self._grid[j + 1, i + 1])
        if include_white:
            smooth = smooth + self._white_sigma \
                * self._rng.standard_normal(smooth.shape)
        return float(smooth) if scalar else smooth


def sample_vt_map(node: TechnologyNode, die: float = 5e-3,
                  spec: SpatialSpec = SpatialSpec(),
                  resolution: int = 48,
                  seed: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None) -> VtMap:
    """Draw one die's smooth V_T-offset field.

    Gradient: random direction and magnitude.  Correlated field:
    white noise smoothed by a Gaussian kernel of the correlation
    length, renormalized to the requested sigma.
    """
    if die <= 0 or resolution < 8:
        raise ModelDomainError("die must be positive, resolution >= 8")
    rng = resolve_rng(rng, seed=seed)
    axis = np.linspace(0.0, die, resolution)
    xx, yy = np.meshgrid(axis, axis)
    # Linear gradient with random orientation.
    direction = rng.uniform(0.0, 2.0 * math.pi)
    magnitude = abs(rng.normal(0.0, spec.gradient_sigma))
    gradient = magnitude * ((xx - die / 2) * math.cos(direction)
                            + (yy - die / 2) * math.sin(direction))
    # Correlated field: smoothed white noise.
    white = rng.standard_normal((resolution, resolution))
    spacing = die / (resolution - 1)
    # Kernel must stay shorter than the grid for mode="same".
    kernel_half = min(max(int(2 * spec.correlation_length / spacing), 1),
                      (resolution - 1) // 2)
    offsets1d = np.arange(-kernel_half, kernel_half + 1) * spacing
    kernel = np.exp(-0.5 * (offsets1d / spec.correlation_length) ** 2)
    kernel /= kernel.sum()
    # Separable smoothing, vectorized over rows/columns (equivalent to
    # np.convolve(..., mode="same") per line for the odd kernel).
    from scipy.ndimage import convolve1d
    smoothed = convolve1d(white, kernel, axis=1, mode="constant")
    smoothed = convolve1d(smoothed, kernel, axis=0, mode="constant")
    std = smoothed.std()
    if std > 0:
        smoothed *= spec.correlated_sigma / std
    return VtMap(die, gradient + smoothed, spec.white_sigma, rng)


def matching_vs_distance(node: TechnologyNode,
                         distances: Sequence[float],
                         die: float = 5e-3,
                         spec: SpatialSpec = SpatialSpec(),
                         n_dies: int = 60,
                         seed: int = 0) -> List[Dict[str, float]]:
    """Measured sigma(delta V_T) vs device separation.

    Reproduces the Pelgrom distance law from the spatial model: flat
    (white-dominated) at short range, growing with distance as the
    gradient and field decorrelate the pair.
    """
    rows = []
    base = resolve_rng(seed=seed)
    maps = [sample_vt_map(node, die, spec,
                          seed=int(base.integers(2 ** 31)))
            for _ in range(n_dies)]
    n_pairs = 8   # pairs per die, placed at random positions
    for distance in distances:
        if distance >= die / 2:
            raise ModelDomainError("distance must fit on the die")
        diffs = []
        for vt_map in maps:
            x0 = base.uniform(0.1 * die, 0.9 * die - distance,
                              size=n_pairs)
            y0 = base.uniform(0.1 * die, 0.9 * die, size=n_pairs)
            diffs.append(vt_map.at(x0, y0)
                         - vt_map.at(x0 + distance, y0))
        rows.append({
            "distance_mm": distance * 1e3,
            "sigma_delta_vt_mV": float(np.std(np.concatenate(diffs)))
            * 1e3,
        })
    return rows


def common_centroid_benefit(node: TechnologyNode,
                            separation: float = 0.2e-3,
                            die: float = 5e-3,
                            spec: SpatialSpec = None,
                            n_dies: int = 80,
                            seed: int = 0) -> Dict[str, float]:
    """Gradient cancellation by common-centroid layout, measured.

    An A-B pair at ``separation`` vs an A-B-B-A common-centroid
    arrangement of the same span: the centroid layout cancels the
    linear gradient exactly, leaving only the field + white terms --
    the reason LAYLA draws matched pairs that way.
    """
    spec = spec or SpatialSpec(white_sigma=0.001)
    base = resolve_rng(seed=seed)
    plain, centroid = [], []
    for _ in range(n_dies):
        vt_map = sample_vt_map(node, die, spec,
                               seed=int(base.integers(2 ** 31)))
        y = die / 2
        x0 = die / 2 - separation * 1.5
        positions = x0 + separation * np.arange(4)
        values = vt_map.at(positions, np.full(4, y),
                           include_white=False)
        values = values + spec.white_sigma * base.standard_normal(4)
        # Plain pair: device A at 0, device B at 1.
        plain.append(values[0] - values[1])
        # Common centroid: A = (0 + 3)/2, B = (1 + 2)/2.
        centroid.append((values[0] + values[3]) / 2.0
                        - (values[1] + values[2]) / 2.0)
    sigma_plain = float(np.std(plain))
    sigma_centroid = float(np.std(centroid))
    return {
        "sigma_plain_mV": sigma_plain * 1e3,
        "sigma_centroid_mV": sigma_centroid * 1e3,
        "improvement": sigma_plain / max(sigma_centroid, 1e-12),
    }
