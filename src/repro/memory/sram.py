"""6T SRAM cell model: stability, leakage and variability.

The paper's abstract singles out "the leakage power and process
variability and their implications for digital circuits *and
memories*".  SRAM is where both bite first: the cell uses near-minimum
devices (maximum mismatch), there are millions of them (worst-case
statistics), and the array leaks constantly (it is never clock-gated).

The model computes the butterfly-curve static noise margin (SNM) from
the compact MOSFET model, read/write margins, per-cell leakage, and
the cell-failure probability under V_T mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..technology.node import TechnologyNode
from ..devices.mosfet import DeviceType, Mosfet
from ..devices.leakage import device_leakage
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class SramCellDesign:
    """Transistor sizing of a 6T cell (widths in multiples of L).

    The classic ratios: pull-down strongest (cell ratio ~1.5-2 for
    read stability), access in between, pull-up weakest (pull-up
    ratio < 1 for writability).
    """

    pull_down_ratio: float = 2.0   # driver W/L
    access_ratio: float = 1.2      # pass-gate W/L
    pull_up_ratio: float = 0.8     # PMOS load W/L

    def __post_init__(self) -> None:
        for name in ("pull_down_ratio", "access_ratio", "pull_up_ratio"):
            if getattr(self, name) <= 0:
                raise ModelDomainError(f"{name} must be positive")

    @property
    def cell_ratio(self) -> float:
        """Driver/access strength ratio (read stability knob)."""
        return self.pull_down_ratio / self.access_ratio

    @property
    def pullup_ratio(self) -> float:
        """Pull-up/access strength ratio (writability knob)."""
        return self.pull_up_ratio / self.access_ratio


class SramCell:
    """A 6T SRAM cell in a technology node.

    Parameters
    ----------
    node:
        Technology node.
    design:
        Transistor ratios.
    vth_offsets:
        Optional per-device V_T shifts [V], keys among
        ``pd_l, pd_r, pu_l, pu_r, ax_l, ax_r`` (mismatch injection).
    """

    _DEVICES = ("pd_l", "pd_r", "pu_l", "pu_r", "ax_l", "ax_r")

    def __init__(self, node: TechnologyNode,
                 design: SramCellDesign = SramCellDesign(),
                 vth_offsets: Optional[Dict[str, float]] = None):
        self.node = node
        self.design = design
        self.vth_offsets = dict(vth_offsets or {})
        unknown = set(self.vth_offsets) - set(self._DEVICES)
        if unknown:
            raise ModelDomainError(f"unknown devices in vth_offsets: {unknown}")
        length = node.feature_size

        def offset(key: str) -> float:
            return self.vth_offsets.get(key, 0.0)

        self.pd_l = Mosfet(node, design.pull_down_ratio * length,
                           vth_offset=offset("pd_l"))
        self.pd_r = Mosfet(node, design.pull_down_ratio * length,
                           vth_offset=offset("pd_r"))
        self.pu_l = Mosfet(node, design.pull_up_ratio * length,
                           device_type=DeviceType.PMOS,
                           vth_offset=offset("pu_l"))
        self.pu_r = Mosfet(node, design.pull_up_ratio * length,
                           device_type=DeviceType.PMOS,
                           vth_offset=offset("pu_r"))
        self.ax_l = Mosfet(node, design.access_ratio * length,
                           vth_offset=offset("ax_l"))
        self.ax_r = Mosfet(node, design.access_ratio * length,
                           vth_offset=offset("ax_r"))

    # --- inverter transfer curves ------------------------------------------

    def _inverter_vout(self, vin: float, pull_down: Mosfet,
                       pull_up: Mosfet, access: Optional[Mosfet] = None
                       ) -> float:
        """Output of one cell inverter at input ``vin`` (``brentq``).

        With ``access`` given, the pass gate pulls the output toward
        the (precharged-high) bitline -- the read-disturb condition
        that erodes read SNM.  This per-point solve is the numerical
        oracle for :meth:`_inverter_vout_many`.
        """
        vdd = self.node.vdd

        def net_current(vout: float) -> float:
            i_down = pull_down.ids(vin, vout)
            i_up = pull_up.ids(vdd - vin, vdd - vout)
            i_ax = access.ids(vdd - vout, vdd - vout) if access else 0.0
            return i_up + i_ax - i_down

        lo, hi = 0.0, vdd
        if net_current(lo) <= 0:
            return 0.0
        if net_current(hi) >= 0:
            return vdd
        from scipy.optimize import brentq

        return brentq(net_current, lo, hi, xtol=1e-9)

    def _inverter_vout_many(self, vin: np.ndarray, pull_down: Mosfet,
                            pull_up: Mosfet,
                            access: Optional[Mosfet] = None,
                            n_iter: int = 48) -> np.ndarray:
        """Vectorized :meth:`_inverter_vout` over a whole V_in grid.

        Solves every grid point's current balance at once by bisection
        on arrays (the compact model is numpy-vectorized), replacing
        one ``brentq`` call per point.  ``n_iter`` halvings of [0,
        V_DD] reach ~V_DD * 2^-48, well inside the scalar path's
        tolerance.
        """
        vdd = self.node.vdd
        vin = np.asarray(vin, dtype=float)

        def net_current(vout: np.ndarray) -> np.ndarray:
            i_down = pull_down.ids(vin, vout)
            i_up = pull_up.ids(vdd - vin, vdd - vout)
            i_ax = (access.ids(vdd - vout, vdd - vout)
                    if access else 0.0)
            return i_up + i_ax - i_down

        lo = np.zeros_like(vin)
        hi = np.full_like(vin, vdd)
        pinned_low = net_current(lo) <= 0     # output stuck at 0
        pinned_high = net_current(hi) >= 0    # output stuck at VDD
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            pull_up_wins = net_current(mid) > 0
            lo = np.where(pull_up_wins, mid, lo)
            hi = np.where(pull_up_wins, hi, mid)
        out = 0.5 * (lo + hi)
        out = np.where(pinned_low, 0.0, out)
        return np.where(pinned_high, vdd, out)

    def butterfly_curves(self, n_points: int = 101,
                         read_condition: bool = False
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vin, vtc_left, vtc_right): the two cross-coupled VTCs."""
        vdd = self.node.vdd
        vin = np.linspace(0.0, vdd, n_points)
        left = self._inverter_vout_many(
            vin, self.pd_l, self.pu_l,
            self.ax_l if read_condition else None)
        right = self._inverter_vout_many(
            vin, self.pd_r, self.pu_r,
            self.ax_r if read_condition else None)
        return vin, left, right

    def static_noise_margin(self, read_condition: bool = False,
                            n_points: int = 101) -> float:
        """Static noise margin [V] of the cross-coupled pair.

        Uses the series-noise-source definition (equivalent to the
        largest butterfly square): with worst-case DC noise VN in
        series with both inverter inputs, the loop map

            g(v) = f2(f1(v + VN) + VN)

        must keep three fixed points (bistability).  The SNM is the
        largest VN for which it does, found by bisection.
        """
        vin, left, right = self.butterfly_curves(n_points, read_condition)
        vdd = self.node.vdd

        def f1(v: np.ndarray) -> np.ndarray:
            return np.interp(np.clip(v, 0.0, vdd), vin, left)

        def f2(v: np.ndarray) -> np.ndarray:
            return np.interp(np.clip(v, 0.0, vdd), vin, right)

        grid = np.linspace(0.0, vdd, 8 * n_points)

        def bistable(noise: float) -> bool:
            loop = f2(f1(grid + noise) + noise) - grid
            signs = np.sign(loop)
            crossings = int(np.count_nonzero(np.diff(signs) != 0))
            return crossings >= 3

        if not bistable(0.0):
            return 0.0
        lo, hi = 0.0, vdd / 2.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if bistable(mid):
                lo = mid
            else:
                hi = mid
        return lo

    # --- margins and leakage ---------------------------------------------------

    def read_snm(self) -> float:
        """SNM with the wordline on (read disturb) [V]."""
        return self.static_noise_margin(read_condition=True)

    def hold_snm(self) -> float:
        """SNM with the cell isolated [V]."""
        return self.static_noise_margin(read_condition=False)

    def write_margin(self) -> float:
        """Write margin [V]: how far below V_DD the internal '1' node
        is dragged with the bitline at 0 -- positive when the cell
        flips (writable)."""
        vdd = self.node.vdd
        # '1' node held by pull-up, attacked through the access device
        # to a grounded bitline.
        def net_current(v_node: float) -> float:
            # Positive = the pull-up wins and the node rises.
            i_up = self.pu_l.ids(vdd, vdd - v_node)      # holds high
            i_ax = self.ax_l.ids(vdd, v_node)            # pulls to BL=0
            return i_up - i_ax

        if net_current(0.0) <= 0:
            v_final = 0.0             # access overwhelms the pull-up
        elif net_current(vdd) >= 0:
            v_final = vdd             # pull-up never loses: unwritable
        else:
            from scipy.optimize import brentq

            v_final = brentq(net_current, 0.0, vdd, xtol=1e-9)
        # Writable when the node is dragged below the trip point
        # (~VDD/2); the margin is the distance below it.
        return vdd / 2.0 - v_final

    def leakage_current(self) -> float:
        """Static leakage of the cell [A] (both sides, worst state)."""
        length = self.node.feature_size
        off_devices = [
            device_leakage(self.node, self.design.pull_down_ratio * length),
            device_leakage(self.node, self.design.pull_up_ratio * length),
            device_leakage(self.node, self.design.access_ratio * length),
        ]
        return sum(budget.total for budget in off_devices)

    def area(self) -> float:
        """Cell footprint [m^2]; ~120 F^2, the historical 6T density."""
        f = self.node.feature_size
        return 120.0 * f ** 2


def snm_under_mismatch(node: TechnologyNode,
                       design: SramCellDesign = SramCellDesign(),
                       n_samples: int = 200,
                       read_condition: bool = True,
                       seed: Optional[int] = None) -> np.ndarray:
    """MC distribution of (read) SNM under Pelgrom V_T mismatch [V]."""
    rng = resolve_rng(seed=seed)
    length = node.feature_size
    widths = {
        "pd_l": design.pull_down_ratio * length,
        "pd_r": design.pull_down_ratio * length,
        "pu_l": design.pull_up_ratio * length,
        "pu_r": design.pull_up_ratio * length,
        "ax_l": design.access_ratio * length,
        "ax_r": design.access_ratio * length,
    }
    names = list(widths)
    sigmas = np.array([node.avt / math.sqrt(w * length)
                       for w in widths.values()])
    # One batched draw for all samples x devices; row-major fill makes
    # this bit-for-bit the per-sample, per-device scalar loop.
    offsets_batch = rng.normal(0.0, sigmas, size=(n_samples, len(names)))
    samples = np.empty(n_samples)
    for i in range(n_samples):
        offsets = dict(zip(names, offsets_batch[i]))
        cell = SramCell(node, design, offsets)
        samples[i] = cell.static_noise_margin(
            read_condition=read_condition, n_points=41)
    return samples


def cell_failure_probability(node: TechnologyNode,
                             design: SramCellDesign = SramCellDesign(),
                             snm_floor: Optional[float] = None,
                             n_samples: int = 200,
                             seed: Optional[int] = None
                             ) -> Dict[str, float]:
    """Probability that a cell's read SNM falls below ``snm_floor``.

    Fits a Gaussian to the MC SNM sample (the standard extrapolation,
    since direct MC cannot reach the 10^-9 failure rates arrays need)
    and reports the implied sigma-level.  ``snm_floor`` defaults to
    5 % of V_DD (sense-margin requirement).
    """
    from scipy.stats import norm
    snm_floor = snm_floor if snm_floor is not None else 0.05 * node.vdd
    samples = snm_under_mismatch(node, design, n_samples,
                                 read_condition=True, seed=seed)
    mu, sigma = float(samples.mean()), float(samples.std(ddof=1))
    if sigma <= 0:
        return {"mean_snm_V": mu, "sigma_snm_V": 0.0,
                "fail_probability": 0.0, "sigma_level": float("inf")}
    level = (mu - snm_floor) / sigma
    return {
        "mean_snm_V": mu,
        "sigma_snm_V": sigma,
        "fail_probability": float(norm.cdf(-level)),
        "sigma_level": level,
    }


def snm_trend(nodes: Sequence[TechnologyNode],
              design: SramCellDesign = SramCellDesign()
              ) -> List[Dict[str, float]]:
    """Nominal hold/read SNM and cell leakage per node.

    The paper's memory claim in table form: margins shrink with V_DD
    while mismatch grows, and leakage per cell explodes.
    """
    rows = []
    for node in nodes:
        cell = SramCell(node, design)
        rows.append({
            "node": node.name,
            "vdd_V": node.vdd,
            "hold_snm_mV": cell.hold_snm() * 1e3,
            "read_snm_mV": cell.read_snm() * 1e3,
            "cell_leakage_pA": cell.leakage_current() * 1e12,
            "sigma_vt_access_mV": node.sigma_vt(
                design.access_ratio * node.feature_size) * 1e3,
        })
    return rows
