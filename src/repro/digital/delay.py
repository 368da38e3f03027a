"""Gate-delay modelling and its V_T sensitivity (Fig. 4 of the paper).

The alpha-power-law gate delay

    t_d = K * C_L * V_DD / (V_DD - V_T)^alpha

makes the paper's section-3.1 point directly: the *relative* delay
sensitivity to a V_T shift,

    dt_d/t_d = alpha * dV_T / (V_DD - V_T),

grows as the overdrive V_DD - V_T shrinks with scaling.  A 50 mV shift
is a minor nuisance at 350 nm (V_DD - V_T = 2.7 V) and a first-order
effect at 65 nm (0.78 V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..perf.cache import KeyedCache
from ..robust.errors import ModelDomainError
from ..robust.rng import resolve_rng
from ..robust.validate import check_non_negative, check_positive, validated
from ..technology.node import TechnologyNode
from ..devices.capacitance import (inverter_input_capacitance,
                                   inverter_self_load)

#: The inverter self-load of each ``(node, drive width)`` a scalar
#: :meth:`DelayModel.delay` has used, so a timing analysis runs the
#: validated device-capacitance model once per cell kind, not per call.
_SELF_LOADS = KeyedCache("digital.self_loads", maxsize=1024)


def _self_load(node: TechnologyNode, drive_width: Union[float, np.ndarray]
               ) -> Union[float, np.ndarray]:
    """:func:`inverter_self_load` at ``drive_width``, kept per node and
    width when the width is a Python float (as every cell's model
    gives); an array of widths is computed as it comes."""
    if type(drive_width) is not float:
        return inverter_self_load(node, drive_width)
    return _SELF_LOADS.get_or_compute(
        (node, drive_width), lambda: inverter_self_load(node, drive_width))


@dataclass(frozen=True)
class DelayModel:
    """Alpha-power-law delay model for a gate in one technology.

    Parameters
    ----------
    node:
        Technology node.
    drive_width:
        NMOS width of the driving gate [m].
    load_capacitance:
        Output load [F].  Use :func:`fo4_load` for an FO4 setup.
    prefactor:
        Dimensionless fit constant K (~0.5 for a static CMOS gate,
        absorbing the switching trajectory).
    """

    node: TechnologyNode
    drive_width: float
    load_capacitance: float
    prefactor: float = 0.5

    def __post_init__(self) -> None:
        check_positive("drive_width", self.drive_width)
        check_non_negative("load_capacitance", self.load_capacitance)
        check_positive("prefactor", self.prefactor)

    @validated(_result_finite=True, vth="finite", vdd="positive")
    def delay(self, vth: Optional[float] = None,
              vdd: Optional[float] = None) -> float:
        """Gate delay [s] at the given (or nominal) V_T and V_DD.

        Every term is elementwise, so ``vth``/``vdd`` (and the model's
        own ``drive_width``/``load_capacitance``) may be scalars or
        broadcastable numpy arrays; scalar inputs return a plain
        float.  The batched timing engine
        (:mod:`repro.digital.timing_compiled`) evaluates one such call
        over a ``(n_samples, n_gates)`` V_T grid, so the scalar and
        vectorized paths share this single delay formula.
        """
        vth = vth if vth is not None else self.node.vth
        vdd = vdd if vdd is not None else self.node.vdd
        if np.any(np.asarray(vdd) <= np.asarray(vth)):
            raise ModelDomainError(
                f"vdd ({vdd}) must exceed vth ({vth}) for the gate to switch")
        mu_cox_wl = (self.node.mobility_n * self.node.cox
                     * self.drive_width / self.node.feature_size)
        alpha = self.node.alpha_power
        drive = 0.5 * mu_cox_wl * vdd ** (2.0 - alpha) \
            * (vdd - vth) ** alpha
        total_load = self.load_capacitance + _self_load(
            self.node, self.drive_width)
        return self.prefactor * total_load * vdd / drive

    def delay_sensitivity(self, vth: Optional[float] = None) -> float:
        """Relative delay change per volt of V_T shift [1/V].

        (1/t_d) * dt_d/dV_T = alpha / (V_DD - V_T): the growing curve
        of Fig. 4.
        """
        vth = vth if vth is not None else self.node.vth
        return self.node.alpha_power / (self.node.vdd - vth)

    @validated(_result_finite=True, sigma_vth="non-negative",
               n_sigma="non-negative")
    def delay_spread(self, sigma_vth: float,
                     n_sigma: float = 3.0) -> Dict[str, float]:
        """Delay statistics under a Gaussian V_T spread.

        Evaluates the exact delay at +/- ``n_sigma`` and the linearized
        sigma; returns absolute and relative numbers.
        """
        nominal = self.delay()
        slow = self.delay(vth=self.node.vth + n_sigma * sigma_vth)
        fast = self.delay(vth=self.node.vth - n_sigma * sigma_vth)
        sigma_rel = self.delay_sensitivity() * sigma_vth
        return {
            "nominal_s": nominal,
            "slow_s": slow,
            "fast_s": fast,
            "worst_over_nominal": slow / nominal,
            "sigma_delay_rel": sigma_rel,
            "spread_rel": (slow - fast) / nominal,
        }

    def monte_carlo_delays(self, sigma_vth: float, n_samples: int = 1000,
                           seed: Optional[int] = None) -> np.ndarray:
        """Sample the delay distribution under Gaussian V_T variation."""
        rng = resolve_rng(seed=seed)
        shifts = rng.normal(0.0, sigma_vth, size=n_samples)
        # Clip shifts that would put VT above VDD (non-functional gate).
        max_shift = 0.95 * self.node.overdrive
        shifts = np.clip(shifts, -self.node.vth * 0.9, max_shift)
        return np.asarray(self.delay(vth=self.node.vth + shifts))


@validated(drive_width="positive")
def fo4_load(node: TechnologyNode, drive_width: float) -> float:
    """Fan-out-of-4 load capacitance [F] for a driver of ``drive_width``."""
    return 4.0 * inverter_input_capacitance(node, drive_width)


def fo4_delay_model(node: TechnologyNode,
                    drive_width: Optional[float] = None) -> DelayModel:
    """The canonical FO4 inverter delay model for ``node``."""
    width = drive_width if drive_width is not None \
        else 2.0 * node.feature_size
    return DelayModel(node=node, drive_width=width,
                      load_capacitance=fo4_load(node, width))


def delay_variability_trend(nodes: Sequence[TechnologyNode],
                            delta_vth: float = 0.05,
                            use_node_sigma: bool = False
                            ) -> List[Dict[str, float]]:
    """Regenerate Fig. 4: delay impact of a V_T shift across nodes.

    With ``use_node_sigma`` the shift is each node's own minimum-device
    mismatch sigma instead of a fixed ``delta_vth`` (50 mV default,
    matching the paper's introduction example).
    """
    rows = []
    for node in nodes:
        model = fo4_delay_model(node)
        shift = (node.sigma_vt_min_device if use_node_sigma
                 else delta_vth)
        nominal = model.delay()
        shifted = model.delay(vth=node.vth + shift)
        rows.append({
            "node": node.name,
            "feature_size_nm": node.feature_size * 1e9,
            "overdrive_V": node.overdrive,
            "fo4_delay_ps": nominal * 1e12,
            "delta_vth_mV": shift * 1e3,
            "delay_increase_pct": (shifted / nominal - 1.0) * 100.0,
            "sensitivity_per_V": model.delay_sensitivity(),
        })
    return rows


@validated(_result_finite=True, vdd="positive", vth="finite")
def energy_delay_product(node: TechnologyNode,
                         vdd: Optional[float] = None,
                         vth: Optional[float] = None) -> Dict[str, float]:
    """Energy, delay and their product for an FO4 stage.

    Supports V_DD/V_T co-sweeps (e.g. finding the EDP-optimal supply,
    an ingredient of the section-3 energy-delay trade-off analysis).
    """
    vdd = vdd if vdd is not None else node.vdd
    vth = vth if vth is not None else node.vth
    model = fo4_delay_model(node)
    delay = model.delay(vth=vth, vdd=vdd)
    load = model.load_capacitance + inverter_self_load(
        node, model.drive_width)
    energy = load * vdd ** 2
    return {
        "delay_s": delay,
        "energy_J": energy,
        "edp_Js": energy * delay,
    }
