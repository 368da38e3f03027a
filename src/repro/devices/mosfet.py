"""Compact MOSFET model: alpha-power law with subthreshold conduction.

The model combines

* the Sakurai-Newton *alpha-power law* for strong inversion (the
  velocity-saturation exponent ``alpha`` comes from the technology
  node and falls from ~2 at 350 nm towards ~1.25 at 32 nm),
* the exponential subthreshold model of the paper's eq. 1, including
  the V_DS-dependent equivalent V_T decrease (DIBL) that Fig. 1
  illustrates,
* body effect through the node's bulk factor (the paper's section 3.2
  VTCMOS discussion), and
* gate tunnelling leakage through :mod:`repro.devices.leakage`.

Everything is vectorized over numpy arrays where it matters for the
benchmarks (Fig. 1 sweeps, Monte Carlo loops).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..core.constants import thermal_voltage
from ..robust.errors import ModelDomainError
from ..technology.node import TechnologyNode

ArrayLike = Union[float, np.ndarray]


class DeviceType(enum.Enum):
    """Channel polarity."""

    NMOS = "nmos"
    PMOS = "pmos"


@dataclass
class Mosfet:
    """A single MOS transistor in a given technology.

    Voltages follow the NMOS convention internally; for PMOS devices
    pass terminal voltages with their natural signs and the model
    mirrors them.

    Parameters
    ----------
    node:
        Technology node supplying all process parameters.
    width / length:
        Drawn dimensions [m].  ``length`` defaults to the node feature
        size.
    device_type:
        NMOS or PMOS.
    vth_offset:
        Additive V_T shift [V] -- used for mismatch sampling, multi-V_T
        libraries (MTCMOS) and corner modelling.
    """

    node: TechnologyNode
    width: float
    length: float = 0.0
    device_type: DeviceType = DeviceType.NMOS
    vth_offset: float = 0.0
    temperature: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.length == 0.0:
            self.length = self.node.feature_size
        if not (math.isfinite(self.width) and math.isfinite(self.length)
                and self.width > 0 and self.length > 0):
            raise ModelDomainError(
                f"device dimensions must be positive finite, got "
                f"W={self.width!r} L={self.length!r}")
        if not math.isfinite(self.vth_offset):
            raise ModelDomainError(
                f"vth_offset must be finite, got {self.vth_offset!r}")
        if self.temperature == 0.0:
            self.temperature = self.node.temperature
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ModelDomainError(
                f"temperature must be positive finite, got "
                f"{self.temperature!r}")

    # --- threshold -------------------------------------------------------

    def vth(self, vds: ArrayLike = 0.0, vbs: ArrayLike = 0.0) -> ArrayLike:
        """Effective threshold voltage [V] including DIBL and body effect.

        DIBL is modelled as the paper describes: an equivalent,
        V_DS-dependent V_T decrease.  Reverse body bias (vbs < 0 for
        NMOS) raises V_T by ``body_factor`` volts per volt.
        """
        vds = np.asarray(vds, dtype=float)
        vbs = np.asarray(vbs, dtype=float)
        vth0 = self.node.vth + self.vth_offset
        value = vth0 - self.node.dibl * np.abs(vds) \
            - self.node.body_factor * vbs
        return value if value.ndim else float(value)

    # --- currents --------------------------------------------------------

    @property
    def _mobility(self) -> float:
        if self.device_type is DeviceType.NMOS:
            return self.node.mobility_n
        return self.node.mobility_p

    @property
    def beta(self) -> float:
        """Current factor mu*Cox*W/L [A/V^2]."""
        return self._mobility * self.node.cox * self.width / self.length

    def _subthreshold_current(self, vgs: np.ndarray, vds: np.ndarray,
                              vbs: np.ndarray) -> np.ndarray:
        """Eq. 1 of the paper with the DIBL-corrected V_T.

        I_sub = I_0 * (W/L_ref) * exp((V_GS - V_T) / (n kT/q))
                    * (1 - exp(-V_DS / (kT/q)))
        with I_0 inversely proportional to L as the paper notes.
        """
        phi_t = thermal_voltage(self.temperature)
        n = self.node.subthreshold_n
        vth = np.asarray(self.vth(vds=vds, vbs=vbs), dtype=float)
        i0 = (self.node.i0_per_width * self.width
              * self.node.feature_size / self.length)
        drain_factor = 1.0 - np.exp(-np.maximum(vds, 0.0) / phi_t)
        return i0 * np.exp((vgs - vth) / (n * phi_t)) * drain_factor

    def _strong_inversion_current(self, vgs: np.ndarray, vds: np.ndarray,
                                  vbs: np.ndarray) -> np.ndarray:
        """Alpha-power-law drain current for V_GS > V_T."""
        alpha = self.node.alpha_power
        vth = np.asarray(self.vth(vds=vds, vbs=vbs), dtype=float)
        overdrive = np.maximum(vgs - vth, 0.0)
        # Saturation voltage scales with overdrive^(alpha/2) (Sakurai).
        vdsat = np.maximum(overdrive ** (alpha / 2.0)
                           * self.node.vdd ** (1.0 - alpha / 2.0), 1e-12)
        idsat = 0.5 * self.beta * self.node.vdd ** (2.0 - alpha) \
            * overdrive ** alpha
        linear = idsat * (2.0 - vds / vdsat) * (vds / vdsat)
        return np.where(vds >= vdsat, idsat, np.maximum(linear, 0.0))

    def ids(self, vgs: ArrayLike, vds: ArrayLike,
            vbs: ArrayLike = 0.0) -> ArrayLike:
        """Drain current [A] for the given terminal voltages.

        For PMOS devices pass the magnitudes of V_SG / V_SD (the model
        is symmetric).  Below V_T the current is the subthreshold
        exponential of eq. 1; above V_T it is the alpha-power-law
        current plus the subthreshold current frozen at its V_T value,
        which makes the two branches continuous at V_GS = V_T.
        """
        vgs, vds, vbs = np.broadcast_arrays(
            np.asarray(vgs, dtype=float),
            np.asarray(vds, dtype=float),
            np.asarray(vbs, dtype=float))
        if not (np.all(np.isfinite(vgs)) and np.all(np.isfinite(vds))
                and np.all(np.isfinite(vbs))):
            raise ModelDomainError(
                "terminal voltages must be finite (got NaN/inf in "
                "vgs, vds or vbs)")
        weak = self._subthreshold_current(vgs, vds, vbs)
        strong = self._strong_inversion_current(vgs, vds, vbs)
        vth = np.asarray(self.vth(vds=vds, vbs=vbs), dtype=float)
        weak_at_vth = self._subthreshold_current(vth, vds, vbs)
        out = np.where(vgs >= vth, strong + weak_at_vth, weak)
        if not np.all(np.isfinite(out)):
            raise ModelDomainError(
                "Mosfet.ids produced a non-finite current: the bias "
                "point lies outside the model's validity domain")
        return out if out.ndim else float(out)

    def off_current(self, vds: Optional[float] = None,
                    vbs: float = 0.0) -> float:
        """Leakage drain current at V_GS = 0 [A] (the paper's I_off).

        ``vds`` defaults to the full supply, the worst case for DIBL.
        """
        if vds is None:
            vds = self.node.vdd
        return float(self.ids(0.0, vds, vbs))

    def on_current(self, vbs: float = 0.0) -> float:
        """Drive current at V_GS = V_DS = V_DD [A]."""
        return float(self.ids(self.node.vdd, self.node.vdd, vbs))

    # --- small-signal ------------------------------------------------------

    def gm(self, vgs: float, vds: float, vbs: float = 0.0,
           delta: float = 1e-4) -> float:
        """Transconductance dI_D/dV_GS [S] by central difference."""
        hi = float(self.ids(vgs + delta, vds, vbs))
        lo = float(self.ids(vgs - delta, vds, vbs))
        return (hi - lo) / (2.0 * delta)

    def gds(self, vgs: float, vds: float, vbs: float = 0.0,
            delta: float = 1e-4) -> float:
        """Output conductance dI_D/dV_DS [S] by central difference."""
        hi = float(self.ids(vgs, vds + delta, vbs))
        lo = float(self.ids(vgs, max(vds - delta, 0.0), vbs))
        return (hi - lo) / (vds + delta - max(vds - delta, 0.0))

    def subthreshold_swing(self) -> float:
        """Subthreshold swing [V/decade]: S = n * kT/q * ln(10).

        ~60 mV/decade is the ideal (n = 1); real nodes sit at 80-95.
        """
        return (self.node.subthreshold_n
                * thermal_voltage(self.temperature) * math.log(10.0))

    # --- capacitances -------------------------------------------------------

    @property
    def gate_area(self) -> float:
        """Gate area W*L [m^2]."""
        return self.width * self.length

    def sigma_vth_mismatch(self) -> float:
        """Pelgrom mismatch sigma of this device's V_T [V]."""
        return self.node.avt / math.sqrt(self.gate_area)
