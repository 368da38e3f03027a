"""Parameterized description of a CMOS technology node.

The paper's analyses (equations 1-5 and every figure) consume only a
small set of per-node scalar parameters: supply voltage, threshold
voltage, oxide thickness, wire pitch, doping, matching coefficients and
a few device fit factors.  :class:`TechnologyNode` collects those
parameters; the built-in node library in :mod:`repro.technology.library`
provides ITRS-2003-style values for the 350 nm through 32 nm nodes.

We do not have access to the foundry PDK data the paper's figures were
drawn from.  The values shipped here follow published constant-field
scaling trends with the historical deviations the paper itself discusses
(V_T scaling slower than V_DD, t_ox saturating near 1 nm).  All results
in this library are therefore *trend-faithful*, not foundry-calibrated
-- exactly the level the paper argues at.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

from ..robust.errors import ModelDomainError, ModelDomainWarning
from ..robust.validate import check_finite, check_positive
from ..core.constants import (
    EPSILON_0,
    EPSILON_SI,
    EPSILON_SIO2,
    ELECTRON_CHARGE,
    N_INTRINSIC_SI,
    ROOM_TEMPERATURE,
    thermal_voltage,
)


@dataclass(frozen=True)
class TechnologyNode:
    """Scalar parameter set for one CMOS technology node.

    All quantities are in SI units.  Instances are immutable; use
    :meth:`scaled` or :meth:`with_overrides` to derive variants.

    Parameters
    ----------
    name:
        Human-readable node label, e.g. ``"65nm"``.
    feature_size:
        Drawn minimum channel length L [m].
    vdd:
        Nominal supply voltage [V].
    vth:
        Nominal NMOS threshold voltage at V_BS = 0 [V].
    tox:
        Equivalent gate-oxide thickness [m].
    wire_pitch:
        Minimum metal-1 wire pitch (width + spacing) [m].
    channel_doping:
        Effective channel doping N_A [1/m^3].
    subthreshold_n:
        Subthreshold slope ideality factor n (eq. 1).
    dibl:
        Drain-induced barrier lowering coefficient [V/V]: the
        equivalent V_T decrease per volt of V_DS.
    body_factor:
        Bulk (body-effect) factor dV_T/dV_SB around V_SB = 0 [V/V].
        Decreases with scaling, which is what limits VTCMOS (section
        3.2 of the paper).
    avt:
        Pelgrom threshold-matching coefficient A_VT [V*m]
        (sigma_VT = A_VT / sqrt(W*L)).
    abeta:
        Pelgrom current-factor matching coefficient [m] (dimensionless
        fraction times sqrt(m^2)).
    mobility_n / mobility_p:
        Low-field electron / hole mobility [m^2/(V*s)].
    vsat:
        Carrier saturation velocity [m/s].
    alpha_power:
        Velocity-saturation exponent of the alpha-power law (2 = long
        channel square law, tends to ~1.2 at nanometre nodes).
    gate_leak_k / gate_leak_alpha:
        Fit factors K [A/V^2] and alpha [V/m] of the gate-tunneling
        model (eq. 2 of the paper).
    i0_per_width:
        Subthreshold pre-factor I_0 per unit width at the reference
        channel length [A/m] (eq. 1 of the paper).
    metal_layers:
        Number of interconnect metal layers.
    dielectric_k:
        Relative permittivity of the inter-metal dielectric.
    conductor_resistivity:
        Resistivity of the interconnect metal [ohm*m].
    junction_depth:
        Source/drain junction depth [m]; sets the dopant-counting
        volume together with the depletion depth.
    """

    name: str
    feature_size: float
    vdd: float
    vth: float
    tox: float
    wire_pitch: float
    channel_doping: float
    subthreshold_n: float = 1.4
    dibl: float = 0.05
    body_factor: float = 0.2
    avt: float = 4e-9           # V*m  (= 4 mV*um)
    abeta: float = 1.0e-8       # m    (= 1 %*um)
    mobility_n: float = 0.040
    mobility_p: float = 0.016
    vsat: float = 1.0e5
    alpha_power: float = 1.3
    gate_leak_k: float = 3e-7
    gate_leak_alpha: float = 6.0e10
    i0_per_width: float = 1.0e-1
    metal_layers: int = 6
    dielectric_k: float = 3.9
    conductor_resistivity: float = 1.68e-8
    junction_depth: float = field(default=0.0)
    temperature: float = ROOM_TEMPERATURE
    #: dV_T/dT [V/K]; V_T drops as the die heats, compounding leakage.
    vth_temp_coefficient: float = -1.0e-3

    #: Junction temperatures [K] the trend tables are calibrated for;
    #: :meth:`at_temperature` warns (ModelDomainWarning) outside it.
    CALIBRATED_TEMPERATURE_RANGE = (150.0, 600.0)

    #: Numeric fields that must be strictly positive and finite.
    _POSITIVE_FIELDS = ("feature_size", "vdd", "vth", "tox", "wire_pitch",
                        "channel_doping", "subthreshold_n", "avt", "abeta",
                        "mobility_n", "mobility_p", "vsat", "alpha_power",
                        "dielectric_k", "conductor_resistivity",
                        "temperature")
    #: Numeric fields that only need to be finite.
    _FINITE_FIELDS = ("dibl", "body_factor", "gate_leak_k",
                      "gate_leak_alpha", "i0_per_width", "junction_depth",
                      "vth_temp_coefficient")

    def __post_init__(self) -> None:
        for attr in self._POSITIVE_FIELDS:
            value = getattr(self, attr)
            if not isinstance(value, (int, float)) \
                    or not math.isfinite(value) or value <= 0:
                raise ModelDomainError(
                    f"{attr} must be a positive finite number, "
                    f"got {value!r}")
        for attr in self._FINITE_FIELDS:
            value = getattr(self, attr)
            if not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise ModelDomainError(
                    f"{attr} must be finite, got {value!r}")
        if self.vth >= self.vdd:
            raise ModelDomainError(
                f"vth ({self.vth} V) must be below vdd ({self.vdd} V)")
        if self.junction_depth == 0.0:
            # Junction depth historically tracks ~L/3.
            object.__setattr__(self, "junction_depth", self.feature_size / 3.0)

    # --- derived electrical quantities ------------------------------------
    # The scalar derivations below sit inside Monte Carlo inner loops
    # (dopant counting touches depletion_depth/cox per device), so the
    # pure-function ones are ``cached_property``: computed once per
    # (immutable) instance, stored on ``__dict__`` which a frozen
    # dataclass still allows.  Field identity/equality are unaffected.

    @cached_property
    def cox(self) -> float:
        """Gate-oxide capacitance per unit area [F/m^2]."""
        return EPSILON_0 * EPSILON_SIO2 / self.tox

    @property
    def overdrive(self) -> float:
        """Nominal gate overdrive V_DD - V_T [V]."""
        return self.vdd - self.vth

    @cached_property
    def fermi_potential(self) -> float:
        """Bulk Fermi potential phi_F [V] for the channel doping."""
        phi_t = thermal_voltage(self.temperature)
        return phi_t * math.log(self.channel_doping / N_INTRINSIC_SI)

    @cached_property
    def depletion_depth(self) -> float:
        """Maximum channel depletion depth [m] (at 2*phi_F band bending)."""
        eps_si = EPSILON_0 * EPSILON_SI
        return math.sqrt(
            4.0 * eps_si * self.fermi_potential
            / (ELECTRON_CHARGE * self.channel_doping))

    @property
    def sigma_vt_min_device(self) -> float:
        """Matching sigma_VT [V] of a minimum-size (W = L) device."""
        return self.avt / self.feature_size

    def sigma_vt(self, width: float, length: Optional[float] = None) -> float:
        """Pelgrom mismatch sigma_VT [V] for a W x L device.

        ``length`` defaults to the node feature size.
        """
        if length is None:
            length = self.feature_size
        check_positive("width", width)
        check_positive("length", length)
        return self.avt / math.sqrt(width * length)

    # --- derivation helpers ------------------------------------------------

    def with_overrides(self, **overrides: float) -> "TechnologyNode":
        """Return a copy with some fields replaced (e.g. a V_T variant)."""
        return dataclasses.replace(self, **overrides)

    def at_temperature(self, temperature: float) -> "TechnologyNode":
        """Return this node at a different junction temperature [K].

        V_T shifts by ``vth_temp_coefficient`` per kelvin and carrier
        mobility degrades as (T/T0)^-1.5 -- together these make hot
        silicon leak exponentially more while driving slightly less,
        which is where the paper's leakage-power problem actually
        bites (section 2.1 at operating temperature).
        """
        check_positive("temperature", temperature)
        if not self.CALIBRATED_TEMPERATURE_RANGE[0] <= temperature \
                <= self.CALIBRATED_TEMPERATURE_RANGE[1]:
            lo, hi = self.CALIBRATED_TEMPERATURE_RANGE
            warnings.warn(
                f"temperature {temperature:g} K is outside the "
                f"calibrated range [{lo:g}, {hi:g}] K; the V_T and "
                f"mobility extrapolations are unvalidated there",
                ModelDomainWarning, stacklevel=2)
        delta_t = temperature - self.temperature
        mobility_factor = (temperature / self.temperature) ** -1.5
        # The linear dV_T/dT flattens near zero threshold; clamp so a
        # (runaway-hot) device degenerates to always-on rather than to
        # an unphysical negative V_T.
        hot_vth = max(self.vth + self.vth_temp_coefficient * delta_t,
                      0.02)
        return dataclasses.replace(
            self,
            name=f"{self.name}@{temperature:.0f}K",
            temperature=temperature,
            vth=hot_vth,
            mobility_n=self.mobility_n * mobility_factor,
            mobility_p=self.mobility_p * mobility_factor,
        )

    def scaled(self, s: float, name: Optional[str] = None,
               full_scaling: bool = True) -> "TechnologyNode":
        """Return an ideally scaled node (scale factor ``s`` > 1 shrinks).

        With ``full_scaling`` (the paper's section 1 scenario) every
        geometry *and* voltage parameter divides by ``s`` and doping
        multiplies by ``s``.  With ``full_scaling=False`` the voltages
        are kept (constant-voltage scaling).
        """
        check_positive("s", s)
        voltage_div = s if full_scaling else 1.0
        return dataclasses.replace(
            self,
            name=name or f"{self.name}/s={s:g}",
            feature_size=self.feature_size / s,
            vdd=self.vdd / voltage_div,
            vth=self.vth / voltage_div,
            tox=self.tox / s,
            wire_pitch=self.wire_pitch / s,
            channel_doping=self.channel_doping * s,
            avt=self.avt / s,
            junction_depth=self.junction_depth / s,
        )

    def to_dict(self) -> Dict[str, float]:
        """All constructor fields as a plain dictionary.

        Round-trips through :meth:`from_dict`; the JSON-friendly
        interchange format for custom (user-measured) node data.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "TechnologyNode":
        """Construct a node from :meth:`to_dict` output (or hand-
        written JSON); unknown keys are rejected loudly."""
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ModelDomainError(
                f"unknown node parameters: {sorted(unknown)}")
        return cls(**data)

    def summary(self) -> Dict[str, float]:
        """Return the headline parameters as a plain dictionary."""
        return {
            "feature_size_nm": self.feature_size * 1e9,
            "vdd_V": self.vdd,
            "vth_V": self.vth,
            "tox_nm": self.tox * 1e9,
            "wire_pitch_nm": self.wire_pitch * 1e9,
            "overdrive_V": self.overdrive,
            "cox_fF_per_um2": self.cox * 1e15 / 1e12,
            "sigma_vt_min_mV": self.sigma_vt_min_device * 1e3,
            "dibl_mV_per_V": self.dibl * 1e3,
            "body_factor": self.body_factor,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TechnologyNode({self.name}: L={self.feature_size*1e9:.0f}nm"
                f" VDD={self.vdd:.2f}V VT={self.vth:.2f}V"
                f" tox={self.tox*1e9:.2f}nm)")
