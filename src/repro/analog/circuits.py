"""Analytic analog circuit models: the synthesis "evaluation engines".

The paper (section 4.2) describes AMGIE-class synthesis as "powerful
numerical optimization engines coupled to evaluation engines that
qualify the merit of some evolving analog circuit".  These classes are
those evaluation engines: closed-form performance models of

* a single-stage OTA (5-transistor, for general sizing demos),
* a two-stage Miller OTA, and
* a charge-sensitive amplifier + CR-RC shaper front-end -- the
  particle/radiation detector circuit of Fig. 8.

All use the compact device model for bias-point quantities, so the
numbers respond to the technology node realistically (supply, V_T,
matching, gate leakage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Mapping, Optional, Union

import numpy as np

from ..core.constants import (
    kt_energy, thermal_voltage, ELECTRON_CHARGE, EPSILON_0, EPSILON_SIO2)
from ..technology.node import TechnologyNode
from ..variability.pelgrom import sigma_delta_vth
from ..robust.errors import ModelDomainError
from ..robust.validate import check_finite

ArrayLike = Union[float, np.ndarray]


def _libm(fn: Callable[..., float], values: ArrayLike,
          *args: float) -> np.ndarray:
    """``fn(v, *args)`` for every element ``v`` of ``values``.

    ``fn`` is a C function the scalar evaluators call on Python
    floats -- ``math.atan``, ``math.log10``, or builtin ``pow`` with
    ``args == (2,)`` for ``x ** 2`` -- and mapping it over
    ``tolist()`` returns libm's bits.  numpy's ``arctan``, ``log10``
    and ``x ** 2`` (which is ``x * x``, not libm's ``pow``) differ
    from libm in the last bit on 0.1 % to a few percent of inputs,
    and one ulp is enough to move a fixed-seed synthesis trajectory.
    The map runs no Python frame per element, but it is not free:
    0.15-0.2 us per element, 9-12 ms of a 200-270 ms ota-synthesis
    request (four maps over 256 candidates in each of 61
    generations) on a shared 2-core x86-64 host.
    """
    values = np.asarray(values, dtype=float)
    mapped = map(fn, values.ravel().tolist(), *map(repeat, args))
    return np.array(list(mapped), dtype=float).reshape(values.shape)


@dataclass
class OtaDesign:
    """Free variables of a single-stage (5T) OTA sizing.

    All widths/lengths in metres, current in amperes.
    """

    input_width: float
    input_length: float
    load_width: float
    load_length: float
    tail_current: float

    def validate(self, node: TechnologyNode) -> None:
        """Raise ValueError for physically meaningless sizings."""
        minimum = node.feature_size
        for name in ("input_width", "input_length", "load_width",
                     "load_length"):
            if getattr(self, name) < minimum:
                raise ModelDomainError(
                    f"{name} below feature size {minimum:.2e} m")
        if self.tail_current <= 0:
            raise ModelDomainError("tail_current must be positive")


@dataclass(frozen=True)
class OtaPerformance:
    """Evaluated performance of an OTA sizing."""

    gain_db: float
    gbw_hz: float
    phase_margin_deg: float
    slew_rate: float            # V/s
    input_noise_rms: float      # V over the GBW band
    offset_sigma: float         # V
    power: float                # W
    area: float                 # m^2
    swing: float                # V output swing


class SingleStageOta:
    """Evaluation engine for the 5-transistor OTA."""

    def __init__(self, node: TechnologyNode, load_capacitance: float):
        if load_capacitance <= 0:
            raise ModelDomainError("load_capacitance must be positive")
        self.node = node
        self.load_capacitance = load_capacitance

    def _bias_point(self, design: OtaDesign) -> Dict[str, float]:
        node = self.node
        phi_t = thermal_voltage(node.temperature)
        # Weak inversion caps gm at I/(n*phi_t); the square law would
        # otherwise promise unbounded gm/I as V_ov -> 0, which sizing
        # optimizers exploit mercilessly.
        gm_cap = 1.0 / (node.subthreshold_n * phi_t)
        half_current = design.tail_current / 2.0
        # gm from the alpha-power model at the operating overdrive.
        beta_in = (node.mobility_n * node.cox
                   * design.input_width / design.input_length)
        vov_in = math.sqrt(max(2.0 * half_current / beta_in, 1e-12))
        vov_in = max(vov_in, 2.0 * node.subthreshold_n * phi_t)
        gm_in = min(2.0 * half_current / vov_in,
                    gm_cap * half_current)
        beta_load = (node.mobility_p * node.cox
                     * design.load_width / design.load_length)
        vov_load = math.sqrt(max(2.0 * half_current / beta_load, 1e-12))
        vov_load = max(vov_load, 2.0 * node.subthreshold_n * phi_t)
        gm_load = min(2.0 * half_current / vov_load,
                      gm_cap * half_current)
        # Output conductance via early voltage ~ 10 V/um of length.
        early_per_length = 1.0e7  # V/m
        gds = half_current / (early_per_length * design.input_length) \
            + half_current / (early_per_length * design.load_length)
        return {
            "gm_in": gm_in, "gm_load": gm_load, "gds": gds,
            "vov_in": vov_in, "vov_load": vov_load,
            "half_current": half_current,
        }

    def evaluate(self, design: OtaDesign) -> OtaPerformance:
        """Full performance evaluation of a sizing."""
        design.validate(self.node)
        node = self.node
        bias = self._bias_point(design)
        gain = bias["gm_in"] / max(bias["gds"], 1e-15)
        gbw = bias["gm_in"] / (2.0 * math.pi * self.load_capacitance)
        # Non-dominant pole at the current-mirror node.
        mirror_cap = node.cox * design.load_width * design.load_length * 2.0
        pole2 = bias["gm_load"] / (2.0 * math.pi * max(mirror_cap, 1e-18))
        phase_margin = 90.0 - math.degrees(math.atan(gbw / pole2))
        slew = design.tail_current / self.load_capacitance
        # Input-referred noise integrated over the closed-loop band:
        # v_rms^2 = (4kT*gamma*2/gm) * (pi/2 * GBW) with gamma ~ 1.
        noise_psd = 8.0 * kt_energy(node.temperature) / bias["gm_in"]
        noise_rms = math.sqrt(noise_psd * math.pi / 2.0 * gbw)
        offset = math.sqrt(
            sigma_delta_vth(node, design.input_width,
                            design.input_length) ** 2
            + (sigma_delta_vth(node, design.load_width,
                               design.load_length)
               * bias["gm_load"] / bias["gm_in"]) ** 2)
        power = node.vdd * design.tail_current * 1.25  # + bias branch
        area = 2.0 * (design.input_width * design.input_length
                      + design.load_width * design.load_length) * 3.0
        swing = node.vdd - bias["vov_in"] - 2.0 * bias["vov_load"]
        return OtaPerformance(
            gain_db=20.0 * math.log10(max(gain, 1e-12)),
            gbw_hz=gbw,
            phase_margin_deg=phase_margin,
            slew_rate=slew,
            input_noise_rms=noise_rms,
            offset_sigma=offset,
            power=power,
            area=area,
            swing=max(swing, 0.0),
        )

    def evaluate_batch(self, input_width: ArrayLike,
                       input_length: ArrayLike,
                       load_width: ArrayLike, load_length: ArrayLike,
                       tail_current: ArrayLike, *,
                       node_overrides: Optional[
                           Mapping[str, ArrayLike]] = None,
                       invalid: str = "raise") -> OtaPerformance:
        """Array-valued twin of :meth:`evaluate`.

        Evaluates a whole population of sizings in one pass: the five
        design arrays broadcast together and the returned
        :class:`OtaPerformance` holds same-shape ndarrays in every
        field.  Bit-for-bit equal to looping :meth:`evaluate` over
        the elements (the ``synthesis.ota`` tolerance is 0, see
        :func:`repro.backends.equivalence_contract`).

        ``node_overrides`` optionally varies the technology per
        element (keys ``vth`` / ``feature_size`` / ``tox``), the
        inter-die shifts Monte Carlo yield analysis applies through
        ``TechnologyNode.with_overrides`` on the scalar path.

        ``invalid`` selects what happens to elements a scalar
        ``evaluate`` call would reject with a typed error:
        ``"raise"`` raises :class:`ModelDomainError` (the strict
        twin), ``"nan"`` fills their output fields with NaN so
        population optimizers can penalize them per candidate.
        Non-finite inputs always raise.
        """
        if invalid not in ("raise", "nan"):
            raise ModelDomainError(
                f"invalid must be 'raise' or 'nan', got {invalid!r}")
        node = self.node
        overrides = dict(node_overrides or {})
        unknown = set(overrides) - {"vth", "feature_size", "tox"}
        if unknown:
            raise ModelDomainError(
                f"unsupported node_overrides {sorted(unknown)}; "
                "supported: vth, feature_size, tox")
        for name, value in overrides.items():
            check_finite(f"node_overrides[{name!r}]", value)
        arrays = [check_finite(name, value) for name, value in (
            ("input_width", input_width), ("input_length", input_length),
            ("load_width", load_width), ("load_length", load_length),
            ("tail_current", tail_current))]
        (iw, il, lw, ll, tail, vth, feature_size, tox) = \
            np.broadcast_arrays(
                *[np.asarray(a, dtype=float) for a in arrays],
                np.asarray(overrides.get("vth", node.vth), dtype=float),
                np.asarray(overrides.get("feature_size",
                                         node.feature_size), dtype=float),
                np.asarray(overrides.get("tox", node.tox), dtype=float))
        shape = iw.shape

        # Same rejection order as the scalar path: the shifted-node
        # construction (``with_overrides`` validation) precedes
        # ``OtaDesign.validate``.
        bad = np.zeros(shape, dtype=bool)

        def reject(mask: np.ndarray, message: str) -> None:
            if not np.any(mask):
                return
            if invalid == "raise":
                raise ModelDomainError(message)
            bad[...] |= mask

        for name, values in (("feature_size", feature_size),
                             ("vth", vth), ("tox", tox)):
            reject(~(values > 0),
                   f"{name} must be a positive finite number")
        reject(vth >= node.vdd,
               f"vth must be below vdd ({node.vdd} V)")
        for name, widths in (("input_width", iw), ("input_length", il),
                             ("load_width", lw), ("load_length", ll)):
            reject(widths < feature_size,
                   f"{name} below feature size")
        reject(tail <= 0, "tail_current must be positive")
        if np.any(bad):
            # Evaluate rejected elements on benign dummies, then
            # overwrite with NaN -- keeps the vector math warning-free.
            iw, il, lw, ll = (np.where(bad, 1e-6, a)
                              for a in (iw, il, lw, ll))
            tail = np.where(bad, 1e-6, tail)
            tox = np.where(bad, node.tox, tox)

        phi_t = thermal_voltage(node.temperature)
        cox = EPSILON_0 * EPSILON_SIO2 / tox if "tox" in overrides \
            else node.cox
        gm_cap = 1.0 / (node.subthreshold_n * phi_t)
        half_current = tail / 2.0
        beta_in = node.mobility_n * cox * iw / il
        vov_in = np.sqrt(np.maximum(2.0 * half_current / beta_in, 1e-12))
        vov_in = np.maximum(vov_in, 2.0 * node.subthreshold_n * phi_t)
        gm_in = np.minimum(2.0 * half_current / vov_in,
                           gm_cap * half_current)
        beta_load = node.mobility_p * cox * lw / ll
        vov_load = np.sqrt(np.maximum(2.0 * half_current / beta_load,
                                      1e-12))
        vov_load = np.maximum(vov_load, 2.0 * node.subthreshold_n * phi_t)
        gm_load = np.minimum(2.0 * half_current / vov_load,
                             gm_cap * half_current)
        early_per_length = 1.0e7  # V/m
        gds = half_current / (early_per_length * il) \
            + half_current / (early_per_length * ll)

        gain = gm_in / np.maximum(gds, 1e-15)
        gbw = gm_in / (2.0 * math.pi * self.load_capacitance)
        mirror_cap = cox * lw * ll * 2.0
        pole2 = gm_load / (2.0 * math.pi * np.maximum(mirror_cap, 1e-18))
        phase_margin = 90.0 - np.degrees(_libm(math.atan, gbw / pole2))
        slew = tail / self.load_capacitance
        noise_psd = 8.0 * kt_energy(node.temperature) / gm_in
        noise_rms = np.sqrt(noise_psd * math.pi / 2.0 * gbw)
        avt_sq = node.avt ** 2
        sigma_in = np.sqrt(avt_sq / (iw * il) + 0.0)
        sigma_load = np.sqrt(avt_sq / (lw * ll) + 0.0)
        offset = np.sqrt(_libm(pow, sigma_in, 2)
                         + _libm(pow, sigma_load * gm_load / gm_in, 2))
        power = node.vdd * tail * 1.25
        area = 2.0 * (iw * il + lw * ll) * 3.0
        swing = node.vdd - vov_in - 2.0 * vov_load
        gain_db = 20.0 * _libm(math.log10, np.maximum(gain, 1e-12))

        def field_out(values: np.ndarray) -> np.ndarray:
            values = np.broadcast_to(np.asarray(values, float),
                                     shape).copy()
            values[bad] = float("nan")
            return values

        return OtaPerformance(
            gain_db=field_out(gain_db),
            gbw_hz=field_out(gbw),
            phase_margin_deg=field_out(phase_margin),
            slew_rate=field_out(slew),
            input_noise_rms=field_out(noise_rms),
            offset_sigma=field_out(offset),
            power=field_out(power),
            area=field_out(area),
            swing=field_out(np.maximum(swing, 0.0)),
        )


@dataclass
class DetectorFrontendDesign:
    """Sizing of the charge-sensitive amplifier + shaper (Fig. 8)."""

    input_width: float
    input_length: float
    feedback_capacitance: float     # F
    shaper_time_constant: float     # s
    drain_current: float            # A

    def validate(self, node: TechnologyNode) -> None:
        """Sanity-check the free variables."""
        if self.input_width < node.feature_size \
                or self.input_length < node.feature_size:
            raise ModelDomainError("input device below feature size")
        if self.feedback_capacitance <= 0:
            raise ModelDomainError("feedback_capacitance must be positive")
        if self.shaper_time_constant <= 0:
            raise ModelDomainError("shaper_time_constant must be positive")
        if self.drain_current <= 0:
            raise ModelDomainError("drain_current must be positive")


@dataclass(frozen=True)
class FrontendPerformance:
    """Detector front-end figures of merit."""

    charge_gain: float          # V/C at the shaper output
    peaking_time: float         # s
    enc_electrons: float        # equivalent noise charge [e- rms]
    power: float                # W
    area: float                 # m^2


class DetectorFrontend:
    """Evaluation engine for a CSA + CR-RC shaper channel.

    Standard ENC decomposition (series white + parallel shot noise):

        ENC^2 = (C_tot^2 * 4kT*gamma/gm) * A1 / tau
              + (2q*I_leak) * A2 * tau

    with C_tot the detector + input capacitance and tau the shaping
    time; A1, A2 shaper form factors (~0.92 for CR-RC).
    """

    FORM_FACTOR_SERIES = 0.92
    FORM_FACTOR_PARALLEL = 0.92

    def __init__(self, node: TechnologyNode,
                 detector_capacitance: float = 5e-12,
                 detector_leakage: float = 1e-9):
        if detector_capacitance <= 0:
            raise ModelDomainError("detector_capacitance must be positive")
        if detector_leakage < 0:
            raise ModelDomainError("detector_leakage must be non-negative")
        self.node = node
        self.detector_capacitance = detector_capacitance
        self.detector_leakage = detector_leakage

    def evaluate(self, design: DetectorFrontendDesign
                 ) -> FrontendPerformance:
        """Evaluate one front-end sizing."""
        design.validate(self.node)
        node = self.node
        phi_t = thermal_voltage(node.temperature)
        beta = (node.mobility_n * node.cox
                * design.input_width / design.input_length)
        vov = max(math.sqrt(max(2.0 * design.drain_current / beta,
                                1e-12)),
                  2.0 * node.subthreshold_n * phi_t)
        gm = min(2.0 * design.drain_current / vov,
                 design.drain_current / (node.subthreshold_n * phi_t))
        c_gate = node.cox * design.input_width * design.input_length
        c_total = self.detector_capacitance + c_gate \
            + design.feedback_capacitance
        tau = design.shaper_time_constant
        kt = kt_energy(node.temperature)
        series = (c_total ** 2 * 4.0 * kt * (2.0 / 3.0) / gm
                  * self.FORM_FACTOR_SERIES / tau)
        parallel = (2.0 * ELECTRON_CHARGE * self.detector_leakage
                    * self.FORM_FACTOR_PARALLEL * tau)
        enc_coulomb = math.sqrt(series + parallel)
        charge_gain = 1.0 / design.feedback_capacitance * math.exp(-1.0)
        power = node.vdd * design.drain_current * 2.0  # CSA + shaper
        area = (design.input_width * design.input_length * 4.0
                + design.feedback_capacitance / (1e-3))  # 1 fF/um^2 caps
        return FrontendPerformance(
            charge_gain=charge_gain,
            peaking_time=tau,
            enc_electrons=enc_coulomb / ELECTRON_CHARGE,
            power=power,
            area=area,
        )

    def evaluate_batch(self, input_width: ArrayLike,
                       input_length: ArrayLike,
                       feedback_capacitance: ArrayLike,
                       shaper_time_constant: ArrayLike,
                       drain_current: ArrayLike, *,
                       invalid: str = "raise") -> FrontendPerformance:
        """Array-valued twin of :meth:`evaluate`.

        Broadcasts the five design arrays and returns a
        :class:`FrontendPerformance` of same-shape ndarrays,
        bit-for-bit equal to looping :meth:`evaluate` over the
        elements (the ``synthesis.frontend`` tolerance is 0).
        ``invalid="nan"`` NaN-fills elements the scalar path would
        reject instead of raising :class:`ModelDomainError`.
        """
        if invalid not in ("raise", "nan"):
            raise ModelDomainError(
                f"invalid must be 'raise' or 'nan', got {invalid!r}")
        node = self.node
        arrays = [check_finite(name, value) for name, value in (
            ("input_width", input_width), ("input_length", input_length),
            ("feedback_capacitance", feedback_capacitance),
            ("shaper_time_constant", shaper_time_constant),
            ("drain_current", drain_current))]
        iw, il, cfb, tau, current = np.broadcast_arrays(
            *[np.asarray(a, dtype=float) for a in arrays])
        shape = iw.shape

        bad = np.zeros(shape, dtype=bool)

        def reject(mask: np.ndarray, message: str) -> None:
            if not np.any(mask):
                return
            if invalid == "raise":
                raise ModelDomainError(message)
            bad[...] |= mask

        reject((iw < node.feature_size) | (il < node.feature_size),
               "input device below feature size")
        reject(cfb <= 0, "feedback_capacitance must be positive")
        reject(tau <= 0, "shaper_time_constant must be positive")
        reject(current <= 0, "drain_current must be positive")
        if np.any(bad):
            iw, il = (np.where(bad, 1e-6, a) for a in (iw, il))
            cfb = np.where(bad, 1e-12, cfb)
            tau = np.where(bad, 1e-6, tau)
            current = np.where(bad, 1e-6, current)

        phi_t = thermal_voltage(node.temperature)
        beta = node.mobility_n * node.cox * iw / il
        vov = np.maximum(
            np.sqrt(np.maximum(2.0 * current / beta, 1e-12)),
            2.0 * node.subthreshold_n * phi_t)
        gm = np.minimum(2.0 * current / vov,
                        current / (node.subthreshold_n * phi_t))
        c_gate = node.cox * iw * il
        c_total = self.detector_capacitance + c_gate + cfb
        kt = kt_energy(node.temperature)
        c_total_sq = _libm(pow, c_total, 2)
        series = (c_total_sq * 4.0 * kt * (2.0 / 3.0) / gm
                  * self.FORM_FACTOR_SERIES / tau)
        parallel = (2.0 * ELECTRON_CHARGE * self.detector_leakage
                    * self.FORM_FACTOR_PARALLEL * tau)
        enc_coulomb = np.sqrt(series + parallel)
        charge_gain = 1.0 / cfb * math.exp(-1.0)
        power = node.vdd * current * 2.0
        area = iw * il * 4.0 + cfb / (1e-3)

        def field_out(values: np.ndarray) -> np.ndarray:
            values = np.broadcast_to(np.asarray(values, float),
                                     shape).copy()
            values[bad] = float("nan")
            return values

        return FrontendPerformance(
            charge_gain=field_out(charge_gain),
            peaking_time=field_out(tau),
            enc_electrons=field_out(enc_coulomb / ELECTRON_CHARGE),
            power=field_out(power),
            area=field_out(area),
        )
