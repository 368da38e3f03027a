"""Physical constants used throughout the library.

All internal computations use SI units (metres, volts, amperes, seconds,
farads, joules).
"""

from __future__ import annotations

from ..robust.errors import ModelDomainError

__all__ = [
    "BOLTZMANN", "ELECTRON_CHARGE", "EPSILON_0", "EPSILON_SIO2",
    "EPSILON_SI", "N_INTRINSIC_SI", "ROOM_TEMPERATURE", "RHO_COPPER",
    "RHO_ALUMINIUM",
    "thermal_voltage", "kt_energy",
]

# --- fundamental constants (CODATA values, SI units) ---------------------

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Elementary charge [C].
ELECTRON_CHARGE = 1.602176634e-19

#: Vacuum permittivity [F/m].
EPSILON_0 = 8.8541878128e-12

#: Relative permittivity of SiO2.
EPSILON_SIO2 = 3.9

#: Relative permittivity of silicon.
EPSILON_SI = 11.7

#: Intrinsic carrier concentration of silicon at 300 K [1/m^3].
N_INTRINSIC_SI = 1.45e16

#: Default junction / operating temperature [K].
ROOM_TEMPERATURE = 300.0

#: Resistivity of copper [ohm*m].
RHO_COPPER = 1.68e-8

#: Resistivity of aluminium [ohm*m].
RHO_ALUMINIUM = 2.65e-8


def thermal_voltage(temperature: float = ROOM_TEMPERATURE) -> float:
    """Return the thermal voltage kT/q [V] at ``temperature`` [K].

    At 300 K this is approximately 25.85 mV.
    """
    if temperature <= 0:
        raise ModelDomainError(f"temperature must be positive, got {temperature}")
    return BOLTZMANN * temperature / ELECTRON_CHARGE


def kt_energy(temperature: float = ROOM_TEMPERATURE) -> float:
    """Return the thermal energy kT [J] at ``temperature`` [K]."""
    if temperature <= 0:
        raise ModelDomainError(f"temperature must be positive, got {temperature}")
    return BOLTZMANN * temperature
