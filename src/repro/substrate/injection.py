"""Standard-cell substrate-injection macromodels (the SWAN library).

SWAN "a-priori characteriz[es] every cell in a digital standard cell
library with a macromodel that includes the current injected in the
substrate due to an input transition" (section 4.3).  Two models per
cell are provided:

* a **detailed** waveform -- the stand-in for the transistor-level
  characterization run (and, summed over a whole design, for the
  paper's *measurement*): an asymmetric double-exponential with
  supply-bounce ringing;
* the **macromodel** -- SWAN's compact triangular pulse matched in
  *charge* and *peak current* to the detailed waveform.

The difference between the two propagated waveforms is precisely the
methodology error the Fig. 10 experiment quantifies (RMS <= 20 %,
peak-to-peak <= 4 %).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..perf.cache import memoized
from ..technology.node import TechnologyNode
from ..digital.gates import CELL_TYPES, make_cell


#: Fraction of a cell's switched charge that couples into the substrate
#: (junction displacement + supply bounce through substrate ties).
INJECTION_FRACTION = 0.08


@dataclass(frozen=True)
class InjectionMacromodel:
    """Characterized injection behaviour of one library cell.

    Parameters
    ----------
    cell_name:
        Library cell this model describes.
    charge:
        Total injected charge per output transition [C].
    duration:
        Injection pulse width [s].
    peak_current:
        Peak injected current [A].
    ringing_frequency / damping:
        Parameters of the detailed waveform's supply-bounce ringing.
    """

    cell_name: str
    charge: float
    duration: float
    peak_current: float
    ringing_frequency: float
    damping: float

    def macromodel_waveform(self, t: np.ndarray) -> np.ndarray:
        """SWAN triangular pulse [A] on time axis ``t`` [s] (event at 0).

        Triangle with the characterized peak current; its base is set
        by charge conservation (area = charge).
        """
        base = 2.0 * self.charge / self.peak_current
        rise = base / 3.0
        fall = base - rise
        wave = np.zeros_like(t)
        rising = (t >= 0) & (t < rise)
        falling = (t >= rise) & (t < base)
        wave[rising] = self.peak_current * t[rising] / rise
        wave[falling] = self.peak_current * (base - t[falling]) / fall
        return wave

    def detailed_waveform(self, t: np.ndarray,
                          rng: Optional[np.random.Generator] = None
                          ) -> np.ndarray:
        """'Transistor-level' pulse [A]: double-exponential + ringing.

        With ``rng`` given, pulse parameters jitter a few percent per
        event, as real per-instance waveforms do.
        """
        tau_rise = self.duration * 0.15
        tau_fall = self.duration * 0.45
        jitter = 1.0
        if rng is not None:
            jitter = 1.0 + 0.05 * float(rng.standard_normal())
        # Normalize the double exponential to the characterized charge.
        norm_area = tau_fall - tau_rise * tau_fall / (tau_rise + tau_fall)
        amplitude = self.charge * jitter / norm_area
        pulse = np.where(
            t >= 0,
            amplitude * (np.exp(-t / tau_fall)
                         - np.exp(-t / tau_rise)),
            0.0)
        # Supply-bounce ringing rides on the pulse (zero net charge).
        omega = 2.0 * math.pi * self.ringing_frequency
        ringing = np.where(
            t >= 0,
            0.3 * amplitude * np.exp(-self.damping * t)
            * np.sin(omega * t),
            0.0)
        return pulse + ringing


@memoized("injection.characterize_cell")
def characterize_cell(node: TechnologyNode, cell_name: str,
                      drive: float = 1.0,
                      injection_fraction: float = INJECTION_FRACTION
                      ) -> InjectionMacromodel:
    """A-priori characterization of one library cell in ``node``.

    The injected charge is a fixed fraction of the cell's switched
    charge (C_switched * V_DD), scaled by the cell's internal-node
    count; the pulse width tracks the cell delay.

    Results are memoized per ``(node, cell, drive, fraction)`` -- the
    characterization is deterministic and nodes are frozen, so sweeps
    that re-instantiate simulators (every
    :class:`~repro.substrate.swan.SwanSimulator`) reuse the library
    instead of re-deriving it.  The returned macromodel is immutable.
    """
    cell = make_cell(cell_name, node, drive)
    load = 4.0 * cell.input_capacitance
    switched_charge = (load + cell.output_parasitic) * node.vdd
    internal_factor = 1.0 + 0.15 * (cell.cell_type.internal_nodes - 1)
    charge = injection_fraction * switched_charge * internal_factor
    duration = max(cell.delay(load) * 2.0, 1e-12)
    provisional = InjectionMacromodel(
        cell_name=cell_name,
        charge=charge,
        duration=duration,
        peak_current=2.0 * charge / duration,
        ringing_frequency=min(2.0 / duration, 5e9),
        damping=3.0 / duration,
    )
    # SWAN matches the macromodel's peak to the characterization run:
    # evaluate the detailed (jitter-free) waveform and take its peak.
    probe_t = np.linspace(0.0, 4.0 * duration, 512)
    detailed_peak = float(provisional.detailed_waveform(probe_t).max())
    return InjectionMacromodel(
        cell_name=cell_name,
        charge=charge,
        duration=duration,
        peak_current=max(detailed_peak, 1e-15),
        ringing_frequency=provisional.ringing_frequency,
        damping=provisional.damping,
    )


def characterize_library(node: TechnologyNode,
                         injection_fraction: float = INJECTION_FRACTION
                         ) -> Dict[str, InjectionMacromodel]:
    """Characterize every cell in the library for ``node``.

    Each cell comes from the :func:`characterize_cell` memo cache; the
    returned dict itself is fresh per call, so callers may extend it
    without polluting the cache.
    """
    return {name: characterize_cell(node, name,
                                    injection_fraction=injection_fraction)
            for name in CELL_TYPES}
