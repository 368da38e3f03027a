"""Built-in library of CMOS technology nodes, 350 nm through 32 nm.

The numbers follow the ITRS-2003 trend lines the paper references
([1] in the paper): V_DD and t_ox scale sub-linearly below 130 nm, V_T
scaling slows to preserve leakage, DIBL and the subthreshold ideality
worsen, the body factor shrinks (limiting VTCMOS, section 3.2), and the
Pelgrom A_VT coefficient improves roughly with t_ox.

These are trend-faithful synthetic values, not foundry data -- see
DESIGN.md ("Substitutions").  Every figure in the paper depends on the
*ratios* between nodes, which these tables preserve.
"""

from __future__ import annotations

from typing import Dict, List

from ..perf.cache import memoized
from ..robust.errors import RoadmapDataError
from .node import TechnologyNode

# Each tuple: (feature nm, VDD V, VT V, tox nm, M1 pitch nm, N_A 1/m^3,
#              n, DIBL V/V, body factor, AVT mV*um, alpha, metal layers,
#              dielectric k, I0 A/m, mobility_n m^2/Vs)
_NODE_TABLE = [
    ("350nm", 350, 3.30, 0.60, 7.6, 880, 4.0e23, 1.35, 0.010, 0.50, 9.0, 2.0, 4, 3.9, 5.0e-3, 0.05),
    ("250nm", 250, 2.50, 0.50, 5.6, 640, 7.0e23, 1.36, 0.015, 0.45, 7.0, 1.9, 5, 3.9, 1.5e-2, 0.048),
    ("180nm", 180, 1.80, 0.45, 4.1, 460, 1.2e24, 1.38, 0.022, 0.40, 5.5, 1.8, 6, 3.7, 4.0e-2, 0.045),
    ("130nm", 130, 1.30, 0.35, 2.7, 340, 2.0e24, 1.40, 0.035, 0.33, 4.0, 1.55, 7, 3.5, 1.2e-1, 0.04),
    ("100nm", 100, 1.20, 0.30, 2.2, 280, 3.0e24, 1.42, 0.050, 0.28, 3.2, 1.5, 8, 3.2, 3.0e-1, 0.035),
    ("90nm",   90, 1.10, 0.28, 2.0, 240, 3.5e24, 1.43, 0.060, 0.26, 2.9, 1.45, 8, 3.1, 4.5e-1, 0.033),
    ("65nm",   65, 1.00, 0.22, 1.6, 180, 5.0e24, 1.45, 0.080, 0.22, 2.4, 1.40, 9, 2.9, 1.0e+0, 0.028),
    ("45nm",   45, 0.90, 0.18, 1.2, 130, 8.0e24, 1.48, 0.110, 0.18, 1.9, 1.30, 10, 2.7, 2.2e+0, 0.024),
    ("32nm",   32, 0.80, 0.15, 1.0, 100, 1.2e25, 1.52, 0.150, 0.15, 1.6, 1.25, 11, 2.5, 4.0e+0, 0.02),
]

# Gate-leakage fit factors (eq. 2): tunnelling turns on sharply below
# t_ox ~ 3 nm.  K is per unit gate area; alpha controls the exponential
# thickness dependence and is calibrated so the current density is
# negligible (< 1 A/m^2) at 130 nm and ~1e6 A/m^2 at the 65 nm node --
# where gate leakage becomes a first-order share of static power.
# Below 65 nm the effective alpha *rises*: nitrided oxides (45 nm) and
# high-k stacks (32 nm) raise the tunnelling barrier, exactly the
# section-2.2 mitigation the paper describes.  Above 100 nm the alpha
# also rises: thick oxides leak by Fowler-Nordheim rather than direct
# tunnelling, which the single-exponential eq. 2 fit can only absorb
# through a per-node coefficient -- there, gate leakage is truly zero.
_GATE_LEAK_K = 1.8e9         # A/V^2 per m^2 of gate, before exponential
_GATE_LEAK_ALPHA = {         # V/m, per node
    "default": 3.0e10,       # direct tunnelling, 100-65 nm
    "350nm": 6.5e10,         # Fowler-Nordheim regime
    "250nm": 6.0e10,
    "180nm": 5.0e10,
    "130nm": 4.0e10,
    "45nm": 3.6e10,          # SiON
    "32nm": 3.8e10,          # high-k (HfO2-class)
}


def _build(entry: tuple) -> TechnologyNode:
    (name, feat, vdd, vth, tox, pitch, doping, n_factor, dibl, body,
     avt_mvum, alpha, metals, k_ild, i0, mobility_n) = entry
    return TechnologyNode(
        name=name,
        feature_size=feat * 1e-9,
        vdd=vdd,
        vth=vth,
        tox=tox * 1e-9,
        wire_pitch=pitch * 1e-9,
        channel_doping=doping,
        subthreshold_n=n_factor,
        dibl=dibl,
        body_factor=body,
        avt=avt_mvum * 1e-3 * 1e-6,   # mV*um -> V*m
        abeta=0.01 * 1e-6,            # 1 %*um for every node
        alpha_power=alpha,
        gate_leak_k=_GATE_LEAK_K,
        gate_leak_alpha=_GATE_LEAK_ALPHA.get(name,
                                             _GATE_LEAK_ALPHA["default"]),
        i0_per_width=i0,
        mobility_n=mobility_n,
        mobility_p=0.4 * mobility_n,
        metal_layers=metals,
        dielectric_k=k_ild,
        conductor_resistivity=2.65e-8 if feat >= 250 else 1.68e-8,
    )


_LIBRARY: Dict[str, TechnologyNode] = {
    entry[0]: _build(entry) for entry in _NODE_TABLE
}


@memoized("technology.get_node")
def get_node(name: str) -> TechnologyNode:
    """Look up a built-in node by name (e.g. ``"65nm"``).

    Accepts ``"65nm"``, ``"65"`` and ``65`` interchangeably.  Lookups
    run through a registered :func:`~repro.perf.cache.memoized` cache
    so sweep code shares one frozen instance per spelling and the
    cache registry exposes the lookup traffic.
    """
    key = str(name)
    if not key.endswith("nm"):
        key = f"{key}nm"
    try:
        return _LIBRARY[key]
    except KeyError:
        raise RoadmapDataError(
            f"unknown technology node {name!r}; "
            f"available: {', '.join(_LIBRARY)}") from None


def all_nodes() -> List[TechnologyNode]:
    """Return every built-in node, largest feature size first."""
    return list(_LIBRARY.values())
