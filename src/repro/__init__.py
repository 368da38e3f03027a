"""repro: analog and digital circuit design in nanometre CMOS.

A reproduction of the analysis infrastructure behind Gielen & Dehaene
et al., "Analog and digital circuit design in 65 nm CMOS: end of the
road?" (DATE 2005): CMOS scaling laws, leakage and variability device
models, digital energy/delay/timing analysis, interconnect and clock
distribution, SRAM stability, analog speed-accuracy-power trade-offs,
AMGIE/LAYLA-style analog synthesis, and the SWAN substrate-noise
methodology.

Quick start::

    from repro.technology import get_node
    from repro.devices import Mosfet

    node = get_node("65nm")
    device = Mosfet(node, width=2 * node.feature_size)
    print(device.off_current())   # eq. 1 in action

See the ``examples/`` directory for complete scenarios and
``benchmarks/`` for the scripts regenerating every figure of the
paper.
"""

__version__ = "1.0.0"
