"""Ablation: corner-based vs statistical timing sign-off.

Section 3.1's worst-case design is pessimistic because intra-die
mismatch averages along paths.  Measured here on two 8-bit adders
(deep ripple-carry vs shallow Kogge-Stone): the corner margin exceeds
the true 3-sigma statistical margin, the pessimism is larger for the
*shallow* design (less averaging), and the 1/sqrt(depth) averaging law
shows up directly on inverter chains.
"""

import pytest

from repro.devices import corner_spread_summary
from repro.digital import (corner_vs_statistical_margin,
                           depth_averaging_study, kogge_stone_adder,
                           ripple_adder)
from repro.technology import get_node

from conftest import print_table


def generate_ablation():
    node = get_node("65nm")
    deep = ripple_adder(node, width=8)
    shallow = kogge_stone_adder(node, width=8)
    rows = []
    for label, netlist in (("ripple (deep)", deep),
                           ("kogge-stone (shallow)", shallow)):
        margins = corner_vs_statistical_margin(netlist,
                                               n_samples=150, seed=0)
        margins["design"] = label
        rows.append(margins)
    averaging = depth_averaging_study(node, depths=(4, 8, 16, 32, 64),
                                      n_samples=150, seed=0)
    return rows, averaging, corner_spread_summary(node)


@pytest.mark.benchmark(group="abl_ssta")
def test_abl_statistical_timing(benchmark):
    rows, averaging, corners = benchmark(generate_ablation)
    print_table("Ablation: corner vs statistical margin (65 nm)",
                rows,
                columns=["design", "nominal_ps", "corner_ps",
                         "statistical_ps", "corner_margin_pct",
                         "statistical_margin_pct", "pessimism_ratio"])
    print_table("Ablation: mismatch averaging vs logic depth",
                averaging)
    print_table("Section 2.4: inter-die process corners (65 nm, "
                "W = 2L NMOS)", corners)

    # Corner sign-off over-margins on both designs.
    for row in rows:
        assert row["pessimism_ratio"] > 1.0
    # Averaging law: relative sigma falls monotonically with depth.
    rel = [row["sigma_over_mean"] for row in averaging]
    assert rel == sorted(rel, reverse=True)
    # ~1/sqrt(N): 16x the depth buys ~4x the tightness.
    ratio = averaging[0]["sigma_over_mean"] \
        / averaging[-1]["sigma_over_mean"]
    assert ratio == pytest.approx(4.0, rel=0.5)
    # The fast corner drives more current than the slow one.
    by_corner = {row["corner"]: row for row in corners}
    assert by_corner["FF"]["ion_uA"] > by_corner["SS"]["ion_uA"]
