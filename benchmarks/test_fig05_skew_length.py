"""Fig. 5: max interconnect length for 20 % clock skew vs frequency.

Typical M1/M2 wire in the 100 nm node.  Shape criteria: ~2 mm at
1 GHz (the paper's quoted anchor), falling with frequency, and
shrinking further with technology (the GALS argument).
"""

import numpy as np
import pytest

from repro.interconnect import (delay_trend, h_tree_report,
                                power_fraction_trend, skew_length_sweep,
                                synchronous_region_trend)
from repro.technology import all_nodes, get_node

from conftest import print_table


def generate_fig5():
    node = get_node("100nm")
    frequencies = np.geomspace(0.1e9, 10e9, 13)
    sweep = skew_length_sweep(node, frequencies.tolist(),
                              skew_fraction=0.2)
    trend = synchronous_region_trend(all_nodes(), frequency=1e9)
    h_trees = []
    for imbalance in (0.0, 0.1, 0.2):
        report = h_tree_report(node, span=2e-3, levels=4,
                               load_imbalance=imbalance)
        h_trees.append({
            "load_imbalance": imbalance,
            "n_leaves": report.n_leaves,
            "nominal_delay_ps": report.nominal_delay * 1e12,
            "skew_ps": report.skew * 1e12,
            "skew_pct_of_1GHz": report.skew_fraction_of(1e9) * 100.0,
        })
    return (sweep, trend, h_trees, delay_trend(all_nodes()),
            power_fraction_trend(all_nodes()))


@pytest.mark.benchmark(group="fig05")
def test_fig05_skew_length(benchmark):
    sweep, trend, h_trees, delays, energy = benchmark(generate_fig5)
    print_table("Fig. 5: max wire length for 20% skew vs f_clk "
                "(100 nm, M1/M2)", sweep)
    print_table("Fig. 5b: synchronous-region edge at 1 GHz per node",
                trend)
    print_table("Section 3.3: H-tree skew over a 2 mm span (100 nm) vs "
                "leaf-load imbalance", h_trees)
    print_table("Section 2.3: gate vs local (2000 pitches) vs global "
                "(10 mm) wire delay", delays)
    print_table("Section 2.3: interconnect share of switching energy",
                energy)

    by_freq = {round(row["frequency_GHz"], 2): row for row in sweep}
    # The paper's anchor: ~2 mm at 1 GHz.
    one_ghz = min(sweep, key=lambda r: abs(r["frequency_GHz"] - 1.0))
    assert one_ghz["max_length_mm"] == pytest.approx(2.0, rel=0.4)
    # Monotone decreasing with frequency.
    lengths = [row["max_length_mm"] for row in sweep]
    assert lengths == sorted(lengths, reverse=True)
    # Repeated wires reach further at high f (linear vs sqrt scaling)
    # but both shrink.
    repeated = [row["max_length_repeated_mm"] for row in sweep]
    assert repeated == sorted(repeated, reverse=True)
    # Synchronous region shrinks with scaling.
    regions = [row["max_length_mm"] for row in trend]
    assert regions == sorted(regions, reverse=True)
    # A balanced H-tree has no skew; load imbalance creates it.
    assert h_trees[0]["skew_ps"] == pytest.approx(0.0, abs=1e-3)
    assert h_trees[-1]["skew_ps"] > h_trees[1]["skew_ps"] > 0.0
    # Section 2.3: wires gain on gates in delay and in energy share.
    assert delays[-1]["local_over_gate"] > delays[0]["local_over_gate"]
    assert energy[-1]["wire_fraction"] > energy[0]["wire_fraction"]
