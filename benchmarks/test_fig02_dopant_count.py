"""Fig. 2: number of dopant atoms vs channel length.

Shape criteria: count falls ~quadratically with L (W tracking L),
drops into the countable regime (< a few hundred) below ~32 nm, and
the relative sqrt(N)/N uncertainty explodes at short L.
"""

import numpy as np
import pytest

from repro.technology import all_nodes, get_node
from repro.variability import (channel_dopant_count,
                               current_spread_from_ler,
                               dopant_count_vs_length, relative_ler_trend,
                               vth_sigma_from_rdf)

from conftest import print_table


def generate_fig2():
    node = get_node("65nm")
    lengths = np.geomspace(20e-9, 1000e-9, 15)
    return (dopant_count_vs_length(node, lengths.tolist()),
            relative_ler_trend(all_nodes()))


def rdf_sigma_trend():
    """sigma_VT of a W = 2L minimum device from its dopant count alone,
    next to the node's full Pelgrom sigma_VT."""
    return [{"node": node.name,
             "dopant_count": channel_dopant_count(
                 node, 2.0 * node.feature_size, node.feature_size),
             "rdf_sigma_vth_mV": vth_sigma_from_rdf(node) * 1e3,
             "pelgrom_sigma_vth_mV":
                 node.sigma_vt(2.0 * node.feature_size) * 1e3}
            for node in all_nodes()]


@pytest.mark.benchmark(group="fig02")
def test_fig02_dopant_count(benchmark):
    rows, ler = benchmark(generate_fig2)
    print_table("Fig. 2: dopant atoms vs channel length", rows)
    print_table("Section 2.4: line-edge roughness relative to gate "
                "length", ler)
    rdf = rdf_sigma_trend()
    print_table("Fig. 2 (section 2.4): sigma_VT from random dopant "
                "fluctuation", rdf)
    spread = [{"node": node.name,
               **current_spread_from_ler(node, seed=0)}
              for node in all_nodes()]
    print_table("Section 2.4: drive-current spread from the same "
                "line-edge roughness", spread)

    counts = [row["dopant_count"] for row in rows]
    lengths = [row["length_nm"] for row in rows]
    # Monotone increasing with L.
    assert counts == sorted(counts)
    # ~quadratic: log-log slope close to 2.
    slope = np.polyfit(np.log(lengths), np.log(counts), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.15)
    # Countable-dopant regime at the short end.
    assert counts[0] < 500
    # Relative uncertainty grows as L shrinks.
    rel = [row["relative_sigma"] for row in rows]
    assert rel == sorted(rel, reverse=True)
    # The same absolute roughness weighs more on shorter gates.
    ler_rel = [row["relative_sigma"] for row in ler]
    assert ler_rel == sorted(ler_rel)
    # Fewer dopants, larger V_T spread: RDF grows to a large share of
    # the total mismatch.
    rdf_sigma = [row["rdf_sigma_vth_mV"] for row in rdf]
    assert rdf_sigma == sorted(rdf_sigma)
    share = [row["rdf_sigma_vth_mV"] / row["pelgrom_sigma_vth_mV"]
             for row in rdf]
    assert share[-1] > share[0]
    # ...and so does the drive-current spread it causes.
    sigma_current = [row["sigma_current_rel"] for row in spread]
    assert sigma_current == sorted(sigma_current)
