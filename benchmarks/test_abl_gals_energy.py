"""Ablation: the architectural escape hatches of section 3.

Two 'solutions' the paper predicts and their price tags:

* GALS partitioning (section 3.3): islands and interface overhead for
  a 10 mm die at 1 GHz across nodes;
* V_DD/V_T co-optimization (section 3.1's trade-off): what the
  minimum-energy operating point saves per node, and how leakage
  erodes that saving as nodes shrink.
"""

import pytest

from repro.digital import (gals_trend, minimum_energy_trend,
                           single_domain_max_frequency)
from repro.technology import all_nodes

from conftest import print_table


def generate_ablation():
    gals = gals_trend(all_nodes(), die_edge=10e-3, frequency=1e9)
    hot = [node.at_temperature(358.0) for node in all_nodes()]
    energy = minimum_energy_trend(hot, relative_delay_limit=3.0)
    crossover = [{
        "node": node.name,
        "single_domain_fmax_MHz":
            single_domain_max_frequency(node, die_edge=10e-3) / 1e6,
    } for node in all_nodes()]
    return gals, energy, crossover


@pytest.mark.benchmark(group="abl_architecture")
def test_abl_gals_and_energy_optimum(benchmark):
    gals, energy, crossover = benchmark(generate_ablation)
    print_table("Ablation: GALS partitioning, 10 mm die @ 1 GHz",
                gals)
    print_table("Ablation: minimum-energy operating point per node "
                "(85 C, stage delay <= 3x nominal)", energy)
    print_table("Section 3.3: highest clock at which a 10 mm die stays "
                "one clock domain", crossover)

    # GALS: island count (and hence design complexity) grows
    # monotonically with scaling.  The interface *area* stays bounded
    # because the FIFO strips scale with the pitch -- the growing
    # taxes are the interface count and the synchronizer latency.
    islands = [row["n_islands"] for row in gals]
    assert islands == sorted(islands)
    assert islands[-1] > 4 * islands[0]
    interfaces = [row["n_interfaces"] for row in gals]
    assert interfaces == sorted(interfaces)
    assert all(0 < row["area_overhead_pct"] < 20.0 for row in gals)
    # The single-domain clock ceiling falls with every node.
    fmax = [row["single_domain_fmax_MHz"] for row in crossover]
    assert fmax == sorted(fmax, reverse=True)

    # Energy optimum: lowering VDD below nominal always saves energy
    # within the delay budget...
    for row in energy:
        assert row["energy_saving"] > 0.0
        assert row["optimal_vdd_V"] > 0.0
    # ...but leakage claims a growing share of the optimum.
    shares = [row["leakage_share_at_optimum"] for row in energy]
    assert shares[-1] > shares[0]
