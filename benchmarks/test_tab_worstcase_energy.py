"""Tab C: the worst-case-sizing energy penalty (section 3.1).

Per node, a stage is sized once for the nominal V_T and once for the
3-sigma worst case (using the node's own minimum-device sigma); the
dynamic-energy overhead of the worst-case sizing is the penalty every
die pays.  Shape criterion: the penalty grows monotonically toward
the nanometre nodes -- "the effect of worst-case oversized design on
the energy consumption will be significant".
"""

import pytest

from repro.devices import worst_case_vth
from repro.digital import energy_delay_product, worst_case_energy_trend
from repro.technology import all_nodes

from conftest import print_table


def generate_tab_c():
    three_sigma = worst_case_energy_trend(all_nodes(), n_sigma=3.0)
    four_sigma = worst_case_energy_trend(all_nodes(), n_sigma=4.0)
    slow_corner = [{
        "node": node.name,
        "vth_V": node.vth,
        "worst_case_vth_V": worst_case_vth(node),
    } for node in all_nodes()]
    return three_sigma, four_sigma, slow_corner


@pytest.mark.benchmark(group="tab_c")
def test_tab_worstcase_energy(benchmark):
    three_sigma, four_sigma, slow_corner = benchmark(generate_tab_c)
    print_table("Tab C: worst-case sizing penalty (3 sigma)",
                three_sigma)
    print_table("Tab C': worst-case sizing penalty (4 sigma)",
                four_sigma)
    print_table("Section 3.1: slow-corner V_T that worst-case design "
                "assumes (3 sigma inter-die)", slow_corner)
    edp = [{"node": node.name, **energy_delay_product(node)}
           for node in all_nodes()]
    print_table("Section 3: FO4 energy, delay and their product at "
                "nominal V_DD", edp)

    penalties = [row["energy_penalty_pct"] for row in three_sigma]
    # Grows toward nanometre nodes.
    assert penalties[-1] > penalties[0]
    assert penalties[-1] > 5.0
    # The variability driver grows monotonically.
    pressure = [row["sigma_over_overdrive"] for row in three_sigma]
    assert pressure == sorted(pressure)
    # Guard-banding harder costs more.
    for r3, r4 in zip(three_sigma, four_sigma):
        assert r4["energy_penalty_pct"] >= r3["energy_penalty_pct"]
    # Scaling still buys energy-delay product at nominal supply.
    products = [row["edp_Js"] for row in edp]
    assert products == sorted(products, reverse=True)
