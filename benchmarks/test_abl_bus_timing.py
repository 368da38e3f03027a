"""Ablation: crosstalk as a delay problem on parallel busses.

Section 2.3's coupling capacitance makes bus delay data-dependent
(Miller factors 0/1/2 per neighbour).  Measures the worst/best spread
per node and what the two standard fixes cost: shielding (2x tracks)
vs crosstalk-avoidance coding (~1.3x bits).
"""

import pytest

from repro.interconnect import (crosstalk_delay_trend,
                                inductance_relevance_trend,
                                shielding_cost)
from repro.signal_integrity import (crosstalk_trend,
                                    simultaneous_switching_noise)
from repro.technology import all_nodes, get_node

from conftest import print_table


def generate_ablation():
    trend = crosstalk_delay_trend(all_nodes(), length=1e-3)
    costs = [dict(node=name, **shielding_cost(get_node(name)))
             for name in ("180nm", "65nm", "32nm")]
    bounce = [dict(node=node.name,
                   **simultaneous_switching_noise(node, n_drivers=64))
              for node in all_nodes()]
    return (trend, costs, crosstalk_trend(all_nodes(), length=1e-3),
            inductance_relevance_trend(all_nodes()), bounce)


@pytest.mark.benchmark(group="abl_bus")
def test_abl_bus_timing(benchmark):
    trend, costs, capacitive, inductive, bounce = \
        benchmark(generate_ablation)
    print_table("Ablation: data-dependent bus delay spread per node",
                trend)
    print_table("Ablation: shielding vs coding on a 32-bit, 1 mm bus",
                costs,
                columns=["node", "plain_worst_ps", "shielded_worst_ps",
                         "coded_worst_ps", "shielded_tracks",
                         "coded_tracks"])
    print_table("Section 4.3: capacitive crosstalk ratio at minimum "
                "pitch (1 mm, M1)", capacitive)
    print_table("Section 4.3: when inductance matters on a 3 mm "
                "top-metal wire", inductive)
    print_table("Section 4.3: supply bounce of 64 output drivers "
                "switching together", bounce)

    # The coupling share and the spread grow with scaling.
    lambdas = [row["lambda"] for row in trend]
    spreads = [row["worst_over_best"] for row in trend]
    assert lambdas == sorted(lambdas)
    assert spreads[-1] > spreads[0] > 2.0
    # Worst-case pushout vs quiet neighbours exceeds 50 % at 65 nm.
    by_node = {row["node"]: row for row in trend}
    assert by_node["65nm"]["worst_over_nominal"] > 1.5
    # Shields buy the most speed; coding is the cheaper middle ground.
    for row in costs:
        assert row["shielded_worst_ps"] < row["coded_worst_ps"] \
            < row["plain_worst_ps"]
        assert row["shielded_tracks"] > row["coded_tracks"]
    # Section 4.3's other channels: crosstalk stays a fraction of the
    # swing, and faster drivers ring more on the top-metal wire.
    assert all(0 < row["crosstalk_ratio"] < 1 for row in capacitive)
    assert inductive[-1]["overshoot_pct"] > inductive[0]["overshoot_pct"]
    assert all(row["bounce_V"] > 0 for row in bounce)
