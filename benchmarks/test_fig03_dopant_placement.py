"""Fig. 3: random source/drain dopant placement -> L_eff uncertainty.

Monte Carlo over 500 devices at 65 nm: the random placement of S/D
dopants encroaching into the channel spreads the effective channel
length.  Shape criteria: mean L_eff below the drawn L, a non-trivial
sigma, and a *relatively* larger spread at smaller nodes.
"""

import pytest

from repro.memory import read_access_with_offset
from repro.technology import all_nodes, get_node
from repro.variability import DopantPlacementModel

from conftest import print_table

N_DEVICES = 500


def generate_fig3():
    results = []
    for name in ("130nm", "65nm", "32nm"):
        node = get_node(name)
        model = DopantPlacementModel(node, seed=42)
        stats = model.effective_length_statistics(N_DEVICES)
        stats["node"] = name
        results.append(stats)
    read_access = [dict(node=node.name, **read_access_with_offset(node))
                   for node in all_nodes()]
    return results, read_access


@pytest.mark.benchmark(group="fig03")
def test_fig03_dopant_placement(benchmark):
    rows, read_access = benchmark(generate_fig3)
    print_table(
        "Fig. 3: MC source/drain dopant placement -> L_eff statistics",
        rows,
        columns=["node", "nominal_length_nm", "mean_leff_nm",
                 "sigma_leff_nm", "relative_sigma"])
    print_table("Section 2.4: SRAM read access with a 5-sigma "
                "sense-amp offset swing", read_access)

    for row in rows:
        # Encroachment always shortens the channel.
        assert row["mean_leff_nm"] < row["nominal_length_nm"]
        assert row["sigma_leff_nm"] > 0
    # The same physics matters relatively more at small nodes.
    rel = [row["relative_sigma"] for row in rows]
    assert rel == sorted(rel)
    assert rel[-1] > 2.0 * rel[0]
    # The offset-driven bitline swing grows relative to V_DD.
    swings = [row["required_swing_mV"] / node.vdd
              for row, node in zip(read_access, all_nodes())]
    assert swings == sorted(swings)
