"""Fig. 4: influence of V_T variations on gate delay across nodes.

An FO4 inverter per node, hit with the paper's 50 mV V_T shift (and,
as a second series, each node's own minimum-device mismatch sigma).
Shape criteria: the relative delay impact grows monotonically as the
overdrive V_DD - V_T shrinks; 50 mV is minor at 350 nm and first-order
at 65 nm and below.
"""

import pytest

from repro.digital import delay_variability_trend
from repro.technology import all_nodes
from repro.variability import relative_variability_trend

from conftest import print_table


def generate_fig4():
    fixed = delay_variability_trend(all_nodes(), delta_vth=0.05)
    own_sigma = delay_variability_trend(all_nodes(),
                                        use_node_sigma=True)
    return fixed, own_sigma, relative_variability_trend(all_nodes())


@pytest.mark.benchmark(group="fig04")
def test_fig04_delay_variability(benchmark):
    fixed, own_sigma, relative = benchmark(generate_fig4)
    print_table("Fig. 4a: delay impact of a fixed 50 mV V_T shift",
                fixed)
    print_table("Fig. 4b: delay impact of each node's own sigma_VT "
                "(minimum device)", own_sigma)
    print_table("Section 2.4: a fixed 15 mV sigma_VT against V_T and "
                "the overdrive", relative)

    sens = [row["sensitivity_per_V"] for row in fixed]
    impact = [row["delay_increase_pct"] for row in fixed]
    assert sens == sorted(sens)
    assert impact == sorted(impact)
    by_node = {row["node"]: row for row in fixed}
    assert by_node["350nm"]["delay_increase_pct"] < 5.0
    assert by_node["65nm"]["delay_increase_pct"] > 5.0
    # With the node's own (growing) sigma the effect compounds.
    own = [row["delay_increase_pct"] for row in own_sigma]
    assert own[-1] > 3.0 * own[0]
    # The same absolute sigma eats a growing share of the overdrive.
    share = [row["sigma_over_overdrive"] for row in relative]
    assert share == sorted(share)
