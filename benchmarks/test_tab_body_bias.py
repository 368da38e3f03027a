"""Tab D: VTCMOS body-bias effectiveness vs node (section 3.2).

0.5 V of reverse body bias per node: the V_T shift it buys and the
standby-leakage reduction that follows, plus the reverse question
(how much V_SB a fixed 10x reduction costs).  Shape criterion: the
shrinking bulk factor makes the technique monotonically less
effective -- the paper's 'one problem with this technique'.
"""

import pytest

from repro.devices import (body_bias_effectiveness,
                           required_vsb_for_reduction)
from repro.digital import body_bias_trend_on_design, ripple_adder
from repro.technology import all_nodes

from conftest import print_table


def generate_tab_d():
    per_device = [{
        "node": r.node_name,
        "body_factor": r.body_factor,
        "delta_vth_mV": r.delta_vth * 1e3,
        "leakage_reduction": r.leakage_reduction,
    } for r in body_bias_effectiveness(all_nodes(), vsb=0.5)]

    required = [{
        "node": node.name,
        "vsb_for_10x_V": required_vsb_for_reduction(node, 10.0),
    } for node in all_nodes()]

    on_design = [{
        "node": row["node"],
        "design_leakage_reduction": row["leakage_reduction"],
    } for row in body_bias_trend_on_design(
        all_nodes(), lambda node: ripple_adder(node, width=8), vsb=0.5)]
    return per_device, required, on_design


@pytest.mark.benchmark(group="tab_d")
def test_tab_body_bias(benchmark):
    per_device, required, on_design = benchmark(generate_tab_d)
    print_table("Tab D: VTCMOS at 0.5 V reverse bias, per device",
                per_device)
    print_table("Tab D': reverse bias needed for a 10x leakage cut",
                required)
    print_table("Tab D'': same 0.5 V bias applied to an 8-bit adder",
                on_design)

    # dVT/dVBS shrinks monotonically with the node.
    deltas = [row["delta_vth_mV"] for row in per_device]
    assert deltas == sorted(deltas, reverse=True)
    # So does the achieved leakage reduction.
    reductions = [row["leakage_reduction"] for row in per_device]
    assert reductions == sorted(reductions, reverse=True)
    assert reductions[0] > 10.0 * reductions[-1]
    # And the bias needed for a fixed cut diverges.
    vsbs = [row["vsb_for_10x_V"] for row in required]
    assert vsbs == sorted(vsbs)
    assert vsbs[-1] > 3.0 * vsbs[0]
    # Whole-design numbers (which include the V_T-independent gate-
    # tunnelling floor) collapse even harder; the trend is monotone
    # until gate leakage sets a floor of its own near 65 nm.
    design_reductions = [row["design_leakage_reduction"]
                         for row in on_design]
    assert design_reductions[0] > 100.0 * min(design_reductions)
    assert min(design_reductions) == design_reductions[6]  # 65 nm
