"""Fig. 4: influence of V_T variations on gate delay across nodes.

An FO4 inverter per node, hit with the paper's 50 mV V_T shift (and,
as a second series, each node's own minimum-device mismatch sigma).
Shape criteria: the relative delay impact grows monotonically as the
overdrive V_DD - V_T shrinks; 50 mV is minor at 350 nm and first-order
at 65 nm and below.
"""

import numpy as np
import pytest

from repro.digital import (StaticTimingAnalyzer, delay_under_mismatch,
                           delay_variability_trend, fo4_delay_model,
                           ripple_adder)
from repro.technology import all_nodes
from repro.variability import relative_variability_trend

from conftest import print_table


def generate_fig4():
    fixed = delay_variability_trend(all_nodes(), delta_vth=0.05)
    own_sigma = delay_variability_trend(all_nodes(),
                                        use_node_sigma=True)
    return fixed, own_sigma, relative_variability_trend(all_nodes())


def spread_trend():
    """FO4 delay under each node's own minimum-device sigma_VT: the
    3-sigma corners and the linearized sigma against Monte Carlo."""
    rows = []
    for node in all_nodes():
        model = fo4_delay_model(node)
        sigma = node.sigma_vt_min_device
        spread = model.delay_spread(sigma)
        mc = model.monte_carlo_delays(sigma, n_samples=2000, seed=0)
        rows.append({"node": node.name,
                     "slow_over_nominal": spread["worst_over_nominal"],
                     "spread_pct": spread["spread_rel"] * 100.0,
                     "linear_sigma_pct": spread["sigma_delay_rel"] * 100.0,
                     "mc_sigma_pct": mc.std() / model.delay() * 100.0})
    return rows


def mismatch_trend():
    """Per-gate minimum-device mismatch on an 8-bit ripple adder: the
    max over paths runs slower than the nominal critical path."""
    rows = []
    for node in all_nodes():
        adder = ripple_adder(node, width=8)
        nominal = StaticTimingAnalyzer(adder).analyze().critical_delay
        mean = float(np.mean(delay_under_mismatch(
            adder, node.sigma_vt_min_device, n_samples=200, seed=0)))
        rows.append({"node": node.name,
                     "sigma_vth_mV": node.sigma_vt_min_device * 1e3,
                     "nominal_ps": nominal * 1e12,
                     "mc_mean_ps": mean * 1e12,
                     "slowdown_pct": (mean / nominal - 1.0) * 100.0})
    return rows


@pytest.mark.benchmark(group="fig04")
def test_fig04_delay_variability(benchmark):
    fixed, own_sigma, relative = benchmark(generate_fig4)
    print_table("Fig. 4a: delay impact of a fixed 50 mV V_T shift",
                fixed)
    print_table("Fig. 4b: delay impact of each node's own sigma_VT "
                "(minimum device)", own_sigma)
    print_table("Section 2.4: a fixed 15 mV sigma_VT against V_T and "
                "the overdrive", relative)
    spread = spread_trend()
    print_table("Fig. 4 (section 2.4): FO4 delay spread under each "
                "node's own sigma_VT, 3-sigma corners and Monte Carlo",
                spread)
    mismatch = mismatch_trend()
    print_table("Fig. 4 (section 2.4): per-gate mismatch on an 8-bit "
                "ripple adder's critical delay", mismatch)

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
    # The linearized sigma tracks Monte Carlo, and both grow.
    for row in spread:
        assert row["mc_sigma_pct"] == pytest.approx(
            row["linear_sigma_pct"], rel=0.05)
    mc_sigma = [row["mc_sigma_pct"] for row in spread]
    assert mc_sigma == sorted(mc_sigma)
    # Intra-die mismatch slows the max over paths, more so when scaled.
    slowdown = [row["slowdown_pct"] for row in mismatch]
    assert all(value > 0.0 for value in slowdown)
    assert slowdown[-1] > 5.0 * slowdown[0]
