"""Tab A: the full-scaling consequences table (paper section 1).

Regenerates the classic textbook numbers the introduction quotes:
density S^2, intrinsic delay 1/S, power per gate 1/S^2 at constant
power density -- and contrasts them with constant-voltage scaling and
the roadmap's *actual* (general) scaling between library nodes.
"""

import pytest

from repro.core import ScalingScenario, scale, scaling_table
from repro.core.scaling import (effective_scenario, node_scale_factor,
                                noise_margin_trend, voltage_scale_factor)
from repro.technology import all_nodes, get_node

from conftest import print_table


def generate_tab_a():
    full = scaling_table([1.0, 1.4, 2.0, 2.8, 4.0],
                         ScalingScenario.FULL)
    cv = scaling_table([1.0, 1.4, 2.0],
                       ScalingScenario.CONSTANT_VOLTAGE)
    nodes = all_nodes()
    actual = []
    for older, newer in zip(nodes, nodes[1:]):
        s = node_scale_factor(older, newer)
        u = voltage_scale_factor(older, newer)
        consequences = scale(s, ScalingScenario.GENERAL, u=u)
        actual.append({
            "transition": f"{older.name}->{newer.name}",
            "s": s,
            "u": u,
            "scenario": effective_scenario(older, newer).value,
            "density": consequences.density,
            "gate_delay": consequences.gate_delay,
            "power_density": consequences.power_density,
        })
    return full, cv, actual, noise_margin_trend(nodes)


def scaled_nodes():
    """The 65 nm node's own parameters under ideal full and
    constant-voltage scaling."""
    rows = []
    for full_scaling in (True, False):
        for s in (1.4, 2.0):
            node = get_node("65nm").scaled(s, full_scaling=full_scaling)
            rows.append({"scenario": "full" if full_scaling
                         else "constant-voltage",
                         "s": s,
                         "feature_size_nm": node.feature_size * 1e9,
                         "vdd_V": node.vdd, "vth_V": node.vth,
                         "tox_nm": node.tox * 1e9,
                         "doping_per_cm3": node.channel_doping * 1e-6})
    return rows


@pytest.mark.benchmark(group="tab_a")
def test_tab_scaling_laws(benchmark):
    full, cv, actual, margins = benchmark(generate_tab_a)
    print_table("Tab A: full (Dennard) scaling consequences", full)
    print_table("Tab A': constant-voltage scaling", cv)
    print_table("Tab A'': actual roadmap transitions", actual)
    print_table("Section 1: inverter noise margin per node (slowly "
                "degrading but acceptable)", margins)
    scaled = scaled_nodes()
    print_table("Section 1: the 65 nm node ideally scaled", scaled)

    # The paper's quoted numbers at S = 2.
    s2 = next(row for row in full if row["s"] == 2.0)
    assert s2["density"] == pytest.approx(4.0)
    assert s2["gate_delay"] == pytest.approx(0.5)
    assert s2["power_per_gate"] == pytest.approx(0.25)
    assert s2["power_density"] == pytest.approx(1.0)
    # Constant-voltage scaling blows up the power density.
    cv2 = next(row for row in cv if row["s"] == 2.0)
    assert cv2["power_density"] > 4.0
    # Real transitions deviate from full scaling: power density rises.
    assert all(row["power_density"] >= 0.95 for row in actual)
    # Noise margins shrink with the supply but stay above 0.1 V.
    nm = [row["noise_margin_V"] for row in margins]
    assert nm == sorted(nm, reverse=True) and nm[-1] > 0.1
    # Full scaling divides the supply by S; constant voltage keeps it.
    vdd = {(row["scenario"], row["s"]): row["vdd_V"] for row in scaled}
    assert vdd["full", 2.0] == pytest.approx(vdd["constant-voltage", 2.0]
                                             / 2.0)
