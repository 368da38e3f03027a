"""Ablation: substrate-noise mitigation techniques compared.

Which of the section-4.3 countermeasures actually buys isolation on an
EPI substrate?  Compares, for the same digital aggressor and sensor:
baseline, guard ring, distance (moving the sensor), a low-impedance
backside, and their combination.  The known (and reproduced) EPI
result: distance saturates quickly, grounding quality dominates.
"""

import pytest

from repro.digital import clocked_datapath
from repro.substrate import (Floorplan, SubstrateProcess, SwanSimulator,
                             isolation_knob_ranking)
from repro.technology import get_node

from conftest import print_table


def _noise(netlist, floorplan=None, guard_ring=False, process=None,
           activity=None):
    kwargs = {}
    if process is not None:
        kwargs["process"] = process
    simulator = SwanSimulator(
        netlist, floorplan, mesh_resolution=20,
        clock_frequency=50e6, guard_ring=guard_ring, seed=0, **kwargs)
    if activity is None:
        activity = simulator.simulate_activity(3, stimulus_seed=0)
    return simulator.run(activity=activity), activity


def generate_ablation():
    node = get_node("350nm")
    netlist = clocked_datapath(node, adder_width=8, n_slices=4, seed=2)
    die = 3e-3
    near = Floorplan(die, die, (0.1e-3, 0.1e-3, 1.8e-3, 1.8e-3),
                     sensor_xy=(2.0e-3, 2.0e-3))
    far = Floorplan(die, die, (0.1e-3, 0.1e-3, 1.8e-3, 1.8e-3),
                    sensor_xy=(2.8e-3, 2.8e-3))

    base, activity = _noise(netlist, near)
    rows = [{"variant": "baseline (near sensor)",
             "rms_mV": base.rms * 1e3, "reduction_x": 1.0}]

    ringed, _ = _noise(netlist, near, guard_ring=True,
                       activity=activity)
    rows.append({"variant": "+ guard ring",
                 "rms_mV": ringed.rms * 1e3,
                 "reduction_x": base.rms / ringed.rms})

    distant, _ = _noise(netlist, far, activity=activity)
    rows.append({"variant": "+ distance (corner sensor)",
                 "rms_mV": distant.rms * 1e3,
                 "reduction_x": base.rms / distant.rms})

    good_ground = SubstrateProcess(backside_resistance=0.2)
    grounded, _ = _noise(netlist, near, process=good_ground,
                         activity=activity)
    rows.append({"variant": "+ 10x better backside ground",
                 "rms_mV": grounded.rms * 1e3,
                 "reduction_x": base.rms / grounded.rms})

    combo, _ = _noise(netlist, far, guard_ring=True,
                      process=good_ground, activity=activity)
    rows.append({"variant": "+ all combined",
                 "rms_mV": combo.rms * 1e3,
                 "reduction_x": base.rms / combo.rms})

    floating = SubstrateProcess(backplane_grounded=False)
    unlucky, _ = _noise(netlist, near, process=floating,
                        activity=activity)
    rows.append({"variant": "floating backside (worst case)",
                 "rms_mV": unlucky.rms * 1e3,
                 "reduction_x": base.rms / unlucky.rms})
    ranking = [{"substrate": substrate, "first_knob": knob}
               for substrate, knob in isolation_knob_ranking().items()]
    return rows, ranking


@pytest.mark.benchmark(group="abl_substrate")
def test_abl_substrate_mitigation(benchmark):
    rows, ranking = benchmark(generate_ablation)
    print_table("Ablation: substrate-noise mitigation on an EPI "
                "substrate", rows)
    print_table("Section 4.3: first mitigation to reach for, per "
                "substrate type (>= 6 dB)", ranking)

    by_name = {row["variant"]: row for row in rows}
    # Guard ring and backside ground help.
    assert by_name["+ guard ring"]["reduction_x"] > 1.1
    assert by_name["+ 10x better backside ground"]["reduction_x"] > 2.0
    # EPI signature: distance alone buys little (bulk path dominates).
    assert by_name["+ distance (corner sensor)"]["reduction_x"] < 2.0
    # Grounding dominates distance on EPI.
    assert by_name["+ 10x better backside ground"]["reduction_x"] \
        > by_name["+ distance (corner sensor)"]["reduction_x"]
    # Combination is the best mitigation.
    assert by_name["+ all combined"]["reduction_x"] \
        >= max(by_name["+ guard ring"]["reduction_x"],
               by_name["+ 10x better backside ground"]["reduction_x"])
    # A floating backside makes everything worse.
    assert by_name["floating backside (worst case)"]["reduction_x"] < 1.0
    # Distance works on high-ohmic bulk; EPI needs a grounded backside.
    knobs = {row["substrate"]: row["first_knob"] for row in ranking}
    assert knobs == {"high-ohmic": "distance",
                     "epi": "backside-grounding"}
