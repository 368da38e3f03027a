"""Fixed-seed regression pins for the R001 RNG migration.

Every stochastic model API moved from ``np.random.default_rng(seed)``
to :func:`repro.robust.rng.resolve_rng`.  With an explicit seed the
two are the same stream draw for draw, so results must be bit-for-bit
identical to the pre-migration code.  The constants below were
captured by running the pre-migration tree with these exact seeds;
any drift here means the migration changed sampling behaviour.
"""

import numpy as np
import pytest

from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


def test_dopant_placement_pinned(node):
    from repro.variability.dopants import DopantPlacementModel
    sample = DopantPlacementModel(node, seed=42).sample()
    assert sample.count == 707
    assert sample.x[0] == pytest.approx(5.580886479423986e-08, rel=1e-12)
    assert sample.source_encroachment == pytest.approx(
        4.994389582144734e-09, rel=1e-12)


def test_dopant_rng_injection_matches_seed(node):
    from repro.variability.dopants import DopantPlacementModel
    by_seed = DopantPlacementModel(node, seed=42).sample()
    by_rng = DopantPlacementModel(
        node, rng=np.random.default_rng(42)).sample()
    assert by_seed.count == by_rng.count
    assert np.array_equal(by_seed.x, by_rng.x)


def test_sample_vt_map_pinned(node):
    from repro.variability.spatial import sample_vt_map
    vt_map = sample_vt_map(node, seed=42)
    assert vt_map._grid.sum() == pytest.approx(-28.998152252053153,
                                               rel=1e-12)
    assert vt_map.at(1e-3, 2e-3) == pytest.approx(-0.001962645284474762,
                                                  rel=1e-12)


def test_matching_vs_distance_pinned(node):
    from repro.variability.spatial import matching_vs_distance
    rows = matching_vs_distance(node, [1e-4, 1e-3], n_dies=4, seed=3)
    assert rows[0]["sigma_delta_vt_mV"] == pytest.approx(
        12.394415770572355, rel=1e-12)
    assert rows[1]["sigma_delta_vt_mV"] == pytest.approx(
        17.656888812872097, rel=1e-12)


def test_ler_pinned(node):
    from repro.variability.ler import (LerParameters,
                                       current_spread_from_ler,
                                       generate_edge)
    edge = generate_edge(LerParameters(), 130e-9, n_points=64,
                         rng=np.random.default_rng(7))
    assert edge[0] == pytest.approx(-8.229483120987665e-10, rel=1e-12)
    assert edge[-1] == pytest.approx(2.0332551869371716e-10, rel=1e-12)
    spread = current_spread_from_ler(node, n_devices=16, n_points=32,
                                     seed=9)
    assert spread["mean_current_rel"] == pytest.approx(
        1.0160179760939887, rel=1e-12)
    assert spread["sigma_current_rel"] == pytest.approx(
        0.01974013266628124, rel=1e-12)


def test_monte_carlo_sampler_pinned(node):
    from repro.variability.statistical import MonteCarloSampler
    batch = MonteCarloSampler(node, seed=11).sample_dies_batch(
        3, n_devices=2, width=2 * node.feature_size)
    assert batch.vth_global == pytest.approx(
        [0.0005128915087977625, -0.007654606151815012,
         0.0085458953635794], rel=1e-12)


def test_monte_carlo_sampler_rng_injection(node):
    from repro.variability.statistical import MonteCarloSampler
    by_seed = MonteCarloSampler(node, seed=11).sample_dies_batch(3)
    by_rng = MonteCarloSampler(
        node, rng=np.random.default_rng(11)).sample_dies_batch(3)
    assert np.array_equal(by_seed.vth_global, by_rng.vth_global)


def test_netlist_generators_pinned(node):
    from repro.digital.generators import clocked_datapath, random_logic
    datapath = clocked_datapath(node, adder_width=2, n_slices=1, seed=3)
    assert len(datapath.instances) == 17
    logic = random_logic(node, n_gates=12, n_inputs=3, seed=8)
    assert [inst.cell.cell_type.name
            for inst in logic.instances.values()] == [
        "NOR2", "AND2", "XOR2", "AND2", "AOI21", "AOI21", "OR2",
        "NAND3", "NAND2", "OR2", "AND2", "INV"]


def test_swan_simulator_pinned(node):
    from repro.digital.generators import clocked_datapath
    from repro.substrate.swan import Floorplan, SwanSimulator
    netlist = clocked_datapath(node, adder_width=2, n_slices=1, seed=3)
    sim = SwanSimulator(netlist, Floorplan.default(), seed=21)
    wave = sim.run(n_cycles=3, dt=50e-12)
    rms = wave.rms() if callable(wave.rms) else wave.rms
    peak = (wave.peak_to_peak() if callable(wave.peak_to_peak)
            else wave.peak_to_peak)
    assert rms == pytest.approx(6.98916294350838e-06, rel=1e-10)
    assert peak == pytest.approx(0.00011267159332648249, rel=1e-10)


def test_random_stimulus_pinned(node):
    from repro.digital.generators import random_logic
    from repro.digital.simulator import random_stimulus
    logic = random_logic(node, n_gates=12, n_inputs=3, seed=8)
    stim = random_stimulus(logic, 8, seed=13)
    expected = {
        "en": [1, 0, 1, 0, 0, 1, 1, 0],
        "in0": [1, 1, 1, 1, 0, 1, 1, 0],
        "in1": [0, 0, 1, 1, 1, 1, 1, 0],
        "in2": [1, 1, 0, 1, 1, 0, 0, 1],
    }
    assert {k: [int(b) for b in v] for k, v in stim.items()} == expected


def test_random_stimulus_rng_injection(node):
    from repro.digital.generators import random_logic
    from repro.digital.simulator import random_stimulus
    logic = random_logic(node, n_gates=12, n_inputs=3, seed=8)
    assert random_stimulus(logic, 8, seed=13) == random_stimulus(
        logic, 8, rng=np.random.default_rng(13))


def test_delay_under_mismatch_pinned(node):
    from repro.digital.generators import random_logic
    from repro.digital.timing import delay_under_mismatch
    logic = random_logic(node, n_gates=12, n_inputs=3, seed=8)
    delays = delay_under_mismatch(logic, 0.01, n_samples=5, seed=17)
    assert list(delays) == pytest.approx(
        [5.345674141476998e-11, 5.4625818006022675e-11,
         5.240023549633246e-11, 5.3332629741022356e-11,
         5.35762740407664e-11], rel=1e-12)


def test_ssta_pinned(node):
    from repro.digital.generators import random_logic
    from repro.digital.ssta import StatisticalTimingAnalyzer
    from repro.variability.statistical import VariationSpec
    logic = random_logic(node, n_gates=12, n_inputs=3, seed=8)
    result = StatisticalTimingAnalyzer(logic, VariationSpec(),
                                       seed=13).run(6)
    assert list(result.samples) == pytest.approx(
        [5.6863126800970903e-11, 5.5495718312535446e-11,
         5.2744367966199557e-11, 5.3834442515359075e-11,
         5.507226950617207e-11, 5.5359224244034683e-11], rel=1e-12)


def test_delay_model_mc_pinned(node):
    from repro.digital.delay import fo4_delay_model
    delays = fo4_delay_model(node).monte_carlo_delays(
        0.02, n_samples=4, seed=23)
    assert list(delays) == pytest.approx(
        [4.337567523950131e-12, 4.285100617965548e-12,
         4.242830895765014e-12, 3.921396759441881e-12], rel=1e-12)


def test_adc_survey_pinned(node):
    from repro.analog.adc import sample_synthetic_survey
    design = sample_synthetic_survey(node, n_designs=3, seed=2)[0]
    assert design.sample_rate == pytest.approx(746317.1313694823,
                                               rel=1e-12)
    assert design.n_bits == pytest.approx(7.87773347674248, rel=1e-12)
    assert design.power == pytest.approx(7.758181278692339e-05,
                                         rel=1e-12)


def test_pipeline_adc_pinned(node):
    from repro.analog.adc_behavioral import PipelineAdc
    adc = PipelineAdc(node, n_stages=4, device_area=1e-12, seed=6)
    assert [stage.gain_error for stage in adc.stages] == pytest.approx(
        [0.010109911243072879, 0.009731706326911454,
         0.002783592877116941, -0.008127638075887404], rel=1e-12)


def test_sram_snm_pinned(node):
    from repro.memory.sram import snm_under_mismatch
    snm = snm_under_mismatch(node, n_samples=4, seed=19)
    assert list(snm) == pytest.approx(
        [0.0, 0.003282546893842664, 0.08192731839562839,
         0.125690679480158], abs=1e-15)


def test_unseeded_model_calls_are_deterministic(node):
    """seed=None now means a deterministic package stream, not entropy."""
    from repro.robust.rng import reseed
    from repro.variability.statistical import MonteCarloSampler
    try:
        reseed()
        first = MonteCarloSampler(node).sample_dies_batch(3).vth_global
        reseed()
        second = MonteCarloSampler(node).sample_dies_batch(3).vth_global
    finally:
        reseed()
    assert np.array_equal(first, second)
