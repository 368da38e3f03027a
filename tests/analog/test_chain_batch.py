"""Scalar-oracle vs batched-path equivalence and fixed-seed goldens.

The batched chain sign-off must reproduce the retained per-die scalar
oracle bit-for-bit on the integer/linearity quantities and to float64
round-off on the spectral ones.  The golden pins freeze the 65 nm
seed-0 population so any RNG-contract or mismatch-model drift fails
loudly.
"""

import numpy as np
import pytest

from repro.analog import (ChainDesign, SignalChain, chain_signoff,
                          chain_signoff_batch, chain_yield_vs_node)
from repro.technology import get_node
from repro.variability import MonteCarloSampler


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestScalarBatchEquivalence:
    N_DIES = 8
    SEED = 42

    @pytest.fixture(scope="class")
    def reports(self, node):
        batch = chain_signoff_batch(
            MonteCarloSampler(node, seed=self.SEED),
            n_dies=self.N_DIES)
        sampler = MonteCarloSampler(node, seed=self.SEED)
        scalar = [chain_signoff(node, die=sampler.sample_die())
                  for _ in range(self.N_DIES)]
        return batch, scalar

    def test_linearity_bit_identical(self, reports):
        batch, scalar = reports
        for d, one in enumerate(scalar):
            assert batch.dac.dnl_max[d] == one.dac.dnl_max
            assert batch.dac.inl_max[d] == one.dac.inl_max
            assert batch.adc.dnl_max[d] == one.adc.dnl_max
            assert batch.adc.inl_max[d] == one.adc.inl_max
            np.testing.assert_array_equal(batch.dac.dnl[d], one.dac.dnl)
            np.testing.assert_array_equal(batch.adc.inl[d], one.adc.inl)

    def test_flags_identical(self, reports):
        batch, scalar = reports
        for d, one in enumerate(scalar):
            assert bool(batch.monotonic[d]) == one.monotonic
            assert bool(batch.passed[d]) == one.passed

    def test_spectral_to_roundoff(self, reports):
        batch, scalar = reports
        for d, one in enumerate(scalar):
            assert batch.spectral.enob[d] == pytest.approx(
                one.spectral.enob, abs=1e-9)
            assert batch.spectral.sndr_db[d] == pytest.approx(
                one.spectral.sndr_db, abs=1e-9)

    def test_rng_stream_unshared(self, node):
        """Batch draws come from spawned children, not the parent.

        Two batched calls on fresh samplers with the same seed must be
        identical even though the first call advanced its own parent.
        """
        a = chain_signoff_batch(MonteCarloSampler(node, seed=7),
                                n_dies=4)
        b = chain_signoff_batch(MonteCarloSampler(node, seed=7),
                                n_dies=4)
        np.testing.assert_array_equal(a.spectral.enob, b.spectral.enob)


class TestChainGoldens:
    """65 nm, seed 0, 64 dies: frozen population statistics."""

    @pytest.fixture(scope="class")
    def batch(self, node):
        return chain_signoff_batch(MonteCarloSampler(node, seed=0),
                                   n_dies=64)

    def test_yield_count(self, batch):
        assert int(np.sum(batch.passed)) == 62

    def test_first_dies_enob(self, batch):
        np.testing.assert_allclose(
            batch.spectral.enob[:4],
            [7.3263385677396355, 7.288360093717965,
             7.266589200033615, 7.200805331418783],
            rtol=0.0, atol=1e-12)

    def test_population_mean_enob(self, batch):
        assert float(np.mean(batch.spectral.enob)) == pytest.approx(
            7.266812342362598, abs=1e-12)

    def test_first_die_linearity(self, batch):
        assert batch.dac.dnl_max[0] == pytest.approx(
            0.057768759249234525, abs=1e-12)
        assert batch.adc.inl_max[0] == pytest.approx(0.125, abs=1e-12)


class TestYieldVsNode:
    def test_vectorized_matches_scalar_rows(self, node):
        fast = chain_yield_vs_node(nodes=[node], n_dies=6, seed=3)[0]
        sampler = MonteCarloSampler(node, seed=3)
        dies = [chain_signoff(node, die=sampler.sample_die())
                for _ in range(6)]
        assert fast["yield_fraction"] == sum(d.passed for d in dies) / 6
        assert fast["enob_mean"] == pytest.approx(
            np.mean([d.spectral.enob for d in dies]), abs=1e-9)
        assert fast["dnl_worst_lsb"] == max(
            max(d.dac.dnl_max, d.adc.dnl_max) for d in dies)
        assert fast["inl_worst_lsb"] == max(
            max(d.dac.inl_max, d.adc.inl_max) for d in dies)

    def test_row_shape(self, node):
        rows = chain_yield_vs_node(nodes=[node], n_dies=4, seed=1)
        assert list(rows[0]) == ["node", "n_dies", "yield_fraction",
                                 "enob_mean", "enob_min",
                                 "dnl_worst_lsb", "inl_worst_lsb"]
        assert rows[0]["node"] == "65nm"
        assert rows[0]["n_dies"] == 4.0


class TestDesignKnobsMoveYield:
    def test_bigger_devices_raise_yield(self):
        """Quadrupling matched areas at 32 nm recovers yield."""
        node = get_node("32nm")
        small = chain_signoff_batch(MonteCarloSampler(node, seed=0),
                                    n_dies=48)
        big = chain_signoff_batch(
            MonteCarloSampler(node, seed=0),
            design=ChainDesign(resistor_width=32.0,
                               resistor_length=256.0,
                               cap_side=48.0,
                               comparator_width=256.0,
                               comparator_length=32.0),
            n_dies=48)
        assert int(np.sum(big.passed)) > int(np.sum(small.passed))
