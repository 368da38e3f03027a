"""Scalar-oracle vs batched-path equivalence and fixed-seed goldens.

The batched chain sign-off must reproduce the retained per-die scalar
oracle bit-for-bit on the integer/linearity quantities and to float64
round-off on the spectral ones.  The golden pins freeze the 65 nm
seed-0 population so any RNG-contract or mismatch-model drift fails
loudly.
"""

import tracemalloc
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.analog import (ChainDesign, ChainSpec, SignalChain,
                          chain_signoff, chain_signoff_batch,
                          chain_yield_vs_node, spectral_metrics_batch)
from repro.analog import chain as chain_module
from repro.analog.chain import _draws_per_die, _sine_codes
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
            np.testing.assert_array_equal(batch.adc.dnl[d], one.adc.dnl)
            np.testing.assert_array_equal(batch.adc.inl[d], one.adc.inl)
            assert bool(batch.adc.monotonic[d]) == one.adc.monotonic

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

    def test_spectral_matches_converted_sine(self, node):
        """Sine codes gathered from the sweep give exactly the spectral
        report of the converted sine record; a gather left out of C
        order moves per-die ENOB by up to ~1e-11 relative.
        """
        rng = np.random.default_rng(self.SEED)
        n_bits = ChainDesign().n_bits
        chain = SignalChain._from_draws(
            node, ChainDesign(), 0.01 * rng.standard_normal(self.N_DIES),
            rng.standard_normal((self.N_DIES, _draws_per_die(n_bits))))
        sine_in = chain.dac.levels()[:, _sine_codes(n_bits, 1024, 67, 0.9)]
        want = spectral_metrics_batch(
            chain.adc.convert(chain.through_filter(sine_in)).astype(float),
            67, full_scale=2.0 ** n_bits - 1)
        got = chain.signoff().spectral
        for field in ("sndr_db", "sfdr_db", "enob", "enob_full_scale"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

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


def report_fields(report, prefix=""):
    """Every field of a (nested) report by dotted name, each array as
    ``(dtype, shape, bytes)``."""
    out = {}
    for field in fields(report):
        value = getattr(report, field.name)
        name = prefix + field.name
        if is_dataclass(value):
            out.update(report_fields(value, name + "."))
        elif isinstance(value, np.ndarray):
            out[name] = (value.dtype, value.shape, value.tobytes())
        else:
            out[name] = value
    return out


class TestSignoffBlocks:
    """A batch is signed off ``_SIGNOFF_DIES`` dies at a time; every
    step is row-wise, so the block size moves no byte of the result."""

    CASES = [(1, None), (127, None), (128, None), (129, None),
             (300, None), (300, (100, 260)), (300, (127, 129))]

    @pytest.mark.parametrize("node_name", ["350nm", "65nm", "32nm"])
    def test_block_size_moves_no_byte(self, node_name, monkeypatch):
        node = get_node(node_name)

        def signoff(n_dies, shard, block):
            monkeypatch.setattr(chain_module, "_SIGNOFF_DIES", block)
            return report_fields(chain_signoff_batch(
                MonteCarloSampler(node, seed=5), n_dies=n_dies,
                shard=shard))

        for n_dies, shard in self.CASES:
            whole = signoff(n_dies, shard, n_dies)
            for block in (1, 7, 64, 128):
                assert signoff(n_dies, shard, block) == whole, \
                    (n_dies, shard, block)

    def test_blocks_join_to_one_pass(self, node):
        """The joined blocks are the batch signed off in one pass."""
        rng = np.random.default_rng(3)
        n_dies = 150
        chain = SignalChain._from_draws(
            node, ChainDesign(), 0.01 * rng.standard_normal(n_dies),
            rng.standard_normal((n_dies, _draws_per_die(8))))
        one_pass = chain._signoff(ChainSpec(), n_ramp_per_code=16,
                                  n_fft=1024, cycles=67,
                                  amplitude_fraction=0.9)
        assert report_fields(chain.signoff()) == report_fields(one_pass)

    def test_memory_is_the_result_and_one_block(self, node):
        """The tracemalloc peak of a 1,024-die sign-off stays below
        ``R + B * 64 * n_fft`` bytes: ``R`` is the result's own arrays
        (its per-die DNL/INL rows, about 8 KB a die) and ``B`` the dies
        of one block, each allowed 64 bytes per sample of the 1,024-
        sample sine record, twice what the block's FFT stage holds (the
        record, its mean-removed copy, the spectrum, its power and the
        spur copy: 32 bytes a sample) to cover its sweep and histogram
        tables beside it.  With 64-die blocks the bound is about 12.6 MB
        and the peak about 11.5 MB; a sign-off of all 1,024 dies at once
        peaks at about 43 MB."""
        n_dies, n_fft = 1024, 1024
        chain_signoff_batch(MonteCarloSampler(node, seed=0), n_dies=8)
        tracemalloc.start()
        try:
            result = chain_signoff_batch(MonteCarloSampler(node, seed=0),
                                         n_dies=n_dies, n_fft=n_fft)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = sum(len(value[2]) for value in report_fields(result).values()
                  if isinstance(value, tuple))
        assert peak < own + chain_module._SIGNOFF_DIES * 64 * n_fft


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
