"""Equivalence of the batched sampling engine with the scalar path.

The batched engine's contract (see ``MonteCarloSampler``) is that,
under the same seed, ``sample_dies_batch`` draws bit-for-bit the
variates repeated ``sample_die``/``sample_device`` calls would -- the
performance PR must not move a single Monte Carlo sample.
"""

import numpy as np
import pytest

from repro.technology import get_node
from repro.variability import (DieBatch, MonteCarloSampler,
                               VariationSpec, monte_carlo_yield,
                               monte_carlo_yield_batch)


@pytest.fixture()
def node():
    return get_node("65nm")


@pytest.fixture()
def spec():
    return VariationSpec()


class TestInterDieEquivalence:
    def test_batch_matches_scalar_dies_bitwise(self, node, spec):
        scalar = MonteCarloSampler(node, spec, seed=42)
        batched = MonteCarloSampler(node, spec, seed=42)
        dies = scalar.sample_dies(100)
        batch = batched.sample_dies_batch(100)
        assert batch.vth_global == pytest.approx(
            [die.vth_global for die in dies], abs=0.0)
        assert batch.length_factor_global == pytest.approx(
            [die.length_factor_global for die in dies], abs=0.0)
        assert batch.tox_factor_global == pytest.approx(
            [die.tox_factor_global for die in dies], abs=0.0)

    def test_die_view_roundtrip(self, node, spec):
        batch = MonteCarloSampler(node, spec,
                                  seed=7).sample_dies_batch(10)
        die = batch.die(3)
        assert die.vth_global == batch.vth_global[3]

    def test_batch_validation(self, node, spec):
        sampler = MonteCarloSampler(node, spec, seed=0)
        with pytest.raises(ValueError):
            sampler.sample_dies_batch(0)
        with pytest.raises(ValueError):
            sampler.sample_dies_batch(5, n_devices=-1)
        with pytest.raises(ValueError):
            sampler.sample_dies_batch(5, n_devices=3)  # width missing


class TestDeviceEquivalence:
    def test_device_draws_match_scalar_bitwise(self, node, spec):
        width = 4.0 * node.feature_size
        scalar = MonteCarloSampler(node, spec, seed=11)
        batched = MonteCarloSampler(node, spec, seed=11)
        dies = scalar.sample_dies(20)
        devices = [[die.sample_device(width) for _ in range(8)]
                   for die in dies]
        batch = batched.sample_dies_batch(20, n_devices=8, width=width)
        assert batch.n_dies == 20 and batch.n_devices == 8
        for d in range(20):
            for k in range(8):
                assert batch.device_vth_offset[d, k] == \
                    devices[d][k].vth_offset
                assert batch.device_length_factor[d, k] == \
                    devices[d][k].length_factor

    def test_heterogeneous_widths(self, node, spec):
        widths = node.feature_size * np.array([2.0, 4.0, 8.0])
        batch = MonteCarloSampler(node, spec, seed=3).sample_dies_batch(
            50, n_devices=3, width=widths)
        # Pelgrom: wider devices spread less around the die mean.
        spread = (batch.device_vth_offset
                  - batch.vth_global[:, None]).std(axis=0)
        assert spread[0] > spread[1] > spread[2]

    def test_intra_sigma_vectorized_matches_scalar(self, node, spec):
        widths = node.feature_size * np.array([1.0, 3.0, 9.0])
        vector = spec.intra_sigma_vth(node, widths, node.feature_size)
        scalars = [spec.intra_sigma_vth(node, float(w),
                                        node.feature_size)
                   for w in widths]
        assert vector == pytest.approx(scalars, abs=0.0)

    def test_die_without_rng_refuses_devices(self, node, spec):
        batch = MonteCarloSampler(node, spec,
                                  seed=0).sample_dies_batch(4)
        with pytest.raises(ValueError):
            batch.die(0).sample_device(4.0 * node.feature_size)


class TestYieldEquivalence:
    def test_batched_yield_identical(self, node, spec):
        limit = 0.03

        def scalar_metric(die):
            return abs(die.vth_global)

        def batch_metric(batch: DieBatch):
            return np.abs(batch.vth_global)

        scalar = monte_carlo_yield(
            MonteCarloSampler(node, spec, seed=123), scalar_metric,
            limit, n_dies=400)
        batched = monte_carlo_yield_batch(
            MonteCarloSampler(node, spec, seed=123), batch_metric,
            limit, n_dies=400)
        assert batched.n_pass == scalar.n_pass
        assert batched.yield_fraction == scalar.yield_fraction

    def test_batched_yield_shape_check(self, node, spec):
        with pytest.raises(ValueError):
            monte_carlo_yield_batch(
                MonteCarloSampler(node, spec, seed=0),
                lambda batch: np.zeros(3), 1.0, n_dies=10)
