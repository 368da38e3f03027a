"""The memoized inter-die draw behind sharded ``sample_dies_batch``.

Every shard of one population rebuilds its sampler from the same seed
and slices the same ``(n_dies, 3)`` inter-die draw, so the sampler
replays one memoized draw instead of redrawing it per shard.  The
replay must be invisible: each shard gets exactly the rows an
un-memoized draw gives, and the sampler's generator ends in the state
the unsharded call leaves, on a memo miss and on a memo hit alike.
"""

import copy

import numpy as np
import pytest

from repro.exec import YieldWorkload, run_sharded
from repro.perf import cache_stats, clear_caches
from repro.technology import get_node
from repro.variability import MonteCarloSampler, VariationSpec

MEMO = "variability.inter_die_draws"
N_DIES = 50
SHARD = (10, 30)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture()
def memo_counts():
    """``() -> (hits, misses)`` of the memo since the test started."""
    start = cache_stats()[MEMO]

    def counts():
        stats = cache_stats()[MEMO]
        return stats.hits - start.hits, stats.misses - start.misses

    return counts


@pytest.fixture()
def node():
    return get_node("65nm")


def unmemoized_rows(rng, n_dies, start, stop):
    """Rows ``[start, stop)`` of a plain draw from a copy of ``rng``."""
    return copy.deepcopy(rng).standard_normal((n_dies, 3))[start:stop]


def assert_rows(batch, draws, spec=VariationSpec()):
    assert np.array_equal(batch.vth_global, spec.vth_inter * draws[:, 0])
    assert np.array_equal(batch.length_factor_global,
                          1.0 + spec.length_inter_rel * draws[:, 1])
    assert np.array_equal(batch.tox_factor_global,
                          1.0 + spec.tox_inter_rel * draws[:, 2])


def device_kwargs(node, n_devices):
    if n_devices == 0:
        return {}
    return {"n_devices": n_devices, "width": 4.0 * node.feature_size}


class TestGeneratorEndState:
    """A sharded call leaves the generator where the unsharded one does."""

    @pytest.mark.parametrize("n_devices", [0, 3])
    def test_miss_then_hit(self, node, n_devices, memo_counts):
        kwargs = device_kwargs(node, n_devices)
        unsharded = MonteCarloSampler(node, seed=5)
        full = unsharded.sample_dies_batch(N_DIES, **kwargs)
        for expected_counts in ((0, 1), (1, 1)):   # miss, then hit
            sampler = MonteCarloSampler(node, seed=5)
            batch = sampler.sample_dies_batch(N_DIES, shard=SHARD,
                                              **kwargs)
            assert memo_counts() == expected_counts
            assert (sampler.rng.bit_generator.state
                    == unsharded.rng.bit_generator.state)
            assert np.array_equal(
                copy.deepcopy(sampler.rng).standard_normal(5),
                copy.deepcopy(unsharded.rng).standard_normal(5))
            assert np.array_equal(batch.vth_global,
                                  full.vth_global[SHARD[0]:SHARD[1]])
            if n_devices:
                for name in ("device_vth_offset",
                             "device_length_factor"):
                    assert np.array_equal(
                        getattr(batch, name),
                        getattr(full, name)[SHARD[0]:SHARD[1]])
                # The per-die spawns advance as in the unsharded call.
                assert (sampler.rng.bit_generator.seed_seq
                        .n_children_spawned
                        == unsharded.rng.bit_generator.seed_seq
                        .n_children_spawned)


class TestReplayedRows:
    """Each call gets exactly the rows of an un-memoized draw."""

    def test_different_seeds_same_population_size(self, node,
                                                  memo_counts):
        for seed in (0, 0, 1, 2):
            sampler = MonteCarloSampler(node, seed=seed)
            draws = unmemoized_rows(sampler.rng, N_DIES, *SHARD)
            assert_rows(sampler.sample_dies_batch(N_DIES, shard=SHARD),
                        draws)
        assert memo_counts() == (1, 3)

    def test_sampler_advanced_by_one_die(self, node, memo_counts):
        MonteCarloSampler(node, seed=4).sample_dies_batch(N_DIES,
                                                          shard=SHARD)
        sampler = MonteCarloSampler(node, seed=4)
        sampler.sample_die()
        draws = unmemoized_rows(sampler.rng, N_DIES, *SHARD)
        assert_rows(sampler.sample_dies_batch(N_DIES, shard=SHARD),
                    draws)
        assert memo_counts() == (0, 2)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.Philox])
    def test_injected_bit_generators(self, node, bit_generator,
                                     memo_counts):
        MonteCarloSampler(node, seed=3).sample_dies_batch(N_DIES,
                                                          shard=SHARD)
        for expected_counts in ((0, 2), (1, 2)):   # miss, then hit
            sampler = MonteCarloSampler(
                node, rng=np.random.Generator(bit_generator(3)))
            draws = unmemoized_rows(sampler.rng, N_DIES, *SHARD)
            assert_rows(sampler.sample_dies_batch(N_DIES, shard=SHARD),
                        draws)
            assert memo_counts() == expected_counts


class TestMemo:
    def test_eight_serial_shards_draw_once(self, memo_counts):
        workload = YieldWorkload("65nm", "vth-shift", 0.03, n_dies=800,
                                 seed=9)
        run_sharded(workload, n_shards=8, env_chaos=False)
        assert memo_counts() == (7, 1)
        assert cache_stats()[MEMO].size == 1
        clear_caches()
        assert cache_stats()[MEMO].size == 0

    def test_shared_draw_is_read_only(self, node):
        draws = MonteCarloSampler(node, seed=6)._inter_die_draws(N_DIES)
        assert not draws.flags.writeable
        with pytest.raises(ValueError):
            draws[0, 0] = 1.0

    def test_writing_a_batch_leaves_the_next_shard_intact(
            self, node, memo_counts):
        expected = unmemoized_rows(MonteCarloSampler(node, seed=8).rng,
                                   N_DIES, 0, N_DIES)
        first = MonteCarloSampler(node, seed=8).sample_dies_batch(
            N_DIES, shard=(0, 25))
        first.vth_global[:] = 1.0
        first.length_factor_global[:] = 1.0
        first.tox_factor_global[:] = 1.0
        for shard in ((0, 25), (25, N_DIES)):
            batch = MonteCarloSampler(node, seed=8).sample_dies_batch(
                N_DIES, shard=shard)
            assert_rows(batch, expected[shard[0]:shard[1]])
        assert memo_counts() == (2, 1)
