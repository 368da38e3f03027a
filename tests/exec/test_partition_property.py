"""Property: ANY partition of the die population into contiguous
shards merges to the exact single-shard statistics.

Hypothesis draws arbitrary cut points; the re-draw-and-slice shard
contract then demands bit-for-bit equality of the concatenated pass
arrays -- and therefore of every derived statistic (yield fraction,
mean, variance) -- against the unsharded run.  This is satellite
coverage for the tentpole guarantee: the pinned shard counts in
``test_runner.py`` are examples, this is the rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import YIELD_METRICS, YieldWorkload, run_sharded
from repro.perf import clear_caches
from repro.technology import get_node
from repro.variability.statistical import (MonteCarloSampler,
                                           monte_carlo_yield_batch)

N_DIES = 48
SEED = 13


@pytest.fixture(scope="module")
def oracle():
    sampler = MonteCarloSampler(get_node("65nm"), seed=SEED)
    return monte_carlo_yield_batch(
        sampler, YIELD_METRICS["vth-shift"], 0.03, n_dies=N_DIES)


def partitions():
    """Strategy: sorted interior cut points of [0, N_DIES)."""
    return st.lists(st.integers(min_value=1, max_value=N_DIES - 1),
                    unique=True, max_size=7).map(sorted)


@given(cuts=partitions())
@settings(max_examples=25, deadline=None)
def test_any_partition_merges_to_exact_statistics(cuts, oracle):
    edges = [0] + list(cuts) + [N_DIES]
    passed_parts = []
    vth_parts = []
    for start, stop in zip(edges, edges[1:]):
        sampler = MonteCarloSampler(get_node("65nm"), seed=SEED)
        shard = monte_carlo_yield_batch(
            sampler, YIELD_METRICS["vth-shift"], 0.03,
            n_dies=N_DIES, shard=(start, stop))
        passed_parts.append(np.asarray(shard.passed))
        resampler = MonteCarloSampler(get_node("65nm"), seed=SEED)
        batch = resampler.sample_dies_batch(N_DIES,
                                            shard=(start, stop))
        vth_parts.append(np.asarray(batch.vth_global))
    passed = np.concatenate(passed_parts)
    vth = np.concatenate(vth_parts)

    # Bit-for-bit array equality ...
    assert np.array_equal(passed, np.asarray(oracle.passed))
    full = MonteCarloSampler(get_node("65nm"),
                             seed=SEED).sample_dies_batch(N_DIES)
    assert np.array_equal(vth, np.asarray(full.vth_global))
    # ... hence exact (not approximate) derived statistics.
    assert int(passed.sum()) == oracle.n_pass
    assert passed.mean() == oracle.yield_fraction
    assert vth.mean() == np.asarray(full.vth_global).mean()
    assert vth.var() == np.asarray(full.vth_global).var()


@given(n_shards=st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_runner_balanced_plans_hit_the_oracle(n_shards, oracle):
    clear_caches()
    result = run_sharded(
        YieldWorkload(node_name="65nm", metric="vth-shift",
                      limit=0.03, n_dies=N_DIES, seed=SEED),
        n_shards=n_shards, env_chaos=False)
    assert np.array_equal(result.value.passed,
                          np.asarray(oracle.passed))
    assert result.value.yield_fraction == oracle.yield_fraction
