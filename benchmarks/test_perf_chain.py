"""Performance benchmark of the batched mixed-signal sign-off chain.

Acceptance gate: ``chain_signoff_batch`` at 32 dies (65 nm) is >= 2x
faster than the retained per-die scalar oracle, with identical
fixed-seed pass/fail vectors.  Measured 12.5-15.1x on a 2-core x86_64
host, whose speed swung by up to 2x between runs: 10.3-15.3x there
before the DAC levels were summed as a pairwise tree and the SAR
conversion walked a heap of its thresholds (kernels the scalar oracle
shares; its time did not move beyond that swing), and 3.1-4.2x before
the batched path counted the ADC ramp histogram from the SAR
transition table.  The gate is deliberately conservative.  As in the
other perf benchmarks the speedup is asserted with our own
``perf_counter`` measurement so it also holds under
``--benchmark-disable`` (the CI mode); bit-level equivalence lives in
the tier-1 suite (``tests/analog/test_chain_batch.py``).

The BENCH entry ``chain`` records the scalar and batched times with
their speedup at 32 dies, and the batched time and tracemalloc peak of
a 512-die sign-off, the ``chain-yield`` CLI default (the batch is
signed off in blocks, so the peak is the result's own per-die arrays
plus one block's working set).
"""

import time
import tracemalloc

import numpy as np
import pytest

from conftest import record_bench
from repro.analog import chain_signoff, chain_signoff_batch
from repro.technology import get_node
from repro.variability import MonteCarloSampler

N_DIES = 32
CLI_DIES = 512

#: This module's BENCH entry, filled in by each test as it runs.
CHAIN = {}


def record_chain(**fields):
    """Merge ``fields`` into the ``chain`` BENCH entry."""
    CHAIN.update(fields)
    record_bench("chain", dict(CHAIN))


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.mark.benchmark(group="perf_chain")
def test_batched_chain_signoff_speedup(benchmark, node):
    """Acceptance: batched sign-off >= 2x scalar at 32 dies."""

    def batched():
        return chain_signoff_batch(MonteCarloSampler(node, seed=1),
                                   n_dies=N_DIES)

    def scalar():
        sampler = MonteCarloSampler(node, seed=1)
        return [chain_signoff(node, die=sampler.sample_die())
                for _ in range(N_DIES)]

    result = benchmark(batched)
    oracle = scalar()
    np.testing.assert_array_equal(
        np.asarray(result.passed),
        np.array([r.passed for r in oracle]))
    np.testing.assert_allclose(
        np.asarray(result.spectral.enob),
        np.array([r.spectral.enob for r in oracle]), atol=1e-9)
    t_scalar = best_of(scalar, repeats=2)
    t_batch = best_of(batched, repeats=3)
    print(f"\nchain sign-off n_dies={N_DIES}: "
          f"scalar {t_scalar * 1e3:.1f} ms, "
          f"batched {t_batch * 1e3:.1f} ms, "
          f"speedup {t_scalar / t_batch:.1f}x")
    record_chain(n_dies=N_DIES, scalar_ms=round(t_scalar * 1e3, 1),
                 batched_ms=round(t_batch * 1e3, 2),
                 speedup=round(t_scalar / t_batch, 1), speedup_gate=">= 2x")
    assert t_scalar / t_batch >= 2.0


def test_cli_default_batch(node):
    """The batched sign-off at the ``chain-yield`` default of 512 dies:
    its time and its tracemalloc peak."""

    def batched():
        return chain_signoff_batch(MonteCarloSampler(node, seed=1),
                                   n_dies=CLI_DIES)

    batched()
    tracemalloc.start()
    try:
        batched()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    t_batch = best_of(batched, repeats=3)
    print(f"\nchain sign-off n_dies={CLI_DIES}: "
          f"batched {t_batch * 1e3:.1f} ms, "
          f"tracemalloc peak {peak / 2 ** 20:.1f} MiB")
    record_chain(cli_dies=CLI_DIES, cli_batched_ms=round(t_batch * 1e3, 1),
                 cli_peak_mib=round(peak / 2 ** 20, 2))
