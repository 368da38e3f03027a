"""Performance benchmark of population-batched circuit synthesis.

Acceptance gate: ``CircuitSynthesizer.run(backend="vectorized")`` on the
default OTA spec (popsize 30, maxiter 60) is >= 5x faster than the
retained scalar oracle, returning the *identical* fixed-seed best
design (values, cost and evaluation count — both paths use deferred
updating, so the DE trajectory is the same).  Measured 7.7-11.5x
(median 8.3x over four runs) on a shared 2-core x86-64 host whose
speed drifts between runs, so the ratio is a floor check; perfbench's
ota-synthesis workload corrects for the drift and is the record of
synthesis throughput.  The speedup is asserted with our own
``perf_counter`` measurement so it also holds under
``--benchmark-disable`` (the CI mode); bit-level equivalence lives in
the tier-1 suite (``tests/synthesis/test_sizing_backends.py``).
"""

import time

import pytest

from conftest import record_bench
from repro.synthesis.sizing import default_ota_spec, ota_synthesizer
from repro.technology import get_node

SEED = 9
POPSIZE = 30
MAXITER = 60


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


@pytest.mark.benchmark(group="perf_synthesis")
def test_vectorized_synthesis_speedup(benchmark, node):
    """Acceptance: vectorized OTA synthesis >= 5x the scalar oracle."""
    spec = default_ota_spec()

    def run(backend):
        return ota_synthesizer(node, 2e-12, spec).run(
            seed=SEED, maxiter=MAXITER, popsize=POPSIZE, backend=backend)

    vector = benchmark(lambda: run("vectorized"))
    oracle = run("oracle")
    assert oracle.values == vector.values          # identical best design
    assert oracle.cost == vector.cost
    assert oracle.n_evaluations == vector.n_evaluations
    assert oracle.feasible and vector.feasible

    t_oracle = best_of(lambda: run("oracle"), repeats=2)
    t_vector = best_of(lambda: run("vectorized"), repeats=3)
    speedup = t_oracle / t_vector
    print(f"\nOTA synthesis popsize={POPSIZE} maxiter={MAXITER}: "
          f"oracle {t_oracle * 1e3:.0f} ms, "
          f"vectorized {t_vector * 1e3:.0f} ms, "
          f"speedup {speedup:.1f}x")
    record_bench("synthesis.ota", {
        "engine": "synthesis.ota",
        "popsize": POPSIZE,
        "maxiter": MAXITER,
        "seed": SEED,
        "oracle_s": t_oracle,
        "vectorized_s": t_vector,
        "speedup": speedup,
        "gate": 5.0,
        "identical_best_design": oracle.values == vector.values,
    })
    assert speedup >= 5.0
