"""Performance benchmark of the batched electrothermal solver.

Acceptance gate: ``electrothermal_rth_sweep`` over the full node
library x a 24-point Rth grid is >= 5x faster than the scalar oracle
``_rth_sweep_reference`` (one fixed point per grid element), with
oracle-equivalent convergence behavior: identical convergence /
runaway flags and iteration counts on every grid element (including
non-convergent ones — the IterationGuard report parity is pinned in
``tests/thermal/test_electrothermal_batch.py``) and junction
temperatures within the engine's 1e-9 relative contract.  Measured
~40-50x on the reference container.  The speedup is asserted with our
own ``perf_counter`` measurement so it also holds under
``--benchmark-disable`` (the CI mode).
"""

import time
import warnings

import numpy as np
import pytest

from conftest import record_bench
from repro.robust.errors import ModelDomainWarning
from repro.technology import all_nodes
from repro.thermal import electrothermal_rth_sweep
from repro.thermal.electrothermal import _rth_sweep_reference

RTH_GRID = np.geomspace(1.0, 100.0, 24)


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="perf_electrothermal")
def test_batched_electrothermal_speedup(benchmark):
    """Acceptance: batched nodes x Rth sweep >= 5x the scalar oracle."""
    nodes = all_nodes()

    def sweep(path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelDomainWarning)
            return path(nodes, RTH_GRID)

    vector = benchmark(lambda: sweep(electrothermal_rth_sweep))
    oracle = sweep(_rth_sweep_reference)
    assert len(oracle) == len(vector) == len(nodes) * len(RTH_GRID)
    for a, b in zip(oracle, vector):
        assert a["node"] == b["node"]
        assert a["converged"] == b["converged"]
        assert a["runaway"] == b["runaway"]
        assert a["n_iterations"] == b["n_iterations"]
        assert b["junction_K"] == pytest.approx(a["junction_K"],
                                                rel=1e-9)

    t_oracle = best_of(lambda: sweep(_rth_sweep_reference), repeats=2)
    t_vector = best_of(lambda: sweep(electrothermal_rth_sweep), repeats=3)
    speedup = t_oracle / t_vector
    print(f"\nelectrothermal sweep {len(nodes)} nodes x "
          f"{len(RTH_GRID)} Rth points: "
          f"oracle {t_oracle * 1e3:.0f} ms, "
          f"vectorized {t_vector * 1e3:.1f} ms, "
          f"speedup {speedup:.1f}x")
    record_bench("thermal.electrothermal", {
        "engine": "thermal.electrothermal",
        "n_nodes": len(nodes),
        "n_rth_points": int(len(RTH_GRID)),
        "oracle_s": t_oracle,
        "vectorized_s": t_vector,
        "speedup": speedup,
        "gate": 5.0,
        "oracle_equivalent_convergence": True,
    })
    assert speedup >= 5.0
