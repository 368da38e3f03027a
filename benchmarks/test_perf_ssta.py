"""Performance benchmark of the compiled batched SSTA engine (PR 4).

Acceptance gate: on a ~200-gate netlist at 200 Monte Carlo samples,
``StatisticalTimingAnalyzer.run`` over the compiled timing graph is
>= 10x faster than the retained per-sample scalar loop
(``StatisticalTimingAnalyzer._run_reference``), with identical
fixed-seed variates.  As in
``test_perf_sampling.py`` the speedup is asserted with our own
``perf_counter`` measurement so the gate also holds under
``--benchmark-disable`` (the CI mode); numerical equivalence lives in
the tier-1 suite (``tests/perf/test_timing_compiled.py``).

The BENCH entry ``ssta`` records the scalar and batched times with
their speedup, the 200-gate compile and evaluate times, and the
compile of the 20k-gate ``soc-noise`` CLI-default SoC.  A compile is
timed on a netlist built for it, so it includes the netlist's own
lowering (the Kahn order and load fold, cached per netlist state).
"""

import time

import numpy as np
import pytest

from conftest import record_bench
from repro.digital import (CompiledTimingGraph,
                           StatisticalTimingAnalyzer, random_logic,
                           soc_netlist)
from repro.technology import get_node

N_SAMPLES = 200
N_GATES = 200

#: This module's BENCH entry, filled in by each test as it runs.
SSTA = {}


def record_ssta(**fields):
    """Merge ``fields`` into the ``ssta`` BENCH entry."""
    SSTA.update(fields)
    record_bench("ssta", dict(SSTA))


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_compile(build, repeats=3):
    """Best wall time of compiling a netlist that ``build`` makes
    afresh for each run (the build is not timed) [s]."""
    best = float("inf")
    for _ in range(repeats):
        netlist = build()
        start = time.perf_counter()
        CompiledTimingGraph(netlist)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def netlist():
    return random_logic(get_node("65nm"), n_gates=N_GATES, seed=0)


@pytest.mark.benchmark(group="perf_ssta")
def test_batched_ssta_speedup(benchmark, netlist):
    """Acceptance: compiled SSTA >= 10x scalar at 200 x 200."""

    def batched():
        return StatisticalTimingAnalyzer(netlist, seed=1).run(
            N_SAMPLES)

    def scalar():
        return StatisticalTimingAnalyzer(netlist, seed=1)._run_reference(
            N_SAMPLES)

    result = benchmark(batched)
    oracle = scalar()
    np.testing.assert_allclose(result.samples, oracle.samples,
                               rtol=1e-10)
    assert result.criticality == oracle.criticality
    t_scalar = best_of(scalar, repeats=2)
    t_batch = best_of(batched, repeats=3)
    print(f"\nSSTA n_gates={N_GATES} n_samples={N_SAMPLES}:"
          f" scalar={t_scalar * 1e3:.0f} ms"
          f" batched={t_batch * 1e3:.1f} ms"
          f" speedup={t_scalar / t_batch:.0f}x")
    record_ssta(n_gates=N_GATES, n_samples=N_SAMPLES,
                scalar_ms=round(t_scalar * 1e3, 1),
                batched_ms=round(t_batch * 1e3, 2),
                speedup=round(t_scalar / t_batch, 1), speedup_gate=">= 10x")
    assert t_scalar / t_batch >= 10.0


@pytest.mark.benchmark(group="perf_ssta")
def test_signoff_quantile_in_tier1_time(benchmark, netlist):
    """Sign-off-grade sampling: q=0.999 needs thousands of dies;
    the compiled engine runs 4000 in well under a second."""

    def signoff():
        result = StatisticalTimingAnalyzer(netlist, seed=2).run(4000)
        return result.quantile(0.999)

    q999 = benchmark(signoff)
    elapsed = best_of(signoff, repeats=1)
    nominal = StatisticalTimingAnalyzer(netlist, seed=2).run(10)
    assert q999 > nominal.nominal_delay
    assert elapsed < 5.0


@pytest.mark.benchmark(group="perf_ssta")
def test_compile_once_evaluate_many(benchmark, netlist):
    """The compile/evaluate split: re-evaluations amortize the
    one-time lowering cost."""
    graph = CompiledTimingGraph(netlist)
    rng = np.random.default_rng(0)
    offsets = rng.normal(0.0, 0.01, size=(N_SAMPLES, graph.n_gates))

    evaluated = benchmark(lambda: graph.evaluate(offsets))
    t_compile = best_compile(lambda: random_logic(
        get_node("65nm"), n_gates=N_GATES, seed=0))
    t_eval = best_of(lambda: graph.evaluate(offsets))
    print(f"\ncompile={t_compile * 1e3:.1f} ms"
          f" evaluate({N_SAMPLES})={t_eval * 1e3:.1f} ms")
    record_ssta(compile_ms=round(t_compile * 1e3, 2),
                evaluate_ms=round(t_eval * 1e3, 2))
    assert evaluated.critical_delays.shape == (N_SAMPLES,)
    assert np.all(evaluated.critical_delays > 0)


def test_cli_default_soc_compile():
    """The compile at the ``soc-noise`` CLI default: 20k gates, 8
    blocks, seed 0."""
    t_compile = best_compile(lambda: soc_netlist(
        get_node("65nm"), target_gates=20_000, n_blocks=8, seed=0))
    print(f"\nCLI-default SoC (20k gates) compile="
          f"{t_compile * 1e3:.1f} ms")
    record_ssta(soc_gates=20_000,
                soc_compile_ms=round(t_compile * 1e3, 1))
