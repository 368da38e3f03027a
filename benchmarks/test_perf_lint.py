"""Performance benchmark of the incremental lint cache.

Every rule reads whole-project file summaries; the cold path parses
every module under ``src/repro``, ``benchmarks``, ``examples`` and
``perfbench`` (the trees CI lints) while the warm path replays
content-hashed summaries from ``.replint_cache``-style directories
without touching ``ast.parse``.  The gate runs twice: for the semantic
rules alone and for every rule (the CI gate's command).  As with the
other perf benchmarks, the speedup gate uses its own
``time.perf_counter`` measurement so it holds even under
``--benchmark-disable``.
"""

import shutil
import time
from pathlib import Path

import pytest

from conftest import record_bench
from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
TREES = [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks",
         REPO_ROOT / "examples", REPO_ROOT / "perfbench"]
SEMANTIC_RULES = ["R002", "R008", "R009", "R010"]


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="perf_lint")
@pytest.mark.parametrize("rules, key", [
    (SEMANTIC_RULES, "lint_semantic_warm_cache"),
    (None, "lint_all_rules_warm_cache"),
], ids=["semantic", "all-rules"])
def test_warm_cache_run_speedup(benchmark, tmp_path, rules, key):
    """Acceptance: a warm-cache lint run >= 3x a cold run."""
    cache_dir = tmp_path / "cache"

    def cold():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return run_lint(TREES, select=rules, cache_dir=cache_dir)

    def warm():
        return run_lint(TREES, select=rules, cache_dir=cache_dir)

    cold_report = cold()     # leaves the cache populated for ``warm``
    warm_report = benchmark(warm)
    assert cold_report.exit_code == warm_report.exit_code == 0
    assert [f.to_dict() for f in cold_report.findings] \
        == [f.to_dict() for f in warm_report.findings]

    t_cold = best_of(cold, repeats=2)
    cold()                   # repopulate after the timed cold runs
    t_warm = best_of(warm)
    speedup = t_cold / t_warm
    label = "semantic" if rules else "all-rule"
    print(f"\n{label} lint over the four trees: "
          f"cold={t_cold * 1e3:.0f} ms warm={t_warm * 1e3:.0f} ms "
          f"speedup={speedup:.1f}x")
    record_bench(key, {
        "tree": "src/repro benchmarks examples perfbench",
        "rules": rules or "all",
        "cold_ms": round(t_cold * 1e3, 2),
        "warm_ms": round(t_warm * 1e3, 2),
        "speedup": round(speedup, 2),
        "gate": ">=3x",
    })
    assert speedup >= 3.0
