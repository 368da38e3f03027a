"""Unit tests of the ``repro.perf`` cache and profiling utilities."""

import time

import pytest

from repro.perf import (KeyedCache, cache_registry, cache_stats,
                        clear_caches, memoized, profile_registry,
                        profile_report, reset_profile, timed)
from repro.perf.cache import _REGISTRY


@pytest.fixture()
def scratch_cache():
    cache = KeyedCache("test.scratch")
    yield cache
    _REGISTRY.pop("test.scratch", None)


class TestKeyedCache:
    def test_hit_and_miss_counters(self, scratch_cache):
        calls = []
        for _ in range(3):
            value = scratch_cache.get_or_compute(
                ("a", 1), lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        stats = scratch_cache.stats
        assert stats.hits == 2 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_maxsize_evicts_oldest(self):
        cache = KeyedCache("test.bounded", maxsize=2)
        try:
            cache.get_or_compute("a", lambda: 1)
            cache.get_or_compute("b", lambda: 2)
            cache.get_or_compute("c", lambda: 3)
            assert "a" not in cache
            assert "b" in cache and "c" in cache
            assert len(cache) == 2
        finally:
            _REGISTRY.pop("test.bounded", None)

    def test_duplicate_name_rejected(self, scratch_cache):
        with pytest.raises(ValueError):
            KeyedCache("test.scratch")

    def test_registry_and_clear(self, scratch_cache):
        scratch_cache.get_or_compute("k", lambda: "v")
        assert cache_registry()["test.scratch"] is scratch_cache
        clear_caches()
        assert len(scratch_cache) == 0
        # Counters survive a clear.
        assert cache_stats()["test.scratch"].misses == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            KeyedCache("test.badsize", maxsize=0)


class TestMemoized:
    def test_memoizes_by_arguments(self):
        calls = []

        @memoized("test.memoized_fn")
        def expensive(a, b=1):
            calls.append((a, b))
            return a + b

        try:
            assert expensive(1) == 2
            assert expensive(1) == 2
            assert expensive(1, b=2) == 3
            assert calls == [(1, 1), (1, 2)]
            assert expensive.cache.stats.hits == 1
        finally:
            _REGISTRY.pop("test.memoized_fn", None)

    def test_exceptions_not_cached(self):
        calls = []

        @memoized("test.memoized_raises")
        def flaky(x):
            calls.append(x)
            if len(calls) == 1:
                raise RuntimeError("first call fails")
            return x

        try:
            with pytest.raises(RuntimeError):
                flaky(5)
            assert flaky(5) == 5
            assert len(calls) == 2
        finally:
            _REGISTRY.pop("test.memoized_raises", None)


class TestProductionCaches:
    def test_characterization_cache_hits_across_instances(self):
        from repro.substrate.injection import characterize_cell
        from repro.technology import get_node

        node = get_node("130nm")
        before = characterize_cell.cache.stats
        first = characterize_cell(node, "NAND2")
        again = characterize_cell(node, "NAND2")
        assert again is first
        after = characterize_cell.cache.stats
        assert after.hits >= before.hits + 1

    def test_get_node_returns_shared_instance(self):
        from repro.technology import get_node

        assert get_node("65nm") is get_node("65nm")

    def test_node_derived_properties_are_lazy_and_stable(self):
        from repro.technology import get_node

        node = get_node("90nm")
        assert node.cox == node.cox
        assert node.depletion_depth == node.depletion_depth
        # Derived variants compute their own values.
        thick = node.with_overrides(tox=node.tox * 2.0)
        assert thick.cox == pytest.approx(node.cox / 2.0)


class TestTimed:
    def test_context_manager_records(self):
        reset_profile()
        with timed("test.section"):
            time.sleep(0.002)
        record = profile_registry()["test.section"]
        assert record.calls == 1
        assert record.total_seconds >= 0.002
        assert record.min_seconds <= record.max_seconds

    def test_decorator_records_each_call(self):
        reset_profile()

        @timed("test.decorated")
        def work():
            return 13

        assert work() == 13 and work() == 13
        record = profile_registry()["test.decorated"]
        assert record.calls == 2
        assert record.mean_seconds == pytest.approx(
            record.total_seconds / 2)

    def test_lowering_layers_are_timed(self):
        from repro.digital import CompiledEventEngine, ripple_adder
        from repro.substrate.swan import SwanSimulator
        from repro.technology import get_node

        def calls(name):
            record = profile_registry().get(name)
            return record.calls if record else 0

        netlist = ripple_adder(get_node("65nm"), width=2)
        before = calls("digital.compile"), calls("swan.init")
        CompiledEventEngine(netlist)
        SwanSimulator(netlist, mesh_resolution=4, seed=0)
        assert (calls("digital.compile"), calls("swan.init")) \
            == (before[0] + 1, before[1] + 1)

    def test_report_lists_sections_sorted(self):
        reset_profile()
        with timed("test.slow"):
            time.sleep(0.002)
        with timed("test.fast"):
            pass
        report = profile_report()
        assert report.index("test.slow") < report.index("test.fast")
        reset_profile()
        assert profile_report() == "(no timed sections)"
