"""Confidence bounds, partial results, and the checkpoint store."""

import json
import math
import os

import numpy as np
import pytest

from repro.exec import (ConfidenceBounds, PartialResult,
                        ShardCheckpoint, ShardOutcome,
                        clopper_pearson_interval, run_key,
                        wilson_interval)
from repro.robust import ModelDomainError


class TestBinomialBounds:
    def test_wilson_brackets_the_point_estimate(self):
        bounds = wilson_interval(45, 50)
        assert bounds.lower < 0.9 < bounds.upper
        assert 0.0 <= bounds.lower <= bounds.upper <= 1.0
        assert bounds.method == "wilson"

    def test_clopper_pearson_is_conservative(self):
        wilson = wilson_interval(45, 50)
        exact = clopper_pearson_interval(45, 50)
        assert exact.lower <= wilson.lower
        assert exact.upper >= wilson.upper

    def test_edge_counts(self):
        zero = clopper_pearson_interval(0, 20)
        full = clopper_pearson_interval(20, 20)
        assert zero.lower == 0.0 and zero.upper < 1.0
        assert full.upper == 1.0 and full.lower > 0.0

    def test_narrower_with_more_samples(self):
        small = wilson_interval(9, 10)
        large = wilson_interval(900, 1000)
        assert (large.upper - large.lower) \
            < (small.upper - small.lower)

    def test_contains(self):
        bounds = ConfidenceBounds(0.2, 0.6, 0.95, "wilson")
        assert 0.4 in bounds
        assert 0.7 not in bounds

    def test_bad_counts_are_typed(self):
        with pytest.raises(ModelDomainError):
            wilson_interval(5, 0)
        with pytest.raises(ModelDomainError):
            wilson_interval(6, 5)
        with pytest.raises(ModelDomainError):
            wilson_interval(-1, 5)
        with pytest.raises(ModelDomainError):
            clopper_pearson_interval(5, 10, level=float("nan"))

    @pytest.mark.parametrize("interval", [wilson_interval,
                                          clopper_pearson_interval])
    def test_numpy_integer_counts(self, interval):
        assert interval(np.int64(45), np.int32(50)) == interval(45, 50)
        assert interval(np.uint8(200), 300) == interval(200, 300)

    @pytest.mark.parametrize("interval", [wilson_interval,
                                          clopper_pearson_interval])
    @pytest.mark.parametrize("n_pass", [True, 45.0])
    def test_bool_and_float_counts_are_rejected(self, interval, n_pass):
        with pytest.raises(ModelDomainError, match="non-negative integer"):
            interval(n_pass, 50)


class TestPartialResult:
    def _partial(self):
        outcomes = (
            ShardOutcome(0, 0, 10, True, 1, "worker"),
            ShardOutcome(1, 10, 20, False, 3, "worker",
                         "WorkerCrashError", "boom"),
            ShardOutcome(2, 20, 30, True, 2, "worker"),
        )
        return PartialResult(workload="yield", n_total=30,
                             n_done=20, outcomes=outcomes,
                             statistics={"yield_fraction": 0.9})

    def test_partitions_outcomes(self):
        partial = self._partial()
        assert [o.index for o in partial.completed] == [0, 2]
        assert [o.index for o in partial.failed] == [1]
        assert partial.coverage == pytest.approx(20 / 30)

    def test_summary_names_failed_shards(self):
        text = self._partial().summary()
        assert "20/30" in text
        assert "#1[10:20] WorkerCrashError" in text
        assert "Traceback" not in text


class TestShardCheckpoint:
    def test_round_trips_float64_exactly(self, tmp_path):
        store = ShardCheckpoint(str(tmp_path / "ck.json"))
        values = list(np.random.default_rng(3).standard_normal(16))
        payload = {"start": 0, "stop": 16,
                   "samples": [float(v) for v in values]}
        store.store("run", 0, 16, payload)
        loaded = store.load("run")["0:16"]
        assert loaded["samples"] == payload["samples"]
        recovered = np.asarray(loaded["samples"])
        assert np.array_equal(recovered, np.asarray(values))

    def test_stores_accumulate_per_run(self, tmp_path):
        store = ShardCheckpoint(str(tmp_path / "ck.json"))
        store.store("a", 0, 5, {"x": 1})
        store.store("a", 5, 10, {"x": 2})
        store.store("b", 0, 5, {"x": 3})
        assert set(store.load("a")) == {"0:5", "5:10"}
        assert store.shard_payload("b", 0, 5) == {"x": 3}
        assert store.shard_payload("a", 99, 100) is None

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "ck.json"
        store = ShardCheckpoint(str(path))
        store.store("a", 0, 5, {"x": 1})
        leftovers = [name for name in os.listdir(tmp_path)
                     if name != "ck.json"]
        assert leftovers == []
        assert json.loads(path.read_text())["a"]["0:5"] == {"x": 1}

    def test_corrupt_file_is_typed(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(ModelDomainError):
            ShardCheckpoint(str(path)).load("a")

    def test_bad_path_is_typed(self, tmp_path):
        (tmp_path / "file").write_text("")
        for bad in ("", str(tmp_path / "missing" / "ck.json"),
                    str(tmp_path / "file" / "ck.json"), str(tmp_path)):
            with pytest.raises(ModelDomainError):
                ShardCheckpoint(bad)

    def test_failed_write_is_typed(self, tmp_path):
        directory = tmp_path / "gone"
        directory.mkdir()
        store = ShardCheckpoint(str(directory / "ck.json"))
        directory.rmdir()
        with pytest.raises(ModelDomainError, match="ck.json"):
            store.store("a", 0, 5, {"x": 1})


class TestRunKey:
    def test_stable_across_calls(self):
        assert run_key("yield", ["65nm", 100, 7], 4) \
            == run_key("yield", ["65nm", 100, 7], 4)

    def test_sensitive_to_every_component(self):
        base = run_key("yield", ["65nm", 100, 7], 4)
        assert run_key("ssta", ["65nm", 100, 7], 4) != base
        assert run_key("yield", ["65nm", 101, 7], 4) != base
        assert run_key("yield", ["65nm", 100, 7], 5) != base

    def test_unserializable_key_is_typed(self):
        with pytest.raises(ModelDomainError):
            run_key("yield", [object()], 1)


def test_nan_statistics_allowed_in_partial():
    """Degraded statistics may legitimately be NaN (0 completed
    units of a sub-metric) -- the dataclass must not reject them."""
    partial = PartialResult(
        workload="w", n_total=10, n_done=0, outcomes=(),
        statistics={"enob_mean": float("nan")})
    assert math.isnan(partial.statistics["enob_mean"])
