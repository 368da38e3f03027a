"""Semantics of repro.robust.rng: the one sanctioned Generator source."""

import numpy as np
import pytest

from repro.robust.errors import ModelDomainError
from repro.robust.rng import (DEFAULT_ROOT_SEED, reseed, resolve_rng,
                              spawn_seed)


@pytest.fixture(autouse=True)
def _restore_root():
    yield
    reseed()


class TestResolveRng:
    def test_injected_generator_wins(self):
        rng = np.random.default_rng(3)
        assert resolve_rng(rng, seed=99) is rng

    def test_explicit_seed_matches_default_rng_exactly(self):
        a = resolve_rng(seed=42).standard_normal(16)
        b = np.random.default_rng(42).standard_normal(16)
        assert np.array_equal(a, b)

    def test_numpy_integer_seed_accepted(self):
        a = resolve_rng(seed=np.int64(7)).standard_normal(4)
        b = np.random.default_rng(7).standard_normal(4)
        assert np.array_equal(a, b)

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(11)
        a = resolve_rng(seed=ss).standard_normal(4)
        b = np.random.default_rng(np.random.SeedSequence(11)).standard_normal(4)
        assert np.array_equal(a, b)

    def test_unseeded_is_deterministic_across_runs(self):
        reseed()
        first = [resolve_rng().standard_normal(4) for _ in range(3)]
        reseed()
        second = [resolve_rng().standard_normal(4) for _ in range(3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_unseeded_calls_get_independent_streams(self):
        reseed()
        a = resolve_rng().standard_normal(8)
        b = resolve_rng().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_reseed_changes_the_stream(self):
        reseed(1)
        a = resolve_rng().standard_normal(4)
        reseed(2)
        b = resolve_rng().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_bad_rng_rejected(self):
        with pytest.raises(ModelDomainError):
            resolve_rng(rng=np.random.RandomState(0))  # replint: disable=R001 -- legacy object constructed only to prove it is rejected

    @pytest.mark.parametrize("bad", [1.5, "x", True, float("nan"), -1])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(ModelDomainError):
            resolve_rng(seed=bad)

    def test_bad_root_seed_rejected(self):
        with pytest.raises(ModelDomainError):
            reseed("not-a-seed")


def test_spawn_seed_advances():
    reseed(DEFAULT_ROOT_SEED)
    a, b = spawn_seed(), spawn_seed()
    assert a.spawn_key != b.spawn_key
