"""Bit-packed pass vectors in yield and chain sign-off payloads.

``passed`` travels as ``np.packbits(passed).tolist()``: ``ceil(n / 8)``
ints in 0-255, MSB first, with the padding bits of the last byte clear.
Validation rejects anything else as a poisoned payload, and merging
unpacks exactly the shard's ``stop - start`` flags.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (ChainSignoffWorkload, RetryPolicy,
                        ShardCheckpoint, YieldWorkload, run_key,
                        run_sharded)
from repro.exec.chaos import CHAOS_ENV_VAR, chaos_from_env, poison_payload
from repro.perf import clear_caches
from repro.robust import PoisonedResultError


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def yield_workload(n_dies=40, seed=7):
    return YieldWorkload(node_name="65nm", metric="vth-shift",
                         limit=0.03, n_dies=n_dies, seed=seed)


def chain_workload(n_dies=8):
    return ChainSignoffWorkload(node_name="65nm", n_dies=n_dies, seed=3)


def yield_payload(passed, start):
    return {"start": start, "stop": start + len(passed),
            "passed": np.packbits(passed).tolist()}


def chain_payload(passed, start):
    payload = yield_payload(passed, start)
    values = [0.25 * (start + k) for k in range(len(passed))]
    payload.update(enob=values, dnl_max=values, inl_max=values)
    return payload


@st.composite
def partitioned_populations(draw):
    """A pass vector of 1-70 flags and sorted interior cut points."""
    n = draw(st.integers(min_value=1, max_value=70))
    passed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=n - 1),
                         unique=True, max_size=5).map(sorted)
                if n > 1 else st.just([]))
    return np.array(passed, dtype=bool), [0] + cuts + [n]


@given(population=partitioned_populations())
@settings(max_examples=200, deadline=None)
def test_pack_validate_merge_round_trip(population):
    passed, edges = population
    spans = list(zip(edges, edges[1:]))
    for workload, build in ((yield_workload(n_dies=passed.size),
                             yield_payload),
                            (chain_workload(n_dies=passed.size),
                             chain_payload)):
        payloads = [build(passed[start:stop], start)
                    for start, stop in spans]
        for payload, (start, stop) in zip(payloads, spans):
            workload.validate_payload(payload, start, stop)
            segment = passed[start:stop]
            assert workload.pass_counts(payload) == (
                int(segment.sum()), segment.size)
        merged = workload.merge(payloads)
        if isinstance(workload, YieldWorkload):
            assert np.array_equal(merged.passed, passed)
            assert merged.n_pass == int(passed.sum())
        else:
            assert merged["yield_fraction"] == passed.mean()
            assert merged["n_dies"] == float(passed.size)


def packed_11_flags():
    """A valid packed byte list of 11 flags (5 padding bits)."""
    return np.packbits(np.array([True, False] * 5 + [True])).tolist()


@pytest.mark.parametrize("corrupt", [
    lambda v: v[:-1],                  # one byte too few
    lambda v: v + [0],                 # one byte too many
    lambda v: [True] + v[1:],          # a bool is not a byte
    lambda v: [float(v[0])] + v[1:],   # nor is a float
    lambda v: [256] + v[1:],
    lambda v: [-1] + v[1:],
    lambda v: v[:-1] + [v[-1] | 1],    # a padding bit set
    lambda v: tuple(v),                # not a list
    lambda v: [bool(b) for b in np.unpackbits(
        np.array(v, dtype=np.uint8), count=11)],   # bool list format
], ids=["short", "long", "bool", "float", "256", "negative", "padding",
        "tuple", "bool-list"])
@pytest.mark.parametrize("workload, build", [
    (yield_workload(n_dies=11), yield_payload),
    (chain_workload(n_dies=11), chain_payload),
], ids=["yield", "chain"])
def test_validation_rejects_corrupt_bytes(workload, build, corrupt):
    passed = np.array([True, False] * 5 + [True])
    payload = build(passed, 0)
    assert payload["passed"] == packed_11_flags()
    workload.validate_payload(payload, 0, 11)
    payload["passed"] = corrupt(payload["passed"])
    with pytest.raises(PoisonedResultError):
        workload.validate_payload(payload, 0, 11)


def test_bool_list_checkpoint_is_rerun(tmp_path):
    workload = yield_workload()
    path = str(tmp_path / "ck.json")
    clean = run_sharded(workload, n_shards=2, env_chaos=False).value
    store = ShardCheckpoint(path)
    key = run_key(workload.name, list(workload.key()), 2)
    for start, stop in ((0, 20), (20, 40)):
        store.store(key, start, stop, {
            "start": start, "stop": stop,
            "passed": [bool(ok) for ok in clean.passed[start:stop]]})
    resumed = run_sharded(workload, n_shards=2, checkpoint=path,
                          resume=True, env_chaos=False)
    assert [o.source for o in resumed.outcomes] == ["worker", "worker"]
    assert np.array_equal(resumed.value.passed, clean.passed)
    # The re-run shards replaced the old-format entries.
    assert store.shard_payload(key, 0, 20)["passed"] == np.packbits(
        clean.passed[:20]).tolist()


def test_poisoned_byte_list_is_truncated_and_rejected():
    workload = yield_workload()
    payload = workload.run_shard(0, 20)
    poisoned = poison_payload(payload)
    assert poisoned["passed"] == payload["passed"][:-1]
    with pytest.raises(PoisonedResultError):
        workload.validate_payload(poisoned, 0, 20)


def test_env_chaos_poison_is_retried(monkeypatch):
    n_shards = 4
    policy = RetryPolicy(backoff_initial_s=0.0)
    # The first chaos seed whose plan poisons some shard's first try.
    seed = next(
        seed for seed in range(1000)
        if any(chaos_from_env(policy, {CHAOS_ENV_VAR: str(seed)})
               .fault_for(index, 0) == "poison"
               for index in range(n_shards)))
    plan = chaos_from_env(policy, {CHAOS_ENV_VAR: str(seed)})
    poisoned = [index for index in range(n_shards)
                if plan.fault_for(index, 0) == "poison"]
    workload = yield_workload()
    clean = run_sharded(workload, n_shards=n_shards,
                        env_chaos=False).value
    monkeypatch.setenv(CHAOS_ENV_VAR, str(seed))
    chaotic = run_sharded(workload, n_shards=n_shards, policy=policy)
    for index in poisoned:
        assert chaotic.outcomes[index].attempts >= 2
    assert np.array_equal(chaotic.value.passed, clean.passed)
