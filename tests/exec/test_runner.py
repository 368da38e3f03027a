"""The tentpole guarantee, pinned.

Under a fixed seed the sharded runner's merged result is bit-for-bit
the single-process oracle's, for any shard count, worker failure
order, or retry history -- including runs where the chaos harness
injects crashes, hangs and poisoned payloads, and runs resumed from
a checkpoint.
"""

import numpy as np
import pytest

from repro.analog.chain import chain_yield_vs_node
from repro.digital.generators import ripple_adder
from repro.digital.ssta import StatisticalTimingAnalyzer
from repro.exec import (ChainSignoffWorkload, ChaosPlan, ChaosSpec,
                        ExecResult, PartialResult, RetryPolicy,
                        SocNoiseWorkload, SstaWorkload, YIELD_METRICS,
                        YieldWorkload, run_sharded)
from repro.perf import cache_stats, clear_caches
from repro.robust import ExecBudgetError, ModelDomainError
from repro.technology import get_node
from repro.variability.statistical import (MonteCarloSampler,
                                           monte_carlo_yield_batch)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Memo hit and miss counts are pinned below; start every test
    from empty caches."""
    clear_caches()
    yield
    clear_caches()


def yield_workload(n_dies=40, seed=7):
    return YieldWorkload(node_name="65nm", metric="vth-shift",
                         limit=0.03, n_dies=n_dies, seed=seed)


def ssta_workload(n_samples=24):
    return SstaWorkload(node_name="65nm", width=4,
                        n_samples=n_samples, seed=5)


def chain_workload(n_dies=8):
    return ChainSignoffWorkload(node_name="65nm", n_dies=n_dies,
                                seed=3)


class ScriptedChaos(ChaosPlan):
    """Chaos with an explicit ``{(shard, attempt): kind}`` table --
    for pinning exact failure orders in tests."""

    def __init__(self, table):
        super().__init__(ChaosSpec(seed=0, crash_rate=0.0,
                                   hang_rate=0.0, poison_rate=0.0))
        self.table = dict(table)

    def fault_for(self, shard_index, attempt):
        return self.table.get((shard_index, attempt))


def run(workload, **kwargs):
    kwargs.setdefault("env_chaos", False)
    return run_sharded(workload, **kwargs)


class TestShardEquivalence:
    """Sharded == single-process, bit for bit."""

    def test_yield_matches_oracle_for_any_shard_count(self):
        workload = yield_workload()
        sampler = MonteCarloSampler(get_node("65nm"), seed=7)
        oracle = monte_carlo_yield_batch(
            sampler, YIELD_METRICS["vth-shift"], 0.03, n_dies=40)
        for n_shards in (1, 2, 3, 5, 8, 40):
            result = run(workload, n_shards=n_shards)
            assert isinstance(result, ExecResult)
            assert np.array_equal(result.value.passed, oracle.passed)
            assert result.value.n_pass == oracle.n_pass
            assert result.value.yield_fraction \
                == oracle.yield_fraction

    def test_ssta_matches_oracle(self):
        workload = ssta_workload()
        analyzer = StatisticalTimingAnalyzer(
            ripple_adder(get_node("65nm"), width=4), seed=5)
        oracle = analyzer.run(24)
        for n_shards in (1, 3, 4):
            merged = run(workload, n_shards=n_shards).value
            assert np.array_equal(merged.samples, oracle.samples)
            assert merged.criticality == oracle.criticality
            assert merged.nominal_delay == oracle.nominal_delay

    def test_chain_signoff_matches_one_shard_run(self):
        workload = chain_workload()
        oracle = run(workload, n_shards=1).value
        sharded = run(workload, n_shards=4).value
        assert sharded == oracle  # dict equality: every field, == bits

    @pytest.mark.parametrize("node_name", ["350nm", "65nm", "32nm"])
    def test_chain_signoff_matches_chain_yield_vs_node(self, node_name):
        workload = ChainSignoffWorkload(node_name=node_name, n_dies=8,
                                        seed=3)
        (row,) = chain_yield_vs_node(nodes=[get_node(node_name)],
                                     n_dies=8, seed=3)
        for n_shards in (1, 3):
            assert run(workload, n_shards=n_shards).value == row


class TestChaosHarness:
    """Crash, hang-timeout and poison are all exercised -- and none
    of them can change a single merged bit."""

    def test_yield_survives_scripted_crash_hang_poison(self):
        workload = yield_workload()
        clean = run(workload, n_shards=4).value
        chaos = ScriptedChaos({(0, 0): "crash", (1, 0): "hang",
                               (2, 0): "poison", (2, 1): "crash"})
        policy = RetryPolicy(max_retries=2, timeout_s=5.0,
                             backoff_initial_s=0.0)
        result = run(workload, n_shards=4, policy=policy, chaos=chaos)
        assert isinstance(result, ExecResult)
        assert np.array_equal(result.value.passed, clean.passed)
        by_index = {o.index: o for o in result.outcomes}
        assert by_index[0].attempts == 2   # crash then success
        assert by_index[1].attempts == 2   # hang then success
        assert by_index[2].attempts == 3   # poison, crash, success
        assert by_index[3].attempts == 1   # untouched

    def test_ssta_survives_seeded_chaos(self):
        workload = ssta_workload()
        clean = run(workload, n_shards=3).value
        policy = RetryPolicy(max_retries=3, timeout_s=5.0,
                             backoff_initial_s=0.0)
        chaos = ChaosPlan(ChaosSpec(seed=11, crash_rate=0.3,
                                    hang_rate=0.2, poison_rate=0.3),
                          policy=policy, recoverable=True)
        result = run(workload, n_shards=3, policy=policy, chaos=chaos)
        assert np.array_equal(result.value.samples, clean.samples)
        assert result.value.criticality == clean.criticality

    def test_chain_signoff_survives_poisoned_workers(self):
        workload = chain_workload()
        clean = run(workload, n_shards=2).value
        chaos = ScriptedChaos({(0, 0): "poison", (1, 0): "poison"})
        result = run(workload, n_shards=2,
                     policy=RetryPolicy(backoff_initial_s=0.0),
                     chaos=chaos)
        assert result.value == clean
        assert all(o.attempts == 2 for o in result.outcomes)

    def test_retry_history_does_not_shift_streams(self):
        """The shard that failed five different ways still replays
        the same stream: heavy chaos == no chaos, bit for bit."""
        workload = yield_workload()
        clean = run(workload, n_shards=5).value
        policy = RetryPolicy(max_retries=6, backoff_initial_s=0.0)
        chaos = ChaosPlan(ChaosSpec(seed=2, crash_rate=0.45,
                                    hang_rate=0.0, poison_rate=0.45),
                          policy=policy, recoverable=True)
        result = run(workload, n_shards=5, policy=policy, chaos=chaos)
        assert result.total_attempts > result.n_shards  # chaos bit
        assert np.array_equal(result.value.passed, clean.passed)


class TestProcessBackend:
    """Real dead workers, really terminated hangs."""

    def test_process_backend_matches_serial(self):
        workload = yield_workload(n_dies=24)
        serial = run(workload, n_shards=3).value
        procs = run(workload, n_shards=3, backend="process").value
        assert np.array_equal(procs.passed, serial.passed)

    def test_real_crash_and_poison_are_retried(self):
        workload = yield_workload(n_dies=24)
        clean = run(workload, n_shards=3).value
        chaos = ScriptedChaos({(0, 0): "crash", (2, 0): "poison"})
        result = run(workload, n_shards=3, backend="process",
                     policy=RetryPolicy(backoff_initial_s=0.0),
                     chaos=chaos)
        assert np.array_equal(result.value.passed, clean.passed)
        by_index = {o.index: o for o in result.outcomes}
        assert by_index[0].attempts == 2
        assert by_index[2].attempts == 2

    def test_payload_larger_than_the_pipe_buffer(self):
        """Each shard sends ~72 KB (8,000 voltage floats), more than a
        64 KiB pipe buffer holds: the parent must read the payload
        before it joins the worker, or the worker never exits."""
        workload = SocNoiseWorkload(target_gates=2000, n_blocks=2,
                                    n_cycles=10)
        serial = run(workload, n_shards=2).value
        result = run(workload, n_shards=2, backend="process",
                     policy=RetryPolicy(timeout_s=5.0, max_retries=0))
        assert isinstance(result, ExecResult)
        assert result.value == serial
        assert [o.attempts for o in result.outcomes] == [1, 1]

    def test_real_hang_is_terminated_at_timeout(self):
        workload = yield_workload(n_dies=12)
        clean = run(workload, n_shards=2).value
        chaos = ScriptedChaos({(1, 0): "hang"})
        result = run(workload, n_shards=2, backend="process",
                     policy=RetryPolicy(timeout_s=0.5,
                                        backoff_initial_s=0.0),
                     chaos=chaos)
        assert np.array_equal(result.value.passed, clean.passed)
        by_index = {o.index: o for o in result.outcomes}
        assert by_index[1].attempts == 2


class TestSocNoiseFlowReplay:
    """A soc-noise run builds its flow once, in ``n_total()``; every
    shard and retry replays it from the one-entry memo keyed on
    ``key()``, and the replayed payloads equal freshly built ones."""

    @staticmethod
    def soc_workload(seed=0):
        return SocNoiseWorkload(target_gates=400, n_blocks=2,
                                n_cycles=4, seed=seed)

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = SocNoiseWorkload._trace_and_swan

        def counted(workload):
            calls.append(workload.seed)
            return build(workload)

        monkeypatch.setattr(SocNoiseWorkload, "_trace_and_swan", counted)
        return calls

    def test_shards_and_retries_replay_one_build(self, builds):
        chaos = ScriptedChaos({(0, 0): "crash", (2, 0): "poison"})
        result = run(self.soc_workload(), n_shards=4, chaos=chaos,
                     policy=RetryPolicy(backoff_initial_s=0.0))
        assert result.total_attempts == 6
        assert builds == [0]

    def test_memo_holds_the_last_run_only(self, builds):
        before = cache_stats()["exec.soc_noise_flows"]
        for seed in (0, 1, 0):
            run(self.soc_workload(seed), n_shards=3)
        after = cache_stats()["exec.soc_noise_flows"]
        assert builds == [0, 1, 0]
        assert after.misses - before.misses == 3
        assert after.hits - before.hits == 3 * 3
        assert after.size == 1

    def test_replayed_payloads_equal_fresh_builds(self):
        memoized = self.soc_workload()
        n_total = memoized.n_total()
        cuts = [0, n_total // 3, n_total]
        for start, stop in zip(cuts, cuts[1:]):
            replayed = memoized.run_shard(start, stop)
            clear_caches()
            assert self.soc_workload().run_shard(start, stop) == replayed


class TestSocNoiseShardStreaming:
    """A soc-noise shard streams its event range through
    ``stream_noise`` in chunks of ``SocNoiseWorkload.chunk_events``
    events, so one shard is the unsharded stream bit for bit, however
    many chunks the trace spans."""

    def test_one_shard_is_the_chunked_stream(self, monkeypatch):
        monkeypatch.setattr(SocNoiseWorkload, "chunk_events", 300)
        workload = SocNoiseWorkload(target_gates=2000, n_blocks=2,
                                    n_cycles=10)
        n_total = workload.n_total()
        assert n_total > 6 * 300
        voltage = workload.run_shard(0, n_total)["voltage"]
        trace, swan = workload._trace_and_swan()
        wave = swan.stream_noise(trace, chunk_events=300)
        assert voltage == wave.voltage.tolist()


class TestCheckpointResume:
    def test_resume_replays_bit_for_bit(self, tmp_path):
        workload = ssta_workload()
        path = str(tmp_path / "ck.json")
        first = run(workload, n_shards=3, checkpoint=path)
        assert all(o.source == "worker" for o in first.outcomes)
        resumed = run(workload, n_shards=3, checkpoint=path,
                      resume=True)
        assert all(o.source == "checkpoint"
                   for o in resumed.outcomes)
        assert np.array_equal(resumed.value.samples,
                              first.value.samples)
        assert resumed.value.criticality == first.value.criticality

    def test_resume_after_partial_run_completes_the_rest(
            self, tmp_path):
        workload = yield_workload()
        path = str(tmp_path / "ck.json")
        clean = run(workload, n_shards=4).value
        # First run: shard 2 exhausts its budget, others checkpoint.
        chaos = ScriptedChaos({(2, a): "crash" for a in range(3)})
        partial = run(workload, n_shards=4, checkpoint=path,
                      policy=RetryPolicy(backoff_initial_s=0.0),
                      chaos=chaos)
        assert isinstance(partial, PartialResult)
        # Second run resumes: only the failed shard re-executes.
        resumed = run(workload, n_shards=4, checkpoint=path,
                      resume=True)
        sources = {o.index: o.source for o in resumed.outcomes}
        assert sources == {0: "checkpoint", 1: "checkpoint",
                           2: "worker", 3: "checkpoint"}
        assert np.array_equal(resumed.value.passed, clean.passed)

    def test_corrupt_checkpoint_shard_is_rerun(self, tmp_path):
        from repro.exec import ShardCheckpoint, run_key
        workload = yield_workload()
        path = str(tmp_path / "ck.json")
        run(workload, n_shards=2, checkpoint=path)
        store = ShardCheckpoint(path)
        key = run_key(workload.name, list(workload.key()), 2)
        store.store(key, 0, 20, {"start": 0, "stop": 20,
                                 "passed": [True]})  # wrong length
        clean = run(workload, n_shards=2).value
        resumed = run(workload, n_shards=2, checkpoint=path,
                      resume=True)
        sources = {o.index: o.source for o in resumed.outcomes}
        assert sources == {0: "worker", 1: "checkpoint"}
        assert np.array_equal(resumed.value.passed, clean.passed)


class TestDegradation:
    def test_partial_result_has_stats_and_bounds(self):
        workload = yield_workload()
        chaos = ScriptedChaos({(1, a): "crash" for a in range(3)})
        partial = run(workload, n_shards=4,
                      policy=RetryPolicy(backoff_initial_s=0.0),
                      chaos=chaos)
        assert isinstance(partial, PartialResult)
        assert partial.n_done == 30 and partial.n_total == 40
        assert [o.index for o in partial.failed] == [1]
        assert partial.failed[0].error_type == "WorkerCrashError"
        assert 0.0 <= partial.statistics["yield_fraction"] <= 1.0
        wilson = partial.yield_bounds["wilson"]
        exact = partial.yield_bounds["clopper_pearson"]
        assert partial.statistics["yield_fraction"] in wilson
        assert exact.lower <= wilson.lower
        assert "#1[10:20] WorkerCrashError" in partial.summary()

    def test_all_shards_failing_raises_budget_error(self):
        workload = yield_workload()
        chaos = ScriptedChaos({(s, a): "crash" for s in range(2)
                               for a in range(3)})
        with pytest.raises(ExecBudgetError):
            run(workload, n_shards=2,
                policy=RetryPolicy(backoff_initial_s=0.0),
                chaos=chaos)

    def test_strict_turns_degradation_into_error(self):
        workload = yield_workload()
        chaos = ScriptedChaos({(1, a): "crash" for a in range(3)})
        with pytest.raises(ExecBudgetError) as excinfo:
            run(workload, n_shards=4, strict=True,
                policy=RetryPolicy(backoff_initial_s=0.0),
                chaos=chaos)
        assert "30/40" in str(excinfo.value)


class TestEnvChaos:
    def test_env_seed_arms_recoverable_chaos(self, monkeypatch):
        from repro.exec import CHAOS_ENV_VAR
        workload = yield_workload()
        clean = run(workload, n_shards=4).value
        monkeypatch.setenv(CHAOS_ENV_VAR, "1234")
        policy = RetryPolicy(max_retries=3, timeout_s=5.0,
                             backoff_initial_s=0.0)
        # env_chaos defaults on
        result = run_sharded(workload, n_shards=4, policy=policy)
        assert isinstance(result, ExecResult)  # recoverable: no loss
        assert np.array_equal(result.value.passed, clean.passed)


class TestRunnerValidation:
    def test_bad_workload_and_backend_are_typed(self):
        with pytest.raises(ModelDomainError):
            run_sharded("not a workload")
        with pytest.raises(ModelDomainError):
            run(yield_workload(), backend="threads")

    def test_unknown_metric_is_typed(self):
        with pytest.raises(ModelDomainError):
            YieldWorkload(node_name="65nm", metric="sigma-vt",
                          limit=0.03)
