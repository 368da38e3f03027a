"""Fault-tolerant sharded execution of batched Monte Carlo workloads.

The paper's headline numbers are all Monte Carlo statistics -- yield
vs node, chain sign-off, substrate noise -- and at sign-off scale
those runs move onto many workers, where workers crash, hang, and
occasionally return garbage.  This package makes that regime safe
without touching a single published number:

* :mod:`~repro.exec.shards` -- deterministic balanced shard plans;
* :mod:`~repro.exec.workloads` -- shardable workloads with exact
  merge rules (concatenation, integer count addition);
* :mod:`~repro.exec.policy` -- per-shard timeout + bounded
  exponential back-off retry;
* :mod:`~repro.exec.checkpoint` -- atomic JSON shard checkpoints for
  ``--resume``;
* :mod:`~repro.exec.chaos` -- seeded crash/hang/poison injection
  (``REPRO_CHAOS_SEED`` arms it suite-wide);
* :mod:`~repro.exec.runner` -- :func:`run_sharded`, which ties it
  together and degrades gracefully to a typed
  :class:`~repro.exec.result.PartialResult` with binomial yield
  bounds when shards exhaust their retries.

The package-wide guarantee, pinned by ``tests/exec``: under a fixed
seed, sharded results are bit-for-bit the single-process results,
for any shard count, worker failure order, or retry history.
"""

from .chaos import (CHAOS_ENV_VAR, FAULT_KINDS, ChaosPlan, ChaosSpec,
                    chaos_from_env, poison_payload)
from .checkpoint import ShardCheckpoint, run_key
from .policy import RetryPolicy
from .result import (ConfidenceBounds, ExecResult, PartialResult,
                     ShardOutcome, clopper_pearson_interval,
                     wilson_interval)
from .runner import run_sharded
from .shards import Shard, plan_shards
from .workloads import (YIELD_METRICS, ChainSignoffWorkload,
                        ShardWorkload, SocNoiseWorkload, YieldWorkload)

__all__ = [
    "CHAOS_ENV_VAR", "FAULT_KINDS", "ChaosPlan", "ChaosSpec",
    "chaos_from_env", "poison_payload",
    "ShardCheckpoint", "run_key",
    "RetryPolicy",
    "ConfidenceBounds", "ExecResult", "PartialResult",
    "ShardOutcome", "clopper_pearson_interval", "wilson_interval",
    "run_sharded",
    "Shard", "plan_shards",
    "YIELD_METRICS", "ChainSignoffWorkload", "ShardWorkload",
    "SocNoiseWorkload", "YieldWorkload",
]
