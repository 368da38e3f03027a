"""Deterministic chaos injection for the sharded execution layer.

Fault tolerance that is only exercised by real failures is untested
fault tolerance.  This module injects worker crashes, hangs and
poisoned (corrupted) payloads on a *seeded schedule*: the fault for
``(shard, attempt)`` is drawn from ``SeedSequence([seed, shard,
attempt])``, so the schedule depends only on the chaos seed and the
shard's identity -- never on scheduling order, worker count, or which
other shards failed first.  Re-running a chaotic run replays the
exact same faults, which is what lets the test suite pin the hard
guarantee: results with chaos are bit-for-bit results without chaos.

``REPRO_CHAOS_SEED`` (read by :func:`chaos_from_env`) turns chaos on
for an entire test run -- the CI chaos job sets it while running the
tier-1 suite.  Environment-driven plans are always *recoverable*:
injection stops one attempt short of the retry budget (and hangs are
remapped to crashes when no timeout is armed), so the suite must stay
green under chaos by surviving the faults, not by avoiding them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..robust.errors import ModelDomainError
from .policy import RetryPolicy

#: Fault kinds, in the order the schedule's uniform draw selects them.
FAULT_KINDS = ("crash", "hang", "poison")

#: Environment variable enabling suite-wide chaos (integer seed).
CHAOS_ENV_VAR = "REPRO_CHAOS_SEED"


def check_fault_rates(crash_rate: float, hang_rate: float,
                      poison_rate: float) -> None:
    """Require each rate to be a fraction in [0, 1] and their sum
    to be at most 1."""
    total = 0.0
    for name, value in (("crash_rate", crash_rate),
                        ("hang_rate", hang_rate),
                        ("poison_rate", poison_rate)):
        if isinstance(value, bool) or not isinstance(
                value, (int, float)) or not math.isfinite(value) \
                or not 0.0 <= value <= 1.0:
            raise ModelDomainError(
                f"{name} must be a fraction in [0, 1], got {value!r}")
        total += float(value)
    if total > 1.0:
        raise ModelDomainError(
            f"fault rates must sum to <= 1, got {total:.3g}")


@dataclass(frozen=True)
class ChaosSpec:
    """Fault mix of a chaos plan (per-attempt injection rates)."""

    seed: int
    crash_rate: float = 0.2
    hang_rate: float = 0.1
    poison_rate: float = 0.2

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(
                self.seed, (int, np.integer)) or self.seed < 0:
            raise ModelDomainError(
                f"chaos seed must be a non-negative integer, got "
                f"{self.seed!r}")
        check_fault_rates(self.crash_rate, self.hang_rate,
                          self.poison_rate)

    @property
    def total_rate(self) -> float:
        """Probability any fault fires on one attempt."""
        return self.crash_rate + self.hang_rate + self.poison_rate


class ChaosPlan:
    """A seeded, order-independent fault schedule.

    ``recoverable=True`` (the environment/CI mode) clamps injection
    so every shard can still succeed within its retry budget: no
    fault on a shard's final allowed attempt, no faults at all when
    the policy allows no retries, and hangs remapped to crashes when
    the policy arms no timeout.  Explicit plans built by tests keep
    ``recoverable=False`` to exercise the degraded paths.
    """

    def __init__(self, spec: ChaosSpec,
                 policy: Optional[RetryPolicy] = None,
                 recoverable: bool = False):
        self.spec = spec
        self.policy = policy
        self.recoverable = bool(recoverable)
        if self.recoverable and policy is None:
            raise ModelDomainError(
                "a recoverable chaos plan needs the RetryPolicy it "
                "must stay within")

    def fault_for(self, shard_index: int,
                  attempt: int) -> Optional[str]:
        """The fault to inject on ``(shard, attempt)``, or ``None``.

        Pure function of ``(seed, shard_index, attempt)``: the draw
        comes from a dedicated ``SeedSequence`` child, so no other
        shard's history (or the global RNG state) can perturb it.
        """
        for name, value in (("shard_index", shard_index),
                            ("attempt", attempt)):
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)) or value < 0:
                raise ModelDomainError(
                    f"{name} must be a non-negative integer, got "
                    f"{value!r}")
        if self.recoverable:
            if self.policy.max_retries == 0:
                return None
            if attempt >= self.policy.max_retries:
                return None     # final allowed attempt must succeed
        seq = np.random.SeedSequence(
            [int(self.spec.seed), int(shard_index), int(attempt)])
        draw = float(np.random.Generator(
            np.random.PCG64(seq)).random())
        edges = (self.spec.crash_rate,
                 self.spec.crash_rate + self.spec.hang_rate,
                 self.spec.total_rate)
        fault: Optional[str] = None
        for kind, edge in zip(FAULT_KINDS, edges):
            if draw < edge:
                fault = kind
                break
        if fault == "hang" and (self.policy is None
                                or self.policy.timeout_s is None):
            fault = "crash" if self.recoverable else fault
        return fault


def chaos_from_env(policy: RetryPolicy,
                   environ: Optional[Dict[str, str]] = None
                   ) -> Optional[ChaosPlan]:
    """The suite-wide chaos plan, or ``None`` when chaos is off.

    Reads :data:`CHAOS_ENV_VAR`; a malformed value raises (a chaos
    run that silently runs fault-free would defeat the CI job's
    purpose).  The returned plan is always recoverable.
    """
    raw = (environ if environ is not None else os.environ).get(
        CHAOS_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ModelDomainError(
            f"{CHAOS_ENV_VAR} must be an integer seed, got {raw!r}")
    if seed < 0:
        raise ModelDomainError(
            f"{CHAOS_ENV_VAR} must be non-negative, got {seed}")
    return ChaosPlan(ChaosSpec(seed=seed), policy=policy,
                     recoverable=True)


def poison_payload(payload: Any) -> Any:
    """Corrupt a shard payload the way a sick worker would.

    Deterministic: the first float found in a list-valued entry is
    replaced with NaN; if the payload has no float lists, the first
    list is truncated instead.  Either corruption must be caught by
    the workload's ``validate_payload`` -- that is the contract the
    chaos tests assert.
    """
    if not isinstance(payload, dict):
        raise ModelDomainError(
            f"can only poison dict payloads, got {type(payload)!r}")
    poisoned = {key: (list(value) if isinstance(value, list)
                      else value)
                for key, value in payload.items()}
    for value in poisoned.values():
        if isinstance(value, list) and value and isinstance(
                value[0], float) and math.isfinite(value[0]):
            value[0] = float("nan")
            return poisoned
    for value in poisoned.values():
        if isinstance(value, list) and value:
            value.pop()
            return poisoned
    raise ModelDomainError(
        "payload has no poisonable entries -- workloads must carry "
        "at least one list of numbers")
