"""Retry/timeout policy for sharded Monte Carlo execution.

A :class:`RetryPolicy` is pure configuration: how many times a failed
shard may be re-attempted, how long a single attempt may run, and how
the back-off between attempts grows.  It owns no state -- the runner
(:mod:`repro.exec.runner`) tracks attempt counts per shard -- so one
policy object can safely govern every shard of a run.

Retries never touch the determinism contract: a retried shard replays
the *same* SeedSequence child stream as the original attempt (the
workload rebuilds its sampler from the fixed seed on every attempt),
so a result that survives three crashes is bit-for-bit the result
that would have come back first try.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..robust.errors import ModelDomainError
from ..robust.validate import check_finite, check_non_negative


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats a failing shard.

    ``max_retries`` is the number of *re*-attempts: a shard runs at
    most ``max_retries + 1`` times.  ``timeout_s=None`` disables the
    per-attempt wall-clock limit (hang injection is then remapped to
    a crash by the chaos layer so tests cannot dead-lock).  Back-off
    before re-attempt ``k`` (1-based) is
    ``min(backoff_initial_s * backoff_factor**(k-1), backoff_max_s)``.
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None
    backoff_initial_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.max_retries, bool) or not isinstance(
                self.max_retries, int) or self.max_retries < 0:
            raise ModelDomainError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}")
        if self.timeout_s is not None:
            check_finite("timeout_s", self.timeout_s)
            if self.timeout_s <= 0.0:
                raise ModelDomainError(
                    f"timeout_s must be positive or None, got "
                    f"{self.timeout_s!r}")
        check_non_negative("backoff_initial_s", self.backoff_initial_s)
        check_finite("backoff_factor", self.backoff_factor)
        check_non_negative("backoff_max_s", self.backoff_max_s)
        if self.backoff_factor < 1.0:
            raise ModelDomainError(
                f"backoff_factor must be >= 1, got "
                f"{self.backoff_factor!r}")

    @property
    def max_attempts(self) -> int:
        """Total attempts a shard may consume (first try + retries)."""
        return self.max_retries + 1

    def delay_before(self, attempt: int) -> float:
        """Back-off [s] before ``attempt`` (0 = first try, no delay).

        Bounded exponential: attempt 1 waits ``backoff_initial_s``,
        each further attempt doubles (``backoff_factor``) up to
        ``backoff_max_s``.
        """
        if isinstance(attempt, bool) or not isinstance(attempt, int) \
                or attempt < 0:
            raise ModelDomainError(
                f"attempt must be a non-negative integer, got "
                f"{attempt!r}")
        if attempt == 0:
            return 0.0
        delay = self.backoff_initial_s \
            * self.backoff_factor ** (attempt - 1)
        return min(delay, self.backoff_max_s)
