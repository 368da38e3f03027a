"""Typed results of a sharded run, including graceful degradation.

A fully successful run returns :class:`ExecResult` -- the merged
workload value plus the per-shard execution history.  When shards
exhaust their retry budget the runner degrades to
:class:`PartialResult`: statistics over the *completed* shards only,
with honest yield confidence bounds (Wilson and Clopper-Pearson) that
reflect the reduced sample count, and the failed shards listed so a
later ``--resume`` can finish the job from the checkpoint.

The binomial intervals are textbook:

* :func:`wilson_interval` -- the score interval, good coverage even
  for small ``n`` and extreme yields;
* :func:`clopper_pearson_interval` -- the exact (conservative) beta
  inversion, the sign-off-grade bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..robust.errors import ModelDomainError
from ..robust.validate import check_fraction


@dataclass(frozen=True)
class ConfidenceBounds:
    """A two-sided binomial confidence interval on a yield fraction."""

    lower: float
    upper: float
    level: float            # e.g. 0.95
    method: str             # "wilson" | "clopper-pearson"

    def __contains__(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _check_counts(n_pass: int, n: int) -> Tuple[int, int]:
    """Validate a pass count and sample size.

    Python and numpy integers are accepted; bools and floats (even
    integral ones) are not.  Returns Python ints, so fixed-width numpy
    counts cannot wrap or overflow in the interval arithmetic.
    """
    for name, value in (("n_pass", n_pass), ("n", n)):
        if isinstance(value, bool) \
                or not isinstance(value, (int, np.integer)) or value < 0:
            raise ModelDomainError(
                f"{name} must be a non-negative integer, got "
                f"{value!r}")
    if n == 0:
        raise ModelDomainError("cannot bound a yield on 0 samples")
    if n_pass > n:
        raise ModelDomainError(
            f"n_pass={n_pass} exceeds n={n}")
    return int(n_pass), int(n)


def wilson_interval(n_pass: int, n: int,
                    level: float = 0.95) -> ConfidenceBounds:
    """Wilson score interval for ``n_pass`` successes in ``n``."""
    n_pass, n = _check_counts(n_pass, n)
    level = check_fraction("level", level)
    if not 0.0 < level < 1.0:
        raise ModelDomainError("level must be in (0, 1)")
    from scipy.stats import norm
    z = float(norm.ppf(0.5 + level / 2.0))
    p = n_pass / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(
        p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return ConfidenceBounds(lower=max(0.0, center - half),
                            upper=min(1.0, center + half),
                            level=level, method="wilson")


def clopper_pearson_interval(n_pass: int, n: int,
                             level: float = 0.95) -> ConfidenceBounds:
    """Exact (Clopper-Pearson) binomial interval via beta inversion."""
    n_pass, n = _check_counts(n_pass, n)
    level = check_fraction("level", level)
    if not 0.0 < level < 1.0:
        raise ModelDomainError("level must be in (0, 1)")
    from scipy.stats import beta
    alpha = 1.0 - level
    lower = 0.0 if n_pass == 0 else float(
        beta.ppf(alpha / 2.0, n_pass, n - n_pass + 1))
    upper = 1.0 if n_pass == n else float(
        beta.ppf(1.0 - alpha / 2.0, n_pass + 1, n - n_pass))
    return ConfidenceBounds(lower=lower, upper=upper,
                            level=level, method="clopper-pearson")


@dataclass(frozen=True)
class ShardOutcome:
    """Execution history of one shard (success or exhaustion)."""

    index: int
    start: int
    stop: int
    ok: bool
    attempts: int               # attempts actually consumed
    source: str                 # "worker" | "checkpoint"
    error_type: str = ""        # last error class name when not ok
    error_message: str = ""

    @property
    def size(self) -> int:
        """Population units covered by this shard."""
        return self.stop - self.start


@dataclass(frozen=True)
class ExecResult:
    """A fully completed sharded run.

    ``value`` is the workload's merged result -- bit-for-bit the
    single-process result under the same seed, whatever the shard
    count or failure history (the determinism contract of
    :mod:`repro.exec`).
    """

    workload: str
    value: Any
    outcomes: Tuple[ShardOutcome, ...]
    n_total: int

    @property
    def n_shards(self) -> int:
        """Number of shards the run was split into."""
        return len(self.outcomes)

    @property
    def total_attempts(self) -> int:
        """Attempts summed over shards (retries included)."""
        return sum(outcome.attempts for outcome in self.outcomes)


@dataclass(frozen=True)
class PartialResult:
    """A degraded run: some shards exhausted their retry budget.

    ``statistics`` summarizes the completed shards only (the
    workload decides what is meaningful to report on a partial
    population); ``yield_bounds`` carries Wilson and Clopper-Pearson
    intervals on the pass fraction when the workload exposes pass
    counts.  ``failed`` names the shards a ``--resume`` run still has
    to execute.
    """

    workload: str
    n_total: int
    n_done: int                 # population units completed
    outcomes: Tuple[ShardOutcome, ...]
    statistics: Dict[str, float] = field(default_factory=dict)
    yield_bounds: Optional[Dict[str, ConfidenceBounds]] = None

    @property
    def failed(self) -> Tuple[ShardOutcome, ...]:
        """The shards that exhausted their retry budget."""
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def completed(self) -> Tuple[ShardOutcome, ...]:
        """The shards that produced a validated payload."""
        return tuple(o for o in self.outcomes if o.ok)

    @property
    def coverage(self) -> float:
        """Fraction of the population actually evaluated."""
        return self.n_done / self.n_total if self.n_total else 0.0

    def summary(self) -> str:
        """One-line human summary (CLI degraded-mode output)."""
        failed = ", ".join(
            f"#{o.index}[{o.start}:{o.stop}] {o.error_type}"
            for o in self.failed)
        return (f"partial result: {self.n_done}/{self.n_total} "
                f"{self.workload} units over "
                f"{len(self.completed)}/{len(self.outcomes)} shards; "
                f"failed: {failed}")
