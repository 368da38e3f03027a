"""Shard planning: contiguous, balanced slices of an MC population.

A shard is a half-open ``[start, stop)`` index interval of the full
workload (dies, trace events).  Planning is pure
arithmetic -- the same ``(n_total, n_shards)`` always yields the same
plan -- and shards tile the population exactly, so concatenating
per-shard results in shard-index order reconstructs the single
process arrays bit for bit (the merge contract every workload in
:mod:`repro.exec.workloads` builds on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..robust.errors import ModelDomainError
from ..robust.validate import check_count


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the population."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not (0 <= self.index and 0 <= self.start < self.stop):
            raise ModelDomainError(
                f"invalid shard {self.index}: [{self.start}, "
                f"{self.stop})")

    @property
    def size(self) -> int:
        """Number of population units in this shard."""
        return self.stop - self.start

    @property
    def range(self) -> tuple:
        """The ``(start, stop)`` pair model entry points accept."""
        return (self.start, self.stop)


def plan_shards(n_total: int, n_shards: int) -> List[Shard]:
    """Split ``n_total`` units into ``n_shards`` balanced slices.

    The first ``n_total % n_shards`` shards get one extra unit, so
    sizes differ by at most one and the plan depends only on the two
    integers -- never on worker count, scheduling, or retry history.
    """
    n_total = check_count("n_total", n_total)
    n_shards = check_count("n_shards", n_shards)
    if n_shards > n_total:
        raise ModelDomainError(
            f"cannot split {n_total} units into {n_shards} shards "
            f"(shards would be empty)")
    base, extra = divmod(n_total, n_shards)
    shards: List[Shard] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index=index, start=start,
                            stop=start + size))
        start += size
    return shards
