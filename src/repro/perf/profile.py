"""Lightweight timing instrumentation with a global registry.

``timed("section")`` works both as a context manager and as a
decorator; each entry/exit updates a process-global registry of call
counts and accumulated wall time, so any run can end with a call to
:func:`profile_report` to see where time went -- without external
profilers and with near-zero overhead when nothing is ever timed.

This is deliberately *not* a sampling profiler: hot paths opt in by
name, which keeps the report aligned with the architecture's units
(sampling engine, SWAN superposition, mesh solve, ...).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TypeVar

#: The documented way to read and reset the ``timed()`` registry
#: (docs/architecture.md); no library code calls them.
__all__ = ["profile_report", "reset_profile"]

F = TypeVar("F", bound=Callable[..., Any])

_RECORDS: Dict[str, "TimingRecord"] = {}
_LOCK = threading.Lock()


@dataclass
class TimingRecord:
    """Accumulated timing of one named section."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Average wall time per call [s]."""
        return self.total_seconds / self.calls if self.calls else 0.0

    def add(self, elapsed: float) -> None:
        """Fold one measurement into the record."""
        self.calls += 1
        self.total_seconds += elapsed
        self.min_seconds = min(self.min_seconds, elapsed)
        self.max_seconds = max(self.max_seconds, elapsed)


class timed:
    """Time a named section: context manager *and* decorator.

    As a context manager::

        with timed("swan.superposition"):
            ...

    As a decorator (section defaults to the function's qualified
    name)::

        @timed("sampler.batch")
        def sample_dies_batch(...):
            ...

    The measured wall time accumulates in the global registry under
    the section name; read it back with :func:`profile_registry` or
    :func:`profile_report`.
    """

    def __init__(self, name: str):
        self.name = name
        self._start: Optional[float] = None

    # -- context manager protocol --

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()  # replint: disable=R008 -- profiling registry only, never feeds results
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - (self._start or 0.0)  # replint: disable=R008 -- profiling registry only, never feeds results
        _record(self.name, elapsed)

    # -- decorator protocol --

    def __call__(self, func: F) -> F:
        name = self.name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()  # replint: disable=R008 -- profiling registry only, never feeds results
            try:
                return func(*args, **kwargs)
            finally:
                _record(name, time.perf_counter() - start)  # replint: disable=R008 -- profiling registry only, never feeds results

        return wrapper  # type: ignore[return-value]


def _record(name: str, elapsed: float) -> None:
    with _LOCK:
        record = _RECORDS.get(name)
        if record is None:
            record = _RECORDS[name] = TimingRecord(name=name)
        record.add(elapsed)


def profile_registry() -> Dict[str, TimingRecord]:
    """Snapshot of all timing records, by section name."""
    with _LOCK:
        return dict(_RECORDS)


def reset_profile() -> None:
    """Forget all accumulated timings."""
    with _LOCK:
        _RECORDS.clear()


def profile_report(sort_by: str = "total_seconds") -> str:
    """Human-readable table of the registry, slowest first."""
    records = sorted(profile_registry().values(),
                     key=lambda r: getattr(r, sort_by), reverse=True)
    if not records:
        return "(no timed sections)"
    lines = [f"{'section':<40} {'calls':>8} {'total [s]':>12} "
             f"{'mean [ms]':>12}"]
    for record in records:
        lines.append(
            f"{record.name:<40} {record.calls:>8} "
            f"{record.total_seconds:>12.6f} "
            f"{record.mean_seconds * 1e3:>12.4f}")
    return "\n".join(lines)
