"""Keyed memo caches for identically recomputed quantities.

Sweeps over nodes, sizings and Monte Carlo samples keep re-deriving
the same intermediate objects: the standard-cell injection library of
a node, node lookups, characterization tables.  A plain
``functools.lru_cache`` would do the memoization but hides the cache
behind the wrapped function; here every cache registers itself in a
global registry so hit rates are inspectable (``cache_stats()``) and
all caches can be dropped at once (``clear_caches()``), e.g. between
benchmark rounds.

Keys must be hashable.  :class:`~repro.technology.node.TechnologyNode`
is a frozen dataclass and therefore a valid key component.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, TypeVar
from ..robust.errors import ModelDomainError

F = TypeVar("F", bound=Callable[..., Any])

#: All live caches, by name.  Names are unique; creating a second
#: cache with the same name raises.
_REGISTRY: Dict[str, "KeyedCache"] = {}
_REGISTRY_LOCK = threading.Lock()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache."""

    name: str
    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class KeyedCache:
    """A named, thread-safe memo cache with optional size bound.

    ``maxsize`` bounds the number of entries; on overflow the oldest
    entry is evicted (insertion order -- characterization caches are
    write-once, so FIFO == LRU for the intended uses).
    """

    def __init__(self, name: str, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize < 1:
            raise ModelDomainError("maxsize must be positive or None")
        self.name = name
        self.maxsize = maxsize
        self._data: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        with _REGISTRY_LOCK:
            if name in _REGISTRY:
                raise ModelDomainError(f"cache {name!r} already registered")
            _REGISTRY[name] = self

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on miss."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                return self._data[key]
        value = compute()
        with self._lock:
            self._misses += 1
            if key not in self._data:
                if (self.maxsize is not None
                        and len(self._data) >= self.maxsize):
                    self._data.pop(next(iter(self._data)))
                self._data[key] = value
        return value

    def clear(self) -> None:
        """Drop all entries (counters survive)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    @property
    def stats(self) -> CacheStats:
        """Current counters."""
        return CacheStats(name=self.name, hits=self._hits,
                          misses=self._misses, size=len(self._data))


def memoized(name: str) -> Callable[[F], F]:
    """Decorator: memoize a function through a registered KeyedCache.

    The positional/keyword arguments form the key (so they must all
    be hashable); the cache is unbounded.  Exceptions are not cached.

    Example::

        @memoized("injection.characterize_cell")
        def characterize_cell(node, cell_name, drive=1.0):
            ...
    """
    cache = KeyedCache(name)

    def decorate(func: F) -> F:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cache_key = (args, tuple(sorted(kwargs.items())))
            return cache.get_or_compute(
                cache_key, lambda: func(*args, **kwargs))

        wrapper.cache = cache          # type: ignore[attr-defined]
        return wrapper                 # type: ignore[return-value]

    return decorate


def cache_registry() -> Dict[str, KeyedCache]:
    """A snapshot of all registered caches, by name."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def cache_stats() -> Dict[str, CacheStats]:
    """Counters of every registered cache."""
    return {name: cache.stats for name, cache in cache_registry().items()}


def clear_caches() -> None:
    """Empty every registered cache (for tests and benchmarks)."""
    for cache in cache_registry().values():
        cache.clear()
