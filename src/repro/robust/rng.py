"""RNG discipline: one sanctioned way to obtain a random Generator.

Every number this reproduction publishes -- yield, timing slack,
analog accuracy -- comes out of a Monte Carlo loop over mismatch
models, so an unseeded generator anywhere in model code makes a
headline figure unreproducible.  The package-wide rule (machine
checked by lint rule R001) is:

* model code never touches the legacy global ``numpy.random.*``
  state, and
* every ``Generator`` is either *injected* by the caller or obtained
  from :func:`resolve_rng`, which is deterministic by default.

:func:`resolve_rng` keeps the long-standing call-site idiom
``seed: Optional[int] = None`` working: an explicit seed gives exactly
the stream ``numpy.random.default_rng(seed)`` would (so fixed-seed
results are bit-for-bit unchanged from the pre-lint code), while
``seed=None`` now draws a child stream from a fixed process-wide root
:class:`numpy.random.SeedSequence` instead of OS entropy.  Two
unseeded calls still get *independent* streams -- repeated sampling
does not silently correlate -- but a full program run is repeatable
end to end.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .errors import ModelDomainError

__all__ = ["DEFAULT_ROOT_SEED", "resolve_rng", "reseed", "spawn_seed"]

#: Root seed of the process-wide deterministic stream used when a
#: call site passes neither ``rng`` nor ``seed``.  65 for the node,
#: 2005 for the paper.
DEFAULT_ROOT_SEED = 65_2005

SeedLike = Union[int, np.integer, np.random.SeedSequence]

_root: np.random.SeedSequence = np.random.SeedSequence(DEFAULT_ROOT_SEED)


def reseed(root_seed: int = DEFAULT_ROOT_SEED) -> None:
    """Reset the process-wide root stream (tests use this).

    After ``reseed(s)`` the sequence of generators handed out for
    ``seed=None`` calls replays exactly, in call order.
    """
    global _root
    if not isinstance(root_seed, (int, np.integer)) or isinstance(
            root_seed, bool):
        raise ModelDomainError(
            f"root_seed must be an integer, got {root_seed!r}")
    _root = np.random.SeedSequence(int(root_seed))


def spawn_seed() -> np.random.SeedSequence:
    """Draw the next child :class:`SeedSequence` from the root stream."""
    return _root.spawn(1)[0]


def resolve_rng(rng: Optional[np.random.Generator] = None,
                seed: Optional[SeedLike] = None) -> np.random.Generator:
    """Return the Generator a model entry point should draw from.

    Precedence: an injected ``rng`` wins; otherwise an explicit
    ``seed`` gives ``numpy.random.default_rng(seed)`` (identical
    stream, draw for draw, to the historical idiom); otherwise a fresh
    deterministic child of the package root stream.

    Raises :class:`ModelDomainError` for a non-``Generator`` ``rng``
    or a non-integer or negative ``seed`` instead of letting numpy
    throw a bare ``TypeError``/``ValueError`` deep inside a sweep.
    """
    if rng is not None:
        if not isinstance(rng, np.random.Generator):
            raise ModelDomainError(
                f"rng must be a numpy.random.Generator, got {rng!r}")
        return rng
    if seed is not None:
        if isinstance(seed, np.random.SeedSequence):
            return np.random.default_rng(seed)
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ModelDomainError(
                f"seed must be an integer or SeedSequence, got {seed!r}")
        if seed < 0:
            raise ModelDomainError(f"seed must be >= 0, got {seed}")
        return np.random.default_rng(int(seed))
    return np.random.default_rng(spawn_seed())
