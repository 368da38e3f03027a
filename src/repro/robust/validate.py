"""Physical-domain validation for model entry points.

Small, dependency-free checks that turn silent NaN propagation into
typed :class:`~repro.robust.errors.ModelDomainError` raises at the
public boundary of every model package, plus a :func:`validated`
decorator that declares per-parameter domains once, next to the
signature, instead of scattering ``if`` ladders through every body.

All checks accept scalars and numpy arrays; an array fails a check
when *any* element does.  ``None`` values are always skipped (they
mean "use the default" throughout the package).
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import Any, Callable, Dict, Iterable, Mapping, Union

import numpy as np

from .errors import ModelDomainError

ArrayLike = Union[float, "np.ndarray"]

__all__ = [
    "check_finite", "check_positive", "check_non_negative",
    "check_range", "check_fraction", "check_count",
    "ensure_finite_output", "validated",
]


def _as_float_array(name: str, value: Any) -> np.ndarray:
    """Coerce ``value`` to a float array or raise a typed error."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelDomainError(
            f"{name} must be numeric, got {value!r}") from None
    if arr.dtype.kind not in "fiu":  # pragma: no cover - asarray(float)
        raise ModelDomainError(f"{name} must be numeric, got {value!r}")
    return arr


def check_finite(name: str, value: ArrayLike) -> ArrayLike:
    """Require every element of ``value`` to be finite (no NaN/inf)."""
    arr = _as_float_array(name, value)
    if not np.all(np.isfinite(arr)):
        raise ModelDomainError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: ArrayLike) -> ArrayLike:
    """Require ``value`` to be finite and strictly positive."""
    arr = _as_float_array(name, value)
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
        raise ModelDomainError(
            f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(name: str, value: ArrayLike) -> ArrayLike:
    """Require ``value`` to be finite and >= 0."""
    arr = _as_float_array(name, value)
    if not np.all(np.isfinite(arr)) or not np.all(arr >= 0):
        raise ModelDomainError(
            f"{name} must be finite and non-negative, got {value!r}")
    return value


def check_range(name: str, value: ArrayLike, low: float, high: float,
                low_open: bool = False) -> ArrayLike:
    """Require finite ``value`` inside [low, high] (low end optionally
    open)."""
    arr = _as_float_array(name, value)
    ok = np.isfinite(arr)
    ok &= (arr > low) if low_open else (arr >= low)
    ok &= arr <= high
    if not np.all(ok):
        lo_b = "(" if low_open else "["
        raise ModelDomainError(
            f"{name} must be in {lo_b}{low:g}, {high:g}], "
            f"got {value!r}")
    return value


def check_fraction(name: str, value: ArrayLike,
                   zero_ok: bool = False) -> ArrayLike:
    """Require ``value`` in (0, 1] (or [0, 1] with ``zero_ok``)."""
    return check_range(name, value, 0.0, 1.0, low_open=not zero_ok)


#: Sanity ceiling for counts: no loop in this package legitimately
#: needs more than ~2e9 iterations, and counts beyond it overflow the
#: C-long sizes numpy allocates with.
MAX_COUNT = 2 ** 31


def check_count(name: str, value: Any, minimum: int = 1) -> int:
    """Require an integral count in [``minimum``, :data:`MAX_COUNT`].

    Accepts ints and integral floats; rejects NaN/inf, fractional
    values and non-numerics with a typed error instead of letting a
    downstream ``range()`` or numpy call raise ``TypeError``.
    """
    if isinstance(value, bool):
        raise ModelDomainError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (int, np.integer)):
        count = int(value)
    elif isinstance(value, (float, np.floating)):
        if not math.isfinite(value) or value != int(value):
            raise ModelDomainError(
                f"{name} must be an integer, got {value!r}")
        count = int(value)
    else:
        raise ModelDomainError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ModelDomainError(
            f"{name} must be >= {minimum}, got {count}")
    if count > MAX_COUNT:
        raise ModelDomainError(
            f"{name} must be <= {MAX_COUNT}, got {count}")
    return count


def ensure_finite_output(name: str, value: Any) -> Any:
    """Require a model *output* to contain only finite numbers.

    Recurses through dataclasses, mappings, sequences and arrays;
    non-numeric leaves (strings, bools, None) are ignored.  Raises
    :class:`ModelDomainError` naming the producing API so a NaN that
    slipped past the input checks is still caught at the boundary.
    """
    for leaf in iter_numeric_leaves(value):
        if not np.all(np.isfinite(leaf)):
            raise ModelDomainError(
                f"{name} produced a non-finite output "
                f"(model evaluated outside its validity domain)")
    return value


def iter_numeric_leaves(value: Any) -> Iterable[np.ndarray]:
    """Yield every numeric leaf of a nested result as a float array."""
    if value is None or isinstance(value, (bool, str, bytes)):
        return
    if isinstance(value, (int, float, np.integer, np.floating)):
        yield np.asarray(value, dtype=float)
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fiu":
            yield value.astype(float, copy=False)
    elif isinstance(value, Mapping):
        for item in value.values():
            yield from iter_numeric_leaves(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from iter_numeric_leaves(item)
    elif hasattr(value, "__dataclass_fields__"):
        # Diagnostic fields that legitimately hold NaN sentinels (e.g.
        # ConvergenceReport.residual when no residual was recorded)
        # opt out via a __nonfinite_ok__ class attribute.
        exempt = getattr(value, "__nonfinite_ok__", ())
        for field_name in value.__dataclass_fields__:
            if field_name in exempt:
                continue
            yield from iter_numeric_leaves(getattr(value, field_name))


# --- the @validated decorator ---------------------------------------------

#: Spec shorthand strings accepted by :func:`validated`.
_NAMED_CHECKS: Dict[str, Callable[[str, Any], Any]] = {
    "finite": check_finite,
    "positive": check_positive,
    "non-negative": check_non_negative,
    "fraction": check_fraction,
    "count": check_count,
}


def _compile_spec(spec: Any) -> Callable[[str, Any], Any]:
    if isinstance(spec, str):
        try:
            return _NAMED_CHECKS[spec]
        except KeyError:
            # replint: disable=R003 -- decoration-time programmer error, not a model-domain failure; must not depend on the taxonomy it guards
            raise ValueError(f"unknown validation spec {spec!r}") from None
    if isinstance(spec, tuple) and len(spec) == 2:
        low, high = spec
        return lambda name, value: check_range(name, value, low, high)
    if callable(spec):
        return spec
    # replint: disable=R003 -- decoration-time programmer error, not a model-domain failure; must not depend on the taxonomy it guards
    raise ValueError(f"unsupported validation spec {spec!r}")


def validated(_result_finite: bool = False,
              **param_specs: Any) -> Callable[[Callable], Callable]:
    """Declare per-parameter domains on a public model API.

    Parameters
    ----------
    _result_finite:
        When True, the wrapped function's return value is checked with
        :func:`ensure_finite_output` -- the NaN/inf guard on model
        outputs.  The wrapper records the flag as
        ``__result_finite__``; the fault-sweep tests require every
        such API to be registered in
        :func:`repro.robust.faults.default_registry`.
    **param_specs:
        Maps parameter names to a spec: one of the shorthand strings
        ``"finite"``, ``"positive"``, ``"non-negative"``,
        ``"fraction"``, ``"count"``, a ``(low, high)`` closed-range
        tuple, or a callable ``(name, value) -> value``.

    ``None`` arguments are skipped (they select the default).  The
    signature is parsed once at decoration time; per-call overhead is
    one ``bind`` plus the declared checks.

    Examples
    --------
    >>> @validated(_result_finite=True, n_bits="positive")
    ... def dynamic_range(n_bits):
    ...     return 2.0 ** n_bits
    >>> dynamic_range(8.0)
    256.0
    """

    def decorate(func: Callable) -> Callable:
        signature = inspect.signature(func)
        unknown = set(param_specs) - set(signature.parameters)
        if unknown:
            # replint: disable=R003 -- decoration-time programmer error (bad spec in source), raised at import, not at model evaluation
            raise ValueError(
                f"validated: {func.__qualname__} has no parameters "
                f"{sorted(unknown)}")
        checks = [(name, _compile_spec(spec))
                  for name, spec in param_specs.items()]

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            for name, check in checks:
                if name in bound.arguments:
                    value = bound.arguments[name]
                    if value is not None:
                        check(name, value)
            result = func(*args, **kwargs)
            if _result_finite:
                label = getattr(func, "__qualname__", str(func))
                ensure_finite_output(label, result)
            return result

        wrapper.__validated_params__ = dict(param_specs)  # type: ignore
        wrapper.__result_finite__ = _result_finite  # type: ignore
        return wrapper

    return decorate
