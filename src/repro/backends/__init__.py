"""Equivalence tolerances of the batched evaluation engines.

Each engine below runs one batched path, and a private scalar
reference beside it is held to that path by the tier-1 equivalence
tests.  The table states how closely the two must agree:

* ``rtol == 0.0`` -- **bit-for-bit**: the batched path evaluates the
  same closed-form expressions in the same order, computing the few
  libm-divergent operations per element through Python's ``math``, so
  fixed-seed synthesis and yield runs return identical results.
* ``rtol > 0`` -- **iterative-solver tolerance**: the electrothermal
  fixed point accumulates one-ulp libm differences per iteration, so
  numeric leaves agree to a relative tolerance and discrete outcomes
  (convergence flags, iteration counts, messages) agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class EquivalenceContract:
    """How closely an engine's batched path matches its reference."""

    engine: str
    #: 0.0 means bit-for-bit; > 0 is the relative tolerance of an
    #: iterative solver.
    rtol: float

    @property
    def bitwise(self) -> bool:
        """True when the contract is exact float equality."""
        return self.rtol == 0.0


_CONTRACTS = {contract.engine: contract for contract in (
    EquivalenceContract("synthesis.ota", 0.0),
    EquivalenceContract("synthesis.frontend", 0.0),
    EquivalenceContract("analog.ota_yield", 0.0),
    EquivalenceContract("thermal.electrothermal", 1e-9),
)}


def equivalence_contract(engine: str) -> EquivalenceContract:
    """The contract of ``engine`` (typed error on an unknown name)."""
    if engine not in _CONTRACTS:
        raise ModelDomainError(
            f"engine {engine!r} has no equivalence contract; declared: "
            f"{', '.join(sorted(_CONTRACTS))}")
    return _CONTRACTS[engine]


__all__ = ["EquivalenceContract", "equivalence_contract"]
