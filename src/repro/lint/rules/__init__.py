"""Rule base class and registry for ``repro.lint``.

A rule is a small stateless object with a ``code`` (``R0xx``), a
``name`` and one hook, ``check(model)``, which sees the project-wide
:class:`~repro.lint.semantic.model.SemanticModel` (call graph,
transitive effects, determinism roots, liveness and the per-site
facts of every file) built from cached per-file summaries.  No rule
touches a raw AST, so a warm cache runs every rule without parsing
anything.

Rules yield :class:`~repro.lint.findings.Finding` objects; waiver
filtering happens centrally in the engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Type

from ..findings import Finding
from ...robust.errors import ModelDomainError, RoadmapDataError


class Rule:
    """Base class for lint rules."""

    code: str = "R000"
    name: str = "base"
    description: str = ""

    def check(self, model) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in _REGISTRY:
        raise ModelDomainError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    _load_builtin_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def get_rules(select: Optional[Sequence[str]] = None,
              ignore: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered rules, honouring --select/--ignore."""
    rules = all_rules()
    if select:
        wanted = {code.upper() for code in select}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            raise RoadmapDataError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore:
        dropped = {code.upper() for code in ignore}
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


def _load_builtin_rules() -> None:
    """Import the rule modules exactly once (registration side effect)."""
    from . import (rng, validation, exceptions,  # noqa: F401
                   vectorization, determinism, twins, deadapi)  # noqa: F401
