"""R002 validation-boundary coverage.

Public module-level functions in the model packages that accept raw
numeric inputs must route through the robustness layer before doing
physics: either directly (an ``@validated`` decorator, a ``check_*``
call, ``ensure_finite_output``, or an explicit taxonomy raise -- the
summarizer records these as ``FunctionSummary.validates``) or by
delegating to something that does (a validated function, or a class
whose ``__init__``/``__post_init__`` validates).  Evidence flows
backwards along the shared call graph, so thin public wrappers over
guarded cores stay clean without decoration.  Only edges inside the
model packages carry it: a validator elsewhere in the project (say
``core.constants``) does not vouch for model code.
"""

from __future__ import annotations

from typing import Iterable, List

from ..findings import Finding
from . import Rule, register

#: Packages whose public API forms the model boundary.
GUARDED_PACKAGES = (
    "repro.devices", "repro.digital", "repro.interconnect",
    "repro.analog", "repro.variability", "repro.technology",
)

#: Annotation substrings marking a parameter as raw numeric input.
_NUMERIC_TOKENS = ("float", "int", "ndarray", "ArrayLike", "complex")

#: Parameters that are control knobs, not physical quantities.
_EXEMPT_PARAMS = {"self", "cls", "seed", "rng"}


def _guarded(module: str) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in GUARDED_PACKAGES)


def _numeric_params(fn) -> List[str]:
    return [p.name for p in fn.params
            if p.kind in ("pos", "kwonly")
            and p.name not in _EXEMPT_PARAMS
            and any(token in p.annotation for token in _NUMERIC_TOKENS)]


@register
class ValidationBoundaryRule(Rule):
    code = "R002"
    name = "validation-boundary"
    description = (
        "Public numeric model APIs must validate their inputs via "
        "repro.robust (directly or by delegating to guarded code).")

    def check(self, model) -> Iterable[Finding]:
        graph = model.graph
        paths = {qual: summary.path
                 for summary in model.summaries.values()
                 if _guarded(summary.module)
                 for qual in summary.functions}
        # Calling a class reaches its __init__/__post_init__, so
        # dataclass validation in __post_init__ counts as evidence.
        stack = [qual for qual in paths
                 if graph.functions[qual].validates]
        evidence = set(stack)
        while stack:
            for caller in graph.callers(stack.pop()):
                if caller in paths and caller not in evidence:
                    evidence.add(caller)
                    stack.append(caller)

        for qual, path in paths.items():
            fn = graph.functions[qual]
            numeric = _numeric_params(fn)
            # Methods feed the closure but are not boundaries.
            if fn.class_name is not None or not fn.is_public \
                    or not numeric or qual in evidence:
                continue
            yield Finding(
                path=path, line=fn.line, col=fn.col, code=self.code,
                message=(
                    f"public function '{fn.name}' takes numeric "
                    f"input ({', '.join(numeric[:4])}) but never "
                    "reaches repro.robust validation -- add "
                    "@validated/check_* or delegate to guarded code"))
