"""R001 rng-discipline: every random stream must be seedable/injectable.

Model code may not draw from process-global RNG state (legacy
``numpy.random.*`` functions, ``RandomState``, or the stdlib ``random``
module) and may not construct *unseeded* ``default_rng()`` generators:
the blessed pattern is ``repro.robust.rng.resolve_rng(rng, seed=seed)``,
which keeps explicit seeds bit-stable and gives seed-less callers an
independent child stream of the fixed root ``SeedSequence``.

The detector is :func:`repro.lint.semantic.effects.global_rng_state`,
the one behind R008's ``unseeded-rng`` effect.  R001 runs it over the
whole module, so module-level and class-body calls, which no function
summary covers, are flagged too.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..astutil import (ImportMap, dotted_name, import_heads,
                       walk_with_function_stack)
from ..context import ModuleInfo
from ..findings import Finding
from ..semantic.effects import RNG_MODULE, global_rng_state
from . import Rule, register


@register
class RngDisciplineRule(Rule):
    code = "R001"
    name = "rng-discipline"
    description = (
        "No legacy global numpy.random.* / stdlib random state, no "
        "unseeded default_rng() in model code; inject a Generator or "
        "route through repro.robust.rng.resolve_rng.")

    def check_module(self, info: ModuleInfo) -> Iterable[Finding]:
        if info.module == RNG_MODULE:
            return
        imports = ImportMap(info.tree)
        heads = import_heads(info.tree)
        for node, stack in walk_with_function_stack(info.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            detail = global_rng_state(node, imports.canonical(dotted),
                                      dotted, heads, stack)
            if detail:
                yield Finding(
                    path=str(info.path), line=node.lineno,
                    col=node.col_offset, code=self.code,
                    message=(f"{detail}: hidden or unseeded RNG state "
                             "-- inject a numpy.random.Generator or use "
                             "repro.robust.rng.resolve_rng(rng, "
                             "seed=seed)"))
