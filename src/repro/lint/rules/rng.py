"""R001 rng-discipline: every random stream must be seedable/injectable.

Model code may not draw from process-global RNG state (legacy
``numpy.random.*`` functions, ``RandomState``, or the stdlib ``random``
module) and may not construct *unseeded* ``default_rng()`` generators:
the blessed pattern is ``repro.robust.rng.resolve_rng(rng, seed=seed)``,
which keeps explicit seeds bit-stable and gives seed-less callers an
independent child stream of the fixed root ``SeedSequence``.

The detector is :func:`repro.lint.semantic.effects.global_rng_state`,
the one behind R008's ``unseeded-rng`` effect.  The summarizer records
its sites in the whole module, so module-level and class-body calls,
which no function summary covers, are flagged too.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from . import Rule, register


@register
class RngDisciplineRule(Rule):
    code = "R001"
    name = "rng-discipline"
    description = (
        "No legacy global numpy.random.* / stdlib random state, no "
        "unseeded default_rng() in model code; inject a Generator or "
        "route through repro.robust.rng.resolve_rng.")

    def check(self, model) -> Iterable[Finding]:
        for path, site in model.sites("global-rng"):
            yield Finding(
                path=path, line=site.line, col=site.col, code=self.code,
                message=(f"{site.detail}: hidden or unseeded RNG state "
                         "-- inject a numpy.random.Generator or use "
                         "repro.robust.rng.resolve_rng(rng, "
                         "seed=seed)"))
