"""R008: transitive determinism of contract-bearing roots.

R001 polices individual call sites; R008 upgrades its RNG check, and
the other effect detectors, to a *reachability* guarantee.  Every
determinism root -- a shard entry point (``run_shard``, any function
with a ``shard`` parameter, or a function with such a def nested in
it) or a fixed-seed engine entry point listed in
:data:`~repro.lint.semantic.model.DETERMINISM_ROOTS` -- must not
transitively reach a nondeterministic effect (``reads-clock``,
``unseeded-rng``, ``env-dependent``, ``io``, ``unordered-iteration``)
anywhere in its call graph.  An unpinned ``resolve_rng()`` or
``spawn_seed()`` counts as ``unseeded-rng``: its stream depends on
global call order, so a retried or redistributed shard would not
replay.

Two waiver points exist, both requiring a documented reason:

* on the *sink* line (where the effect happens) -- excludes that
  effect from propagation entirely, for "wall-clock only feeds
  diagnostics"-style exemptions shared by every caller;
* on the *root* definition line -- waives the finding for that root
  only, through the normal engine waiver filter.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from . import Rule, register


@register
class TransitiveDeterminismRule(Rule):
    code = "R008"
    name = "transitive-determinism"
    description = ("shard entry points and listed engine entry points "
                   "must not transitively reach nondeterministic "
                   "effects")

    def check(self, model) -> Iterable[Finding]:
        graph = model.graph
        paths = {fn.qual: summary.path
                 for summary in model.summaries.values()
                 for fn in summary.functions.values()}
        for qual, why in model.determinism_roots():
            fn = graph.functions[qual]
            for kind, origin in sorted(graph.effects_of(qual).items()):
                yield Finding(
                    path=paths[qual], line=fn.line, col=fn.col,
                    code=self.code,
                    message=(f"{fn.name} ({why}) transitively reaches "
                             f"a '{kind}' effect: "
                             f"{origin.describe()}"))
