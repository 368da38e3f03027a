"""The object the semantic rules consume.

A :class:`SemanticModel` bundles the per-file summaries (cache-served
or freshly extracted) with the :class:`~repro.lint.semantic.callgraph.
CallGraph` built from them, and pre-digests the project-wide facts
the R008-R010 rules query: determinism roots (shard entry points plus
the listed :data:`DETERMINISM_ROOTS`) and the merged reference/export
tables for liveness analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .callgraph import CallGraph
from .summary import FileSummary, FunctionSummary

#: Fixed-seed entry points R008 holds to determinism besides the shard
#: entry points: the batched OTA, front-end, OTA-yield and
#: electrothermal engines, the scalar references they are tested
#: against, and the public drivers that run them.
DETERMINISM_ROOTS: Tuple[str, ...] = (
    "repro.analog.circuits.DetectorFrontend.evaluate",
    "repro.analog.circuits.DetectorFrontend.evaluate_batch",
    "repro.analog.circuits.SingleStageOta.evaluate",
    "repro.analog.circuits.SingleStageOta.evaluate_batch",
    "repro.analog.yield_analysis.OtaYieldAnalyzer."
    "_performance_matrix_batch",
    "repro.analog.yield_analysis.OtaYieldAnalyzer."
    "_performance_matrix_oracle",
    "repro.analog.yield_analysis.OtaYieldAnalyzer.run",
    "repro.synthesis.sizing.frontend_synthesizer",
    "repro.synthesis.sizing.ota_synthesizer",
    "repro.thermal.electrothermal.electrothermal_rth_sweep",
    "repro.thermal.electrothermal.runaway_rth_threshold",
    "repro.thermal.electrothermal.solve_operating_point",
    "repro.thermal.electrothermal.solve_operating_point_batch",
)


@dataclass
class SemanticModel:
    """Project-wide semantic facts, ready for rule consumption."""

    #: path string -> that file's summary.
    summaries: Dict[str, FileSummary]
    graph: CallGraph
    #: bare name -> True when referenced outside the function's own
    #: body somewhere in the project (or exported via ``__all__``).
    _live_names: Set[str] = field(default_factory=set)
    #: bare name -> owners that reference it ("module.owner" tags).
    _reference_owners: Dict[str, Set[str]] = field(default_factory=dict)

    # -- R008: determinism roots --------------------------------------

    def determinism_roots(self) -> List[Tuple[str, str]]:
        """``(qualname, why-it-is-a-root)`` for every contract-bearing
        function: the shard entry points and the
        :data:`DETERMINISM_ROOTS` present in the analysed tree."""
        roots = {qual: "shard entry point"
                 for qual, fn in self.graph.functions.items()
                 if fn.is_shard_entry}
        for qual in DETERMINISM_ROOTS:
            if qual in self.graph.functions:
                roots.setdefault(qual, "listed determinism root")
        return sorted(roots.items())

    # -- R010: liveness -----------------------------------------------

    def is_referenced(self, fn: FunctionSummary) -> bool:
        """Is ``fn`` referenced anywhere beyond its own body?"""
        owners = self._reference_owners.get(fn.name)
        if not owners:
            return False
        # A reference from the function's own body (recursion) does
        # not make it live: its owner tag equals the qualname.
        return any(owner != fn.qual for owner in owners)

    def live_names(self) -> Set[str]:
        return set(self._live_names)

    def reference_owners(self, name: str) -> Set[str]:
        return set(self._reference_owners.get(name, ()))


def build_semantic_model(
        summaries: Dict[str, FileSummary]) -> SemanticModel:
    """Assemble the model from per-file summaries (any dict key)."""
    graph = CallGraph(summaries)
    model = SemanticModel(summaries=dict(summaries), graph=graph)

    for summary in summaries.values():
        for name, owners in summary.references.items():
            bucket = model._reference_owners.setdefault(name, set())
            for owner in owners:
                # Tag owners with their defining module so a function
                # referencing itself in another module still counts.
                bucket.add(f"{summary.module}.{owner}" if owner
                           else f"{summary.module}:<toplevel>")
            model._live_names.add(name)
        for exported in summary.exports:
            model._live_names.add(exported)
    return model
