"""The object the semantic rules consume.

A :class:`SemanticModel` bundles the per-file summaries (cache-served
or freshly extracted) with the :class:`~repro.lint.semantic.callgraph.
CallGraph` built from them, and pre-digests the project-wide facts
the R008-R010 rules query: determinism roots (shard entry points plus
the listed :data:`DETERMINISM_ROOTS`) and the merged reference tables
for liveness analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .callgraph import CallGraph
from .summary import FileSummary

#: Modules whose references keep no API live: the fault registry
#: drives each API the way a test does.
_DRIVER_MODULES = frozenset({"repro.robust.faults"})

#: Fixed-seed entry points R008 holds to determinism besides the shard
#: entry points: the batched OTA, front-end, OTA-yield, SSTA and
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
    "repro.digital.ssta.StatisticalTimingAnalyzer.run",
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
    #: loaded bare name -> owners that load it ("module.owner" tags).
    _name_owners: Dict[str, Set[str]] = field(default_factory=dict)
    #: function/class qualname -> owners whose references resolve to it.
    _definition_owners: Dict[str, Set[str]] = field(default_factory=dict)

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

    def is_referenced(self, qual: str, by_name: bool = False) -> bool:
        """Is the function, method or class ``qual`` referenced beyond
        its own body?  ``by_name`` (methods, whose receivers are
        untyped) counts any load of the bare name."""
        owners = (self._name_owners.get(qual.rpartition(".")[2], ())
                  if by_name else self._definition_owners.get(qual, ()))
        # A reference from the definition's own body (recursion, a
        # method naming its class) does not make it live.
        return any(owner != qual and not owner.startswith(qual + ".")
                   for owner in owners)


def _tagged(module: str, owners: List[str]) -> Set[str]:
    # Tag owners with their defining module so a function referencing
    # itself in another module still counts.
    return {f"{module}.{owner}" if owner else f"{module}:<toplevel>"
            for owner in owners}


def build_semantic_model(
        summaries: Dict[str, FileSummary]) -> SemanticModel:
    """Assemble the model from per-file summaries (any dict key)."""
    graph = CallGraph(summaries)
    model = SemanticModel(summaries=dict(summaries), graph=graph)

    for summary in summaries.values():
        if summary.module in _DRIVER_MODULES:
            continue
        for name, owners in summary.name_loads.items():
            model._name_owners.setdefault(name, set()).update(
                _tagged(summary.module, owners))
        for candidate, owners in summary.references.items():
            target = graph.definition(candidate)
            if target is not None:
                model._definition_owners.setdefault(target, set()).update(
                    _tagged(summary.module, owners))
    return model
