"""repro.lint.semantic -- the project-wide analysis layer every rule reads.

Some rules judge what code *does* at one site (R001, R003, R005);
the headline guarantees of this codebase, though, are *reachability*
properties -- "no shard entry point may **reach** a wall-clock read",
"every public model API **reaches** validation", "scalar/batched twins
may not drift apart".  This subpackage lowers every parsed module to a
compact, JSON-serializable
:class:`~repro.lint.semantic.summary.FileSummary` (per-function
effect sets, validation evidence, resolved callees, signatures,
references, per-site facts, waivers) and assembles the summaries into
the queryable :class:`~repro.lint.semantic.model.SemanticModel` that
every rule consumes:

* :mod:`~repro.lint.semantic.effects` -- direct nondeterminism /
  impurity detection (``reads-clock``, ``unseeded-rng``,
  ``env-dependent``, ``io``, ``unordered-iteration``);
* :mod:`~repro.lint.semantic.summary` -- the per-file summary
  extraction (a pure function of file content, hence cacheable);
* :mod:`~repro.lint.semantic.callgraph` -- intra-project call
  resolution into a graph with transitive effect propagation and
  witness chains;
* :mod:`~repro.lint.semantic.cache` -- the incremental analysis
  cache (content-hash keyed summaries under ``.replint_cache/``) so
  warm lint runs parse no unchanged file;
* :mod:`~repro.lint.semantic.model` -- ties summaries + graph into
  the object the rules consume.

Summaries are extracted once per file content; the propagation layer
is recomputed from summaries on every run (it is cheap relative to
parsing), which makes cache invalidation transitive by construction:
editing one file re-summarizes only that file, yet every derived
transitive fact downstream of it is rebuilt.
"""

from .cache import AnalysisCache
from .callgraph import CallGraph, EffectOrigin
from .effects import NONDETERMINISTIC_EFFECTS
from .model import SemanticModel, build_semantic_model
from .summary import (EffectSummary, FileSummary, FunctionSummary,
                      ParamSummary, SUMMARY_SCHEMA_VERSION, summarize)

__all__ = [
    "AnalysisCache",
    "CallGraph",
    "EffectOrigin",
    "EffectSummary",
    "FileSummary",
    "FunctionSummary",
    "NONDETERMINISTIC_EFFECTS",
    "ParamSummary",
    "SUMMARY_SCHEMA_VERSION",
    "SemanticModel",
    "build_semantic_model",
    "summarize",
]
