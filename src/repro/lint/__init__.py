"""repro.lint -- AST- and call-graph-based model-correctness linter.

Self-contained static analysis (stdlib ``ast``/``tokenize`` plus the
``repro.robust.errors`` taxonomy, no third-party dependencies)
enforcing the codebase's cross-cutting invariants:

========  ========================  =======================================
code      name                      invariant
========  ========================  =======================================
``R001``  rng-discipline            no hidden global RNG state; streams
                                    are injected or seeded via
                                    :func:`repro.robust.rng.resolve_rng`
``R002``  validation-boundary       public numeric model APIs reach
                                    ``repro.robust`` validation
``R003``  exception-hygiene         no bare except; raises use the
                                    ``repro.robust.errors`` taxonomy
``R005``  vectorization-safety      no scalar ``math.*`` on
                                    array-annotated parameters
``R008``  transitive-determinism    no determinism root *reaches* a
                                    nondeterministic effect through the
                                    project call graph
``R009``  twin-signature-parity     ``X``/``X_batch`` twin signatures
                                    agree modulo the batching axis
``R010``  dead-public-api           public functions are used outside
                                    their body or in their own module's
                                    ``__all__``; re-exports do not count
========  ========================  =======================================

R001, R003 and R005 are syntactic and check one file at a time.
R002 and R008-R010 run on the project-wide semantic model
(:mod:`repro.lint.semantic`) built from content-hash cached per-file
summaries (``.replint_cache/``; disable with ``--no-cache``).  R001
and R008's ``unseeded-rng`` effect share one detector.  Run
``python -m repro.lint --list-rules`` for the live catalog, and see
``docs/architecture.md`` for the full rule catalog and waiver policy.
"""

from .engine import discover_files, run_lint
from .findings import Finding, LintReport
from .rules import Rule, all_rules, get_rules, register
from .sarif import to_sarif
from .semantic import (AnalysisCache, CallGraph, SemanticModel,
                       build_semantic_model, summarize)

__all__ = [
    "AnalysisCache",
    "CallGraph",
    "Finding",
    "LintReport",
    "Rule",
    "SemanticModel",
    "all_rules",
    "build_semantic_model",
    "discover_files",
    "get_rules",
    "register",
    "run_lint",
    "summarize",
    "to_sarif",
]
