"""Lint engine: file discovery, rule dispatch, caching, waivers.

The engine (not individual rules) owns the waiver mechanics: rules
yield every violation they see; findings whose line carries a
documented ``# replint: disable=CODE -- reason`` waiver move to the
report's ``waived`` list.  Waivers *without* a reason are themselves
violations (``R000``) and cannot be waived.

Rule dispatch is scope-driven.  ``module`` rules need the parsed AST
of every file; ``semantic`` rules need only the per-file
:class:`~repro.lint.semantic.summary.FileSummary` objects, which are
served from the content-hash cache under ``.replint_cache/`` when
possible.  A run selecting *only* semantic rules therefore skips
``ast.parse`` entirely on warm files -- the summaries carry the
signatures, effects, call candidates, waiver tables, and even the
syntax-error records (``E999``) the engine needs.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..robust.errors import ModelDomainError
from .context import ModuleInfo, load_module, module_name_for
from .findings import Finding, LintReport
from .rules import Rule, get_rules
from .semantic import AnalysisCache, build_semantic_model, summarize
from .semantic.cache import DEFAULT_CACHE_DIR
from .semantic.summary import FileSummary, error_summary

#: Directories never worth descending into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist",
              ".mypy_cache", ".pytest_cache", "node_modules"}


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises :class:`ModelDomainError` for paths that do not exist or
    name a non-Python file: a silently dropped argument looks exactly
    like a clean lint run, which is the worst possible failure mode
    for a checker.
    """
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate for candidate in sorted(path.rglob("*.py"))
                if not _SKIP_DIRS.intersection(candidate.parts))
        elif path.is_file():
            if path.suffix != ".py":
                raise ModelDomainError(
                    f"not a Python file: {path}")
            files.append(path)
        else:
            raise ModelDomainError(f"no such file or directory: {path}")
    seen = set()
    unique = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _summarize_path(path: Path, content: str,
                    cache: Optional[AnalysisCache]) -> FileSummary:
    """Cache-through summary of one file (parses only on miss)."""
    if cache is not None:
        cached = cache.load(path, content)
        if cached is not None:
            return cached
    info, error = load_module(path)
    if error is not None:
        summary = error_summary(str(path), module_name_for(path), error)
    else:
        summary = summarize(info)
    if cache is not None:
        cache.store(path, content, summary)
    return summary


def run_lint(paths: Sequence[Path],
             select: Optional[Sequence[str]] = None,
             ignore: Optional[Sequence[str]] = None,
             *,
             use_cache: bool = True,
             cache_dir: Optional[os.PathLike] = None) -> LintReport:
    """Lint ``paths`` and return the aggregated report.

    ``use_cache``/``cache_dir`` control the semantic summary cache
    (default ``.replint_cache/`` under the working directory); the
    cache is a pure accelerator -- results are identical with it off.
    """
    rules = get_rules(select=select, ignore=ignore)
    files = discover_files([Path(p) for p in paths])

    ast_rules = [r for r in rules if r.scope == "module"]
    semantic_rules = [r for r in rules if r.scope == "semantic"]
    cache = AnalysisCache(cache_dir or DEFAULT_CACHE_DIR) \
        if (use_cache and semantic_rules) else None

    infos: List[ModuleInfo] = []
    summaries: Dict[str, FileSummary] = {}
    findings: List[Finding] = []
    #: per-path documented-waiver lookup, from whichever per-file
    #: record (AST or summary) this run produced.
    waiver_lookup: Dict[str, object] = {}
    #: per-path undocumented waiver sites for R000.
    undocumented: Dict[str, List] = {}

    for path in files:
        key = str(path)
        if ast_rules or not semantic_rules:
            info, error = load_module(path)
            if error is not None:
                findings.append(Finding(path=key, line=1, col=0,
                                        code="E999", message=error))
                if semantic_rules:
                    summaries[key] = error_summary(
                        key, module_name_for(path), error)
                continue
            infos.append(info)
            waiver_lookup[key] = info.waived_codes_for_line
            undocumented[key] = [(w.line, w.codes)
                                 for w in info.undocumented]
            if semantic_rules:
                content = info.source
                summary = None
                if cache is not None:
                    summary = cache.load(path, content)
                if summary is None:
                    summary = summarize(info)
                    if cache is not None:
                        cache.store(path, content, summary)
                summaries[key] = summary
        else:
            # Semantic-only run: summaries (cached or fresh) carry
            # everything, including syntax errors and waiver tables.
            try:
                content = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(Finding(
                    path=key, line=1, col=0, code="E999",
                    message=f"cannot read: {exc}"))
                continue
            summary = _summarize_path(path, content, cache)
            summaries[key] = summary
            if summary.error is not None:
                findings.append(Finding(path=key, line=1, col=0,
                                        code="E999",
                                        message=summary.error))
                continue
            waiver_lookup[key] = summary.waived_codes_for_line
            undocumented[key] = list(summary.undocumented_waivers)

    # R000: undocumented waivers are findings in their own right and
    # deliberately bypass the waiver filter below.
    unwaivable: List[Finding] = []
    for key in sorted(undocumented):
        for line, codes in undocumented[key]:
            unwaivable.append(Finding(
                path=key, line=line, col=0, code="R000",
                message=("waiver without a reason -- write "
                         "'# replint: disable="
                         f"{','.join(codes)} -- <why>'")))

    for rule in ast_rules:
        for info in infos:
            findings.extend(rule.check_module(info))

    if semantic_rules:
        model = build_semantic_model(summaries)
        for rule in semantic_rules:
            findings.extend(rule.check_semantic(model))

    active: List[Finding] = []
    waived: List[Finding] = []
    for finding in findings:
        lookup = waiver_lookup.get(finding.path)
        if lookup is not None and finding.code in lookup(finding.line):
            waived.append(finding)
        else:
            active.append(finding)
    active.extend(unwaivable)

    return LintReport(findings=sorted(active), waived=sorted(waived),
                      n_files=len(files),
                      rules=[rule.code for rule in rules])


def iter_rule_docs() -> Iterable[Rule]:
    """All registered rules, for ``--list-rules``."""
    return get_rules()
