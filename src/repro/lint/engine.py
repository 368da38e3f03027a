"""Lint engine: file discovery, rule dispatch, caching, waivers.

The engine (not individual rules) owns the waiver mechanics: rules
yield every violation they see; findings whose line carries a
documented ``# replint: disable=CODE -- reason`` waiver move to the
report's ``waived`` list.  Waivers *without* a reason are themselves
violations (``R000``) and cannot be waived.

Every file takes one path: read it, get its
:class:`~repro.lint.semantic.summary.FileSummary` through the
content-hash cache under ``.replint_cache/`` (parsing only on a
miss), and hand the summaries to the rules as one
:class:`~repro.lint.semantic.model.SemanticModel`.  The summaries
carry everything the rules and the engine need -- signatures,
effects, call candidates, per-site facts, waiver tables and even the
syntax-error records (``E999``) -- so a warm run parses nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..robust.errors import ModelDomainError
from .context import load_module, module_name_for
from .findings import Finding, LintReport
from .rules import get_rules
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


def _summarize_path(path: Path,
                    cache: Optional[AnalysisCache]) -> FileSummary:
    """Cache-through summary of one file (parses only on miss)."""
    try:
        content = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return error_summary(str(path), module_name_for(path),
                             f"cannot read: {error}")
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

    ``use_cache``/``cache_dir`` control the summary cache (default
    ``.replint_cache/`` under the working directory); the cache is a
    pure accelerator -- results are identical with it off.
    """
    rules = get_rules(select=select, ignore=ignore)
    files = discover_files([Path(p) for p in paths])
    cache = AnalysisCache(cache_dir or DEFAULT_CACHE_DIR) \
        if use_cache else None

    summaries: Dict[str, FileSummary] = {}
    findings: List[Finding] = []
    for path in files:
        summary = _summarize_path(path, cache)
        summaries[str(path)] = summary
        if summary.error is not None:
            findings.append(Finding(path=str(path), line=1, col=0,
                                    code="E999", message=summary.error))

    model = build_semantic_model(summaries)
    for rule in rules:
        findings.extend(rule.check(model))

    active: List[Finding] = []
    waived: List[Finding] = []
    for finding in findings:
        if finding.code in summaries[finding.path].waived_codes_for_line(
                finding.line):
            waived.append(finding)
        else:
            active.append(finding)
    # R000: undocumented waivers are findings in their own right and
    # deliberately bypass the waiver filter above.
    for key, summary in summaries.items():
        for line, codes in summary.undocumented_waivers:
            active.append(Finding(
                path=key, line=line, col=0, code="R000",
                message=("waiver without a reason -- write "
                         "'# replint: disable="
                         f"{','.join(codes)} -- <why>'")))

    return LintReport(findings=sorted(active), waived=sorted(waived),
                      n_files=len(files),
                      rules=[rule.code for rule in rules])
