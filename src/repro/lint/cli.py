"""Command-line entry point: ``python -m repro.lint [paths]``.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..robust.errors import ReproError
from .engine import run_lint
from .rules import get_rules
from .sarif import to_sarif
from .semantic.cache import DEFAULT_CACHE_DIR

#: The library and every tree that calls it: R010 counts a figure,
#: example or perfbench workload as a user of the library.
DEFAULT_PATHS = ("src/repro", "benchmarks", "examples", "perfbench")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("AST- and call-graph-based model-correctness "
                     "linter for the repro codebase (RNG discipline, "
                     "validation coverage, exception hygiene, "
                     "vectorization safety, transitive determinism, "
                     "twin-signature parity, dead-API detection)."))
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: "
             f"{' '.join(DEFAULT_PATHS)})")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (e.g. R001,R008)")
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to skip")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--show-waived", action="store_true",
        help="also print findings suppressed by documented waivers")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the file summary cache")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"file summary cache location "
             f"(default: {DEFAULT_CACHE_DIR})")
    return parser


def _codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.code} {rule.name}")
            print(f"    {rule.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        report = run_lint([Path(p) for p in args.paths],
                          select=_codes(args.select),
                          ignore=_codes(args.ignore),
                          use_cache=not args.no_cache,
                          cache_dir=args.cache_dir)
    except ReproError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return report.exit_code
    if args.format == "sarif":
        print(json.dumps(to_sarif(report), indent=2, sort_keys=True))
        return report.exit_code

    for finding in report.findings:
        print(finding.format())
    if args.show_waived:
        for finding in report.waived:
            print(f"{finding.format()} [waived]")
    summary = (f"{len(report.findings)} finding(s), "
               f"{len(report.waived)} waived, "
               f"{report.n_files} file(s), "
               f"rules: {', '.join(report.rules)}")
    print(("clean: " if report.clean else "") + summary)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
