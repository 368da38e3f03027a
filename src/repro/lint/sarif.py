"""SARIF 2.1.0 serialization of a lint report.

One ``run`` with driver ``replint``; every registered rule (plus the
engine-level ``R000`` and ``E999`` pseudo-rules) appears in the
driver's rule table so CI code-scanning UIs can show descriptions.
Waived findings are emitted as results carrying an ``inSource``
suppression -- they surface in the UI as suppressed, not silently
dropped.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .findings import Finding, LintReport
from .rules import get_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

#: Engine-level codes without Rule classes behind them.
_PSEUDO_RULES = [
    ("E999", "parse-error", "file could not be read or parsed"),
    ("R000", "undocumented-waiver",
     "a replint waiver must carry a reason after the code list"),
]


def _rule_table() -> List[Dict[str, Any]]:
    table = [
        {"id": code, "name": name,
         "shortDescription": {"text": description}}
        for code, name, description in _PSEUDO_RULES]
    for rule in get_rules():
        table.append({
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
        })
    return table


def _result(finding: Finding, rule_index: Dict[str, int],
            suppressed: bool) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.code,
        "level": "error" if finding.code == "E999" else "warning",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": str(finding.path).replace("\\", "/")},
                "region": {
                    "startLine": max(1, finding.line),
                    "startColumn": max(1, finding.col + 1)},
            },
        }],
    }
    if finding.code in rule_index:
        result["ruleIndex"] = rule_index[finding.code]
    if suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    return result


def to_sarif(report: LintReport) -> Dict[str, Any]:
    """The report as a SARIF 2.1.0 log (a plain JSON-able dict)."""
    rules = _rule_table()
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    results = [_result(finding, rule_index, suppressed=False)
               for finding in report.findings]
    results += [_result(finding, rule_index, suppressed=True)
                for finding in report.waived]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "replint",
                "informationUri":
                    "https://example.invalid/repro/docs/architecture",
                "rules": rules,
            }},
            "results": results,
            "properties": {
                "nFiles": report.n_files,
                "rulesRun": list(report.rules),
            },
        }],
    }
