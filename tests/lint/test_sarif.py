"""SARIF 2.1.0 output: schema validity and content fidelity."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema

from repro.lint import run_lint, to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Reduced SARIF 2.1.0 schema: the subset of the official schema that
#: constrains what replint emits (structure, required properties,
#: enumerated values), kept inline so the test needs no network.
SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "informationUri": {
                                        "type": "string",
                                        "format": "uri"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {
                                                    "type": "string"},
                                                "name": {
                                                    "type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required":
                                                        ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0},
                                "level": {"enum": [
                                    "none", "note", "warning",
                                    "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {"type": "string"}},
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1},
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1},
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": {"enum": [
                                                "inSource",
                                                "external"]},
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def lint_tree(tmp_path, files, select=None):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], select=select, use_cache=False)


class TestSarifDocument:
    def test_findings_report_validates(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            import time

            def _sink():
                return time.perf_counter()

            def run_shard(spec):
                return _sink()

            def waived(x):
                raise ValueError("x")  # replint: disable=R003 -- fixture
        """})
        sarif = to_sarif(report)
        jsonschema.validate(sarif, SARIF_SCHEMA)
        results = sarif["runs"][0]["results"]
        rule_ids = {r["ruleId"] for r in results}
        assert "R008" in rule_ids
        suppressed = [r for r in results if "suppressions" in r]
        assert suppressed and \
            suppressed[0]["suppressions"][0]["kind"] == "inSource"

    def test_clean_report_validates(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            def fine(x):
                return x
        """})
        sarif = to_sarif(report)
        jsonschema.validate(sarif, SARIF_SCHEMA)
        assert sarif["runs"][0]["results"] == []

    def test_rule_table_covers_all_codes(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": "x = 1\n"})
        driver = to_sarif(report)["runs"][0]["tool"]["driver"]
        ids = {rule["id"] for rule in driver["rules"]}
        expected = {"E999", "R000"} | {f"R{n:03d}"
                                       for n in range(1, 11)
                                       if n not in (4, 6, 7)}
        assert ids == expected

    def test_syntax_error_is_error_level(self, tmp_path):
        report = lint_tree(tmp_path, {"bad.py": "def broken(:\n"})
        results = to_sarif(report)["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error"]

    def test_cli_sarif_output_round_trips(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    raise ValueError('x')\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path),
             "--format", "sarif", "--no-cache"],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "0"})
        assert result.returncode == 1
        sarif = json.loads(result.stdout)
        jsonschema.validate(sarif, SARIF_SCHEMA)
        assert sarif["version"] == "2.1.0"
        assert any(r["ruleId"] == "R003"
                   for r in sarif["runs"][0]["results"])
