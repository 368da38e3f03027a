"""CLI behaviour and the repo-level acceptance gates:

* the shipped tree lints clean (exit 0, no undocumented waivers),
* seeding one violation of each rule into a copy flips it non-zero.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def run_cli(args):
    return main([str(a) for a in args])


class TestCli:
    def test_list_rules(self, capsys):
        assert run_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("R")]
        assert listed == ["R001", "R002", "R003", "R005", "R008",
                          "R009", "R010"]

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert run_cli([tmp_path / "nope"]) == 2

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert run_cli([tmp_path, "--select", "R999"]) == 2

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    raise ValueError('x')\n")
        assert run_cli([tmp_path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "R003"

    def test_show_waived(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    raise ValueError('x')"
                       "  # replint: disable=R003 -- fixture\n")
        assert run_cli([tmp_path, "--show-waived"]) == 0
        assert "[waived]" in capsys.readouterr().out


class TestShippedTreeIsClean:
    def test_module_invocation_exits_zero(self):
        """``python -m repro.lint src/repro`` is the CI gate."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(SRC),
             "--format", "json"],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "0"})
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["clean"] is True
        # Undocumented waivers surface as R000 findings, so a clean
        # report implies every waiver in the tree carries a reason.
        assert payload["n_findings"] == 0

    def test_semantic_rules_pass_on_shipped_tree(self):
        """``python -m repro.lint --select R008,R009,R010 src/repro``
        is the semantic acceptance gate."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint",
             "--select", "R008,R009,R010", str(SRC)],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "0"})
        assert result.returncode == 0, result.stdout + result.stderr

    def test_shipped_waivers_are_few_and_documented(self):
        report = json.loads(subprocess.run(
            [sys.executable, "-m", "repro.lint", str(SRC),
             "--format", "json"],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "0"}).stdout)
        assert report["n_waived"] <= 5


SEEDS = {
    "R001": """
        import numpy as np

        def sample():
            return np.random.normal()
    """,
    "R002": """
        def unguarded(x: float) -> float:
            return x * 2.0
    """,
    "R003": """
        def f(x):
            raise ValueError("bad")
    """,
    "R005": """
        import math
        import numpy as np

        def f(v: np.ndarray) -> np.ndarray:
            return math.exp(v)
    """,
    "R008": """
        import time

        def _sink():
            return time.perf_counter()

        def _middle():
            return _sink()

        def run_shard(spec):
            return _middle()
    """,
    "R009": """
        def solve(x, rtol=1e-9):
            return x

        def solve_batch(xs, rtol=1e-6):
            return xs
    """,
    "R010": """
        def orphan(x):
            return x
    """,
}

#: Rules that only fire inside specific package layouts.
SEED_PATHS = {
    "R002": "repro/devices/seeded.py",
    "R010": "repro/devices/seeded.py",
}


class TestSeededViolationsFail:
    @pytest.mark.parametrize("code", sorted(SEEDS))
    def test_seeded_violation_exits_nonzero(self, tmp_path, code,
                                            capsys):
        name = SEED_PATHS.get(code, "seeded.py")
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(SEEDS[code]))
        assert run_cli([tmp_path, "--select", code]) == 1
        assert code in capsys.readouterr().out
