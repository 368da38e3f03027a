"""Smoke tests: every example script runs clean end to end.

The fast scripts run fully; the Monte-Carlo-heavy ones are compiled
and import-checked (their full runs are exercised by the benchmark
suite, which shares their code paths).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_SCRIPTS = [
    "quickstart.py",
    "end_of_road_study.py",
    "adc_design_space.py",
    "chain_signoff.py",
    "mixed_signal_soc.py",
]

HEAVY_SCRIPTS = [
    "analog_synthesis_flow.py",
    "sram_variability.py",
    "thermal_runaway.py",
    "statistical_design.py",
]


@pytest.mark.parametrize("script", FAST_SCRIPTS)
def test_fast_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("script", FAST_SCRIPTS + HEAVY_SCRIPTS)
def test_example_compiles(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


def test_all_examples_covered():
    """Every .py in examples/ is listed in one of the two groups."""
    on_disk = {path.name for path in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST_SCRIPTS + HEAVY_SCRIPTS)
