"""Smoke tests: every example script runs clean end to end.

The fast scripts run fully in tier-1; the two Monte-Carlo-heavy ones
run fully under ``@pytest.mark.slow``, so the scheduled slow suite
(``pytest -m slow``) covers them.  Every script is also compiled in
tier-1.
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
    "analog_synthesis_flow.py",
    "chain_signoff.py",
    "mixed_signal_soc.py",
    "thermal_runaway.py",
]

SLOW_SCRIPTS = [
    "sram_variability.py",
    "statistical_design.py",
]


def run_example(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("script", FAST_SCRIPTS)
def test_fast_example_runs(script):
    run_example(script)


@pytest.mark.slow
@pytest.mark.parametrize("script", SLOW_SCRIPTS)
def test_slow_example_runs(script):
    run_example(script)


@pytest.mark.parametrize("script", FAST_SCRIPTS + SLOW_SCRIPTS)
def test_example_compiles(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


def test_all_examples_covered():
    """Every .py in examples/ is listed in one of the two groups."""
    on_disk = {path.name for path in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST_SCRIPTS + SLOW_SCRIPTS)
