"""CLI start-up benchmark: ``node 65nm`` and every command's wall time.

``python -m repro node 65nm`` does almost no work, so its wall time is
interpreter start-up plus imports.  It is printed and recorded, and so
is each subcommand's wall time at its default arguments, one run each
in a fresh interpreter; none is gated, since start-up times on a
shared host vary too much for a threshold.  The one assert: importing
the CLI loads no ``scipy`` module (it loaded 321 while five modules
imported ``scipy.optimize`` or ``scipy.sparse`` at the top).
``tests/test_cli.py::TestCommandImports`` checks what each command
loads.  Measured on a 2-core x86_64 host, medians of 5: ``node 65nm``
took 1.24-1.30 s with those top-level imports, 0.60-0.66 s once scipy
was imported where it is used, and about 0.2 s once ``repro/__init__``
imported no subpackage.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import record_bench
from repro.__main__ import build_parser

SRC = str(Path(__file__).resolve().parents[1] / "src")
NODE_COMMAND = ("-m", "repro", "node", "65nm")
SCIPY_PROBE = ("import sys, repro.__main__; print(*(m for m in sys.modules "
               "if m.split('.')[0] == 'scipy'))")


def python(*args):
    """Run the interpreter on ``src``; its completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True)


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="perf_startup")
def test_cli_startup(benchmark):
    """Report CLI start-up; importing the CLI loads no scipy module."""
    benchmark(python, *NODE_COMMAND)
    t_node = best_of(lambda: python(*NODE_COMMAND))
    scipy_modules = python("-c", SCIPY_PROBE).stdout.split()
    print(f"\nCLI start-up: python -m repro node 65nm "
          f"{t_node * 1e3:.0f} ms (best of 3), "
          f"{len(scipy_modules)} scipy modules loaded")
    record_bench("cli_startup", {
        "node_65nm_ms": round(t_node * 1e3, 1),
        "scipy_modules": len(scipy_modules),
        "gate": "no scipy module on import",
    })
    assert scipy_modules == []


def default_commands():
    """Every subcommand of ``build_parser()`` at its default arguments
    (``node`` needs a name)."""
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return [[command, "65nm"] if command == "node" else [command]
            for command in commands.choices]


@pytest.mark.benchmark(group="perf_startup")
def test_cli_command_wall_times():
    """Record each command's wall time, one run in a fresh interpreter."""
    wall_ms = {}
    for argv in default_commands():
        start = time.perf_counter()
        python("-m", "repro", *argv)
        wall_ms[" ".join(argv)] = round(
            (time.perf_counter() - start) * 1e3, 1)
    print("\nCLI wall time (one run each, fresh interpreter): "
          + ", ".join(f"{command} {ms:.0f} ms"
                      for command, ms in wall_ms.items()))
    record_bench("cli_command_wall_ms", wall_ms)
