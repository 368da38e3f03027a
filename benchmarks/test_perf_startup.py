"""CLI start-up benchmark: import time and one cheap command.

``python -m repro node 65nm`` does almost no work, so its wall time is
interpreter start-up plus imports, and ``-X importtime`` gives the
cumulative import time of ``repro.__main__``.  Both are printed and
recorded, not gated: start-up times on a shared host vary too much for
a threshold.  The one assert guards what used to cost most of that
time: importing the CLI must load no ``scipy`` module (it loaded 321
while five modules imported ``scipy.optimize`` or ``scipy.sparse`` at
the top).  Measured on a 2-core x86_64 host, medians of 5: import
0.51-0.54 s and ``node 65nm`` 0.60-0.66 s, against 1.15-1.18 s and
1.24-1.30 s with those top-level imports.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import record_bench

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


def import_time_s():
    """Cumulative ``-X importtime`` of ``repro.__main__`` [s]."""
    report = python("-X", "importtime", "-c", "import repro.__main__")
    for line in report.stderr.splitlines():
        fields = [field.strip() for field in line.split("|")]
        if len(fields) == 3 and fields[2] == "repro.__main__":
            return int(fields[1]) / 1e6
    pytest.fail("-X importtime printed no repro.__main__ line")


@pytest.mark.benchmark(group="perf_startup")
def test_cli_startup(benchmark):
    """Report CLI start-up; importing the CLI loads no scipy module."""
    benchmark(python, *NODE_COMMAND)
    t_import = import_time_s()
    t_node = best_of(lambda: python(*NODE_COMMAND))
    scipy_modules = python("-c", SCIPY_PROBE).stdout.split()
    print(f"\nCLI start-up: import repro.__main__ {t_import * 1e3:.0f} ms "
          f"(-X importtime, cumulative), python -m repro node 65nm "
          f"{t_node * 1e3:.0f} ms (best of 3), "
          f"{len(scipy_modules)} scipy modules loaded")
    record_bench("cli_startup", {
        "import_main_ms": round(t_import * 1e3, 1),
        "node_65nm_ms": round(t_node * 1e3, 1),
        "scipy_modules": len(scipy_modules),
        "gate": "no scipy module on import",
    })
    assert scipy_modules == []
