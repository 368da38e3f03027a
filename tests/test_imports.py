"""Import layering: every module imports on its own, and a package
loads only the layers it depends on.

Each check runs in a fresh interpreter, so modules an earlier import
left in ``sys.modules`` cannot hide an import cycle or a missing
import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Imports every ``repro`` module after dropping all ``repro*``
#: modules, one at a time, and prints the failures as JSON.
ISOLATED_IMPORTS = """
import importlib, json, pkgutil, sys
import repro
names = ["repro"] + [info.name for info in
                     pkgutil.walk_packages(repro.__path__, "repro.")]
failures = {}
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failures[name] = repr(error)
print(json.dumps({"imported": len(names), "failures": failures}))
"""


def run_python(code):
    """Run ``code`` in a fresh interpreter on ``src``; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_module_imports_on_its_own():
    report = json.loads(run_python(ISOLATED_IMPORTS))
    assert report["failures"] == {}
    assert report["imported"] > 100


def test_technology_loads_only_the_layers_below_it():
    """``technology`` needs ``core.constants``, ``robust`` and
    ``perf``; core's analyses import ``technology`` only inside their
    functions, and ``repro/__init__`` imports nothing."""
    loaded = run_python("import sys, repro.technology; "
                        "print(*sys.modules)").split()
    packages = {name.split(".")[1] for name in loaded
                if name.startswith("repro.")}
    assert packages == {"technology", "core", "robust", "perf"}
    assert [name for name in loaded if name.split(".")[0] == "scipy"] \
        == []
