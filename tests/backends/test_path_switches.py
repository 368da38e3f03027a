"""No public entry point selects an evaluation path by parameter.

Each engine runs one public path; its scalar reference is a private
callable that only tests and benchmarks reach.  This pins which public
callables still take a path-selection parameter, so a new switch (or
a rename that reintroduces one) fails here.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

#: parameter name -> every public callable that may take it.
PATH_SWITCHES = {
    "backend": {
        # The exec layer's serial/process executor choice.
        "repro.exec.runner.run_sharded",
        # Kept for the perfbench ota-synthesis workload.
        "repro.synthesis.sizing.CircuitSynthesizer.run",
        # The record of which path scored the population.
        "repro.synthesis.sizing.SynthesisResult.__init__",
    },
    "engine": {
        # The tolerance table names engines; it selects no path.
        "repro.backends.EquivalenceContract.__init__",
        "repro.backends.equivalence_contract",
    },
    "vectorized": set(),
}


def public_callables():
    """(qualname, function) of every public function and public
    method (plus ``__init__``) defined in a ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") \
                    or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                            not attr.startswith("_") or attr == "__init__"):
                        yield f"{module.__name__}.{name}.{attr}", member


@pytest.fixture(scope="module")
def signatures():
    return {qual: inspect.signature(fn).parameters
            for qual, fn in public_callables()}


@pytest.mark.parametrize("param", sorted(PATH_SWITCHES))
def test_path_switch_parameters(signatures, param):
    takers = {qual for qual, params in signatures.items()
              if param in params}
    assert takers == PATH_SWITCHES[param]
