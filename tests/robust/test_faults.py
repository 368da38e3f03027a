"""The tier-1 fault-injection sweep over the public model APIs."""

import importlib
import inspect
import pkgutil
import textwrap
import types

import numpy as np
import pytest

import repro
from repro.analog import tradeoff
from repro.robust import ModelDomainError
from repro.robust.faults import (PERTURBATIONS, ApiSpec, FaultOutcome,
                                 default_registry, run_fault_sweep)


def repro_modules():
    """Every module of the ``repro`` package, imported."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")]


def unregistered_finite_apis(registry, modules):
    """Qualified names of the functions and methods defined in
    ``modules`` with ``@validated(_result_finite=True)`` that no spec
    in ``registry`` names as its ``api``."""
    registered = {spec.api for spec in registry}
    missing = []
    for module in modules:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) \
                else [obj]
            for member in members:
                member = getattr(member, "__func__", member)
                if getattr(member, "__result_finite__", False) \
                        and member not in registered:
                    missing.append(
                        f"{member.__module__}.{member.__qualname__}")
    return missing


def fixture_module(source):
    """A throwaway module named ``fixture_mod`` built from ``source``."""
    module = types.ModuleType("fixture_mod")
    exec(textwrap.dedent(source), module.__dict__)
    return module


FIXTURE = """
    from repro.robust.validate import validated

    @validated(_result_finite=True, x="finite")
    def real_fn(x):
        return x

    @validated(_result_finite=True, x="finite")
    def forgotten_fn(x):
        return x

    @validated(x="finite")
    def param_only(x):
        return x

    class Model:
        @validated(_result_finite=True, x="finite")
        def evaluate(self, x):
            return x
"""


class TestRegistry:
    def test_registry_tracks_api_surface(self):
        """Every function or method that promises finite results
        (``@validated(_result_finite=True)``) anywhere in ``repro`` is
        some spec's ``api``, so the sweep perturbs it.  A stale entry
        cannot exist: each spec holds the API object itself."""
        assert unregistered_finite_apis(default_registry(),
                                        repro_modules()) == []

    def test_names_import_back_to_their_api(self):
        """A spec's name is the dotted path of a public object: a
        closure or a bound method passed as ``api`` does not import
        back to itself."""
        stale = []
        for spec in default_registry():
            try:
                found = pkgutil.resolve_name(f"repro.{spec.name}")
            except (AttributeError, ImportError, ValueError):
                found = None
            if found is not spec.api:
                stale.append(spec.name)
        assert stale == []

    def test_renamed_api_fails_when_the_registry_is_built(
            self, monkeypatch):
        monkeypatch.delattr(tradeoff, "accuracy_from_bits")
        with pytest.raises(AttributeError, match="accuracy_from_bits"):
            default_registry()

    def test_flags_unregistered_finite_validated_function(self):
        module = fixture_module(FIXTURE)
        registry = [ApiSpec(api, api, {"x": 1.0})
                    for api in (module.real_fn, module.Model.evaluate)]
        assert unregistered_finite_apis(registry, [module]) == [
            "fixture_mod.forgotten_fn"]

    def test_parameter_checks_alone_are_not_flagged(self):
        module = fixture_module(FIXTURE)
        assert "fixture_mod.param_only" not in \
            unregistered_finite_apis([], [module])

    def test_method_level_api(self):
        module = fixture_module(FIXTURE)
        assert "fixture_mod.Model.evaluate" in \
            unregistered_finite_apis([], [module])
        spec = ApiSpec(module.Model.evaluate,
                       lambda x: module.Model().evaluate(x), {"x": 1.0})
        assert spec.name == "fixture_mod.Model.evaluate"
        assert "fixture_mod.Model.evaluate" not in \
            unregistered_finite_apis([spec], [module])

    def test_names_are_unique(self):
        names = [spec.name for spec in default_registry()]
        assert len(names) == len(set(names))

    def test_exec_layer_is_registered(self):
        """The sharded execution layer's public APIs are under the
        fault sweep, raising the registry floor from the pre-exec 58
        entries."""
        names = {spec.name for spec in default_registry()}
        assert {"exec.policy.RetryPolicy", "exec.chaos.ChaosSpec",
                "exec.shards.plan_shards",
                "exec.result.wilson_interval",
                "exec.result.clopper_pearson_interval",
                "exec.runner.run_sharded",
                "lint.semantic.cache.AnalysisCache"} <= names
        assert len(names) >= 66


class TestSweep:
    def test_no_contract_violations(self):
        """The headline assertion: every public API either returns
        finite values or raises a typed ReproError under NaN/inf/zero/
        negative/extreme inputs."""
        report = run_fault_sweep()
        assert report.n_apis == len(default_registry())
        assert report.passed, "\n" + report.summary()

    def test_sweep_is_deterministic(self):
        first = run_fault_sweep()
        second = run_fault_sweep()
        assert [(o.api, o.param, o.value, o.status)
                for o in first.outcomes] == \
               [(o.api, o.param, o.value, o.status)
                for o in second.outcomes]

    def test_perturbation_set_probes_all_classes(self):
        values = list(PERTURBATIONS)
        assert any(v != v for v in values)                 # NaN
        assert float("inf") in values and float("-inf") in values
        assert 0.0 in values and any(v < 0 for v in values)
        assert any(abs(v) > 1e20 for v in values)          # extreme


class TestHarnessMechanics:
    def test_nan_escape_is_flagged(self):
        def leaky(x):
            return x * 2.0

        report = run_fault_sweep([ApiSpec(leaky, leaky, {"x": 1.0})])
        escapes = [o for o in report.outcomes if o.status == "nan-escape"]
        assert escapes, "NaN passthrough must be caught"
        assert not report.passed

    def test_untyped_crash_is_flagged(self):
        def brittle(x):
            return 1.0 / x

        report = run_fault_sweep(
            [ApiSpec(brittle, brittle, {"x": 1.0})])
        crashes = [o for o in report.outcomes if o.status == "crash"]
        assert any("ZeroDivisionError" in o.detail for o in crashes)

    def test_typed_error_passes(self):
        def guarded(x):
            if not np.isfinite(x) or x <= 0:
                raise ModelDomainError("x out of domain")
            return x

        report = run_fault_sweep(
            [ApiSpec(guarded, guarded, {"x": 1.0})])
        assert report.passed

    def test_broken_baseline_is_a_failure(self):
        def needs_two(x):
            raise ModelDomainError("always")

        report = run_fault_sweep(
            [ApiSpec(needs_two, needs_two, {"x": 1.0})])
        assert not report.passed
        assert report.outcomes[0].param == "<baseline>"

    def test_every_baseline_key_is_perturbed(self):
        def pair(x, y):
            return x + y

        report = run_fault_sweep([ApiSpec(pair, pair,
                                          {"x": 1.0, "y": 2.0})])
        assert [o.param for o in report.outcomes] == \
            ["x"] * len(PERTURBATIONS) + ["y"] * len(PERTURBATIONS)

    def test_outcome_ok_property(self):
        assert FaultOutcome("a", "p", "0", "finite").ok
        assert FaultOutcome("a", "p", "0", "typed-error").ok
        assert not FaultOutcome("a", "p", "0", "nan-escape").ok
        assert not FaultOutcome("a", "p", "0", "crash").ok
