"""TP/FP coverage for the semantic rules R008, R009 and R010."""

import textwrap

import pytest

from repro.lint import run_lint


def lint_tree(tmp_path, files, select):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], select=select, use_cache=False)


def codes(report):
    return [f.code for f in report.findings]


class TestR008TransitiveDeterminism:
    def test_shard_entry_reaching_clock_two_calls_deep(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            import time

            def _sink():
                return time.perf_counter()

            def _middle():
                return _sink()

            def run_shard(spec):
                return _middle()
        """}, select=["R008"])
        assert codes(report) == ["R008"]
        message = report.findings[0].message
        assert "reads-clock" in message
        assert "run_shard" in message
        # The witness chain names the intermediate hop and the sink.
        assert "_middle" in message and "_sink" in message

    def test_property_setter_keeps_getter_effects(self, tmp_path):
        """A ``@stamp.setter`` shares its getter's qualname; the
        getter's clock read still reaches ``run_shard`` through
        ``self.stamp``."""
        report = lint_tree(tmp_path, {"mod.py": """
            import time

            class Job:
                @property
                def stamp(self):
                    return time.perf_counter()

                @stamp.setter
                def stamp(self, value):
                    self._stamp = value

                def run_shard(self, spec):
                    return self.stamp
        """}, select=["R008"])
        assert codes(report) == ["R008"]
        message = report.findings[0].message
        assert "reads-clock" in message
        assert "Job.stamp" in message

    def test_listed_root_reaching_unseeded_rng(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/thermal/electrothermal.py": """
                import numpy as np

                def _noise():
                    return np.random.default_rng().normal()

                def solve_operating_point(x):
                    return x + _noise()

                def unlisted_sibling(x):
                    return x + _noise()
            """}, select=["R008"])
        assert codes(report) == ["R008"]
        message = report.findings[0].message
        assert "unseeded-rng" in message
        assert "solve_operating_point" in message

    def test_listed_root_reaching_env_read(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/thermal/electrothermal.py": """
                import os

                def solve_operating_point_batch(x):
                    return float(os.environ.get("SCALE", "1"))
            """}, select=["R008"])
        assert codes(report) == ["R008"]

    @pytest.mark.parametrize("source", [
        pytest.param("""
            from repro.robust.rng import resolve_rng

            def sample_batch(n, shard=None):
                rng = resolve_rng()
                return rng.standard_normal(n)
        """, id="resolve_rng"),
        pytest.param("""
            from repro.robust.rng import spawn_seed

            def run_shard(start, stop):
                return spawn_seed()
        """, id="spawn_seed"),
        pytest.param("""
            from repro.robust import rng as r

            def run_shard(start, stop):
                return r.resolve_rng(None).normal()
        """, id="attr_resolve_rng"),
        pytest.param("""
            from repro.robust.rng import resolve_rng

            def run_shard(start, stop):
                return resolve_rng(seed=None).normal()
        """, id="resolve_rng_kw"),
        pytest.param("""
            from repro.robust.rng import resolve_rng

            def make_runner(n):
                def run_shard(start, stop):
                    return resolve_rng().standard_normal(n)
                return run_shard
        """, id="nested_shard_def"),
        pytest.param("""
            import numpy as np

            def run_shard(spec, seed=None):
                return np.random.default_rng(seed=seed).normal()
        """, id="default_rng_kw"),
    ])
    def test_shard_entry_rng(self, tmp_path, source):
        """A shard entry point must not draw from a stream that depends
        on global call order: unpinned ``resolve_rng()`` or
        ``spawn_seed()``, also in a shard def nested in a plain
        function, or ``default_rng`` given ``seed=None``."""
        report = lint_tree(tmp_path, {"mod.py": source}, select=["R008"])
        assert codes(report) == ["R008"]
        message = report.findings[0].message
        assert "(shard entry point)" in message
        assert "unseeded-rng" in message

    def test_clean_shard_entry_stays_quiet(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            import numpy as np

            def _compute(rng):
                return rng.normal()

            def run_shard(spec, shard=None):
                rng = np.random.default_rng(1234)
                return _compute(rng)
        """}, select=["R008"])
        assert report.clean

    def test_effect_outside_root_reach_is_ignored(self, tmp_path):
        # Nondeterminism in a helper nothing contract-bearing calls
        # is R001's business at most, never R008's.
        report = lint_tree(tmp_path, {"mod.py": """
            import time

            def unrelated_profiling():
                return time.perf_counter()

            def run_shard(spec):
                return 42
        """}, select=["R008"])
        assert report.clean

    def test_sink_waiver_suppresses_silently(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            import time

            def _sink():
                return time.perf_counter()  # replint: disable=R008 -- diagnostics only

            def run_shard(spec):
                return _sink()
        """}, select=["R008"])
        assert report.clean
        assert report.waived == []

    def test_root_waiver_moves_finding_to_waived(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            import time

            def _sink():
                return time.perf_counter()

            def run_shard(spec):  # replint: disable=R008 -- fixture root
                return _sink()
        """}, select=["R008"])
        assert report.clean
        assert [f.code for f in report.waived] == ["R008"]


class TestR009TwinSignatureParity:
    def test_default_drift_is_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            def solve(x, rtol=1e-9):
                return x

            def solve_batch(xs, rtol=1e-6):
                return xs
        """}, select=["R009"])
        assert codes(report) == ["R009"]
        assert "rtol" in report.findings[0].message

    def test_reordered_shared_params_are_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            def solve(width, length, current):
                return width

            def solve_batch(length, width, current):
                return width
        """}, select=["R009"])
        assert codes(report) == ["R009"]
        assert "reordered" in report.findings[0].message

    def test_missing_plumbing_is_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            def solve(x, node_overrides=None):
                return x

            def solve_batch(xs):
                return xs
        """}, select=["R009"])
        assert codes(report) == ["R009"]
        assert "node_overrides" in report.findings[0].message

    def test_required_batch_only_param_after_shared_is_flagged(
            self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            def solve(width, length):
                return width

            def solve_batch(width, length, invalid_policy):
                return width
        """}, select=["R009"])
        assert codes(report) == ["R009"]
        assert "invalid_policy" in report.findings[0].message

    def test_dataclass_unpack_order_mismatch_is_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            from dataclasses import dataclass

            @dataclass
            class Design:
                width: float
                length: float

            class Evaluator:
                def evaluate(self, design: Design):
                    return design.width

                def evaluate_batch(self, length, width):
                    return length
        """}, select=["R009"])
        assert codes(report) == ["R009"]
        assert "declaration order" in report.findings[0].message

    def test_conforming_twins_stay_quiet(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            from dataclasses import dataclass

            @dataclass
            class Design:
                width: float
                length: float

            class Evaluator:
                def evaluate(self, design: Design,
                             node_overrides=None):
                    return design.width

                def evaluate_batch(self, width, length, *,
                                   node_overrides=None,
                                   invalid="raise"):
                    return width

            def sample(count, rng=None):
                return count

            def sample_batch(n_dies, count, rng=None, shard=None):
                return count
        """}, select=["R009"])
        assert report.clean, [f.message for f in report.findings]


class TestR010DeadPublicApi:
    def test_unreferenced_public_function_is_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/mod.py": """
            def orphan(x):
                return x
        """}, select=["R010"])
        assert codes(report) == ["R010"]
        assert "orphan" in report.findings[0].message

    def test_cross_module_reference_is_live(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/mod.py": """
                def helper(x):
                    return x
            """,
            "src/repro/user.py": """
                from repro.mod import helper

                def main():
                    return helper(1)
            """,
        }, select=["R010"])
        assert report.clean

    def test_dunder_all_export_is_live(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/mod.py": """
            __all__ = ["exported"]

            def exported(x):
                return x
        """}, select=["R010"])
        assert report.clean

    def test_package_reexport_is_not_a_use(self, tmp_path):
        """A package ``__init__`` that imports and lists a function
        only re-exports it: only the defining module's ``__all__``
        exempts a function."""
        report = lint_tree(tmp_path, {
            "src/repro/pkg/__init__.py": """
                from .mod import reexported

                __all__ = ["reexported"]
            """,
            "src/repro/pkg/mod.py": """
                def reexported(x):
                    return x
            """,
        }, select=["R010"])
        assert codes(report) == ["R010"]
        assert "repro.pkg.mod.reexported" in report.findings[0].message

    def test_benchmark_reference_is_live(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/mod.py": """
                def tabulated(x):
                    return x
            """,
            "benchmarks/test_fig.py": """
                from repro.mod import tabulated

                def test_fig():
                    assert tabulated(1) == 1
            """,
        }, select=["R010"])
        assert report.clean

    def test_private_functions_and_methods_are_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/mod.py": """
            __all__ = ["Thing"]

            def _internal(x):
                return x

            class Thing:
                def _method_never_called(self):
                    return 1

            class _Hidden:
                def method_never_called(self):
                    return 1
        """}, select=["R010"])
        assert report.clean

    # Tests are not linted, so "only a test uses it" is a definition
    # with no reference in the linted trees.

    def test_method_only_tests_call_is_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/mod.py": """
                __all__ = ["Model"]

                class Model:
                    def evaluate(self):
                        return 1

                    def only_tests_call_me(self):
                        return 2
            """,
            "benchmarks/test_fig.py": """
                from repro.mod import Model

                def test_fig():
                    assert Model().evaluate() == 1
            """,
        }, select=["R010"])
        assert codes(report) == ["R010"]
        assert "method repro.mod.Model.only_tests_call_me" \
            in report.findings[0].message

    def test_class_only_tests_use_is_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/mod.py": """
            from dataclasses import dataclass

            @dataclass
            class Orphan:
                value: float

                def __add__(self, other):
                    return Orphan(self.value + other.value)
        """}, select=["R010"])
        assert codes(report) == ["R010"]
        assert "class repro.mod.Orphan" in report.findings[0].message

    def test_fault_registry_reference_is_not_a_use(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/mod.py": """
                def driven(x):
                    return x
            """,
            "src/repro/robust/faults.py": """
                from ..mod import driven

                __all__ = ["default_registry"]

                def default_registry():
                    return [(driven, {"x": 1.0})]
            """,
        }, select=["R010"])
        assert codes(report) == ["R010"]
        assert "function repro.mod.driven" in report.findings[0].message

    def test_same_named_attribute_and_unused_import_are_not_uses(
            self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/x.py": """
                def f():
                    return 1
            """,
            "src/repro/pkg/user.py": """
                from .x import f

                def main(obj):
                    return obj.f()
            """,
        }, select=["R010"])
        assert codes(report) == ["R010"]
        assert "function repro.pkg.x.f" in report.findings[0].message

    def test_registered_class_is_live(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/rules.py": """
            __all__ = ["run"]

            _REGISTRY = []

            def register(cls):
                _REGISTRY.append(cls)
                return cls

            @register
            class MyRule:
                def check(self):
                    return []

            def run():
                return [rule().check() for rule in _REGISTRY]
        """}, select=["R010"])
        assert report.clean, [f.message for f in report.findings]

    def test_reference_through_package_reexport_is_live(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/pkg/__init__.py": """
                from .mod import f
            """,
            "src/repro/pkg/mod.py": """
                def f():
                    return 1

                def g():
                    return 2
            """,
            "benchmarks/test_fig.py": """
                import repro.pkg.mod
                from repro import pkg

                def test_fig():
                    assert pkg.f() + repro.pkg.mod.g() == 3
            """,
        }, select=["R010"])
        assert report.clean, [f.message for f in report.findings]

    def test_method_called_on_any_receiver_in_a_benchmark_is_live(
            self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/mod.py": """
                __all__ = ["Model"]

                class Model:
                    def evaluate(self):
                        return 1
            """,
            "benchmarks/test_fig.py": """
                def test_fig(anything):
                    assert anything.evaluate() == 1
            """,
        }, select=["R010"])
        assert report.clean, [f.message for f in report.findings]

    def test_recursion_is_not_liveness(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/mod.py": """
            def lonely(n):
                return lonely(n - 1) if n else 0
        """}, select=["R010"])
        assert codes(report) == ["R010"]

    def test_non_repro_trees_are_out_of_scope(self, tmp_path):
        report = lint_tree(tmp_path, {"mod.py": """
            def orphan(x):
                return x
        """}, select=["R010"])
        assert report.clean
