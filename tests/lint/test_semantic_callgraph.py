"""The semantic layer's plumbing: summaries, call graph, effects."""

import json
import textwrap
from pathlib import Path

from repro.lint.context import load_module
from repro.lint.engine import discover_files
from repro.lint.semantic import (CallGraph, build_semantic_model,
                                 summarize)
from repro.lint.semantic.model import DETERMINISM_ROOTS


def summarize_tree(tmp_path, files):
    summaries = {}
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        info, error = load_module(path)
        assert error is None, error
        summaries[str(path)] = summarize(info)
    return summaries


class TestSummaries:
    def test_direct_effects_are_detected(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time, os, random

            def stamp():
                return time.time()

            def env():
                return os.environ.get("HOME")

            def rng():
                return random.random()

            def disk(path):
                return open(path).read()

            def unordered(items):
                return [x for x in {1, 2, 3}]
        """})
        fns = next(iter(summaries.values())).functions
        kinds = {fn.name: {e.kind for e in fn.effects}
                 for fn in fns.values()}
        assert kinds["stamp"] == {"reads-clock"}
        assert kinds["env"] == {"env-dependent"}
        assert kinds["rng"] == {"unseeded-rng"}
        assert kinds["disk"] == {"io"}
        assert kinds["unordered"] == {"unordered-iteration"}

    def test_source_line_waiver_marks_effect_waived(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            def stamp():
                return time.time()  # replint: disable=R008 -- fixture
        """})
        fn = next(iter(summaries.values())).functions["mod.stamp"]
        assert [e.waived for e in fn.effects] == [True]

    def test_nested_defs_fold_into_enclosing_function(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            def factory():
                def inner():
                    return time.perf_counter()
                return inner
        """})
        fns = next(iter(summaries.values())).functions
        assert set(fns) == {"mod.factory"}
        assert {e.kind for e in fns["mod.factory"].effects} \
            == {"reads-clock"}

    def test_json_round_trip_is_lossless(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            class Widget:
                size: int

                def poke(self, shard=None):
                    return time.time()

            def use():
                return Widget().poke()
        """})
        summary = next(iter(summaries.values()))
        clone = type(summary).from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone.to_dict() == summary.to_dict()

    def test_shard_entry_detection(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            def run_shard(spec):
                return spec

            def sample(n, shard=None):
                return n

            def plain(n):
                return n

            def outer(spec):
                def run_shard(start, stop):
                    return spec
                return run_shard
        """})
        fns = next(iter(summaries.values())).functions
        assert fns["mod.run_shard"].is_shard_entry
        assert fns["mod.sample"].is_shard_entry
        assert not fns["mod.plain"].is_shard_entry
        # A nested shard def folds into its enclosing function.
        assert fns["mod.outer"].is_shard_entry


class TestCallGraph:
    def test_transitive_effects_two_calls_deep(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            def sink():
                return time.time()

            def middle():
                return sink()

            def root():
                return middle()
        """})
        graph = CallGraph(summaries)
        origin = graph.effects_of("mod.root")["reads-clock"]
        assert origin.chain == ("mod.root", "mod.middle", "mod.sink")
        assert origin.sink == "mod.sink"
        assert "time.time" in origin.describe()

    def test_method_and_constructor_edges(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            class Timer:
                def __init__(self):
                    self.t0 = time.perf_counter()

                def helper(self):
                    return 1

                def read(self):
                    return self.helper()

            def use():
                return Timer().read()
        """})
        graph = CallGraph(summaries)
        assert "mod.Timer.helper" in graph.callees("mod.Timer.read")
        # Constructing the class reaches its __init__ clock read.
        assert "reads-clock" in graph.effects_of("mod.use")

    def test_cross_module_reexport_resolution(self, tmp_path):
        # ``repro.pkg.helper`` is a re-export: resolution must chase
        # the package __init__ alias to the defining module.
        summaries = summarize_tree(tmp_path, {
            "src/repro/pkg/__init__.py": """
                from .impl import helper
            """,
            "src/repro/pkg/impl.py": """
                import os

                def helper():
                    return os.environ["X"]
            """,
            "src/repro/user.py": """
                from repro.pkg import helper

                def caller():
                    return helper()
            """,
        })
        graph = CallGraph(summaries)
        assert "env-dependent" in \
            graph.effects_of("repro.user.caller")

    def test_waived_sink_does_not_propagate(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            def sink():
                return time.time()  # replint: disable=R008 -- fixture

            def root():
                return sink()
        """})
        graph = CallGraph(summaries)
        assert graph.effects_of("mod.root") == {}

    def test_recursion_terminates(self, tmp_path):
        summaries = summarize_tree(tmp_path, {"mod.py": """
            import time

            def a(n):
                return b(n - 1) if n else time.time()

            def b(n):
                return a(n)
        """})
        graph = CallGraph(summaries)
        assert "reads-clock" in graph.effects_of("mod.a")
        assert "reads-clock" in graph.effects_of("mod.b")


class TestModel:
    def test_listed_determinism_roots(self, tmp_path):
        summaries = summarize_tree(tmp_path, {
            "src/repro/thermal/electrothermal.py": """
                def solve_operating_point(x):
                    return x

                def solve_operating_point_batch(xs):
                    return xs

                def unlisted_sibling(x):
                    return x

                def run_shard(spec):
                    return spec
            """})
        model = build_semantic_model(summaries)
        module = "repro.thermal.electrothermal"
        assert dict(model.determinism_roots()) == {
            f"{module}.run_shard": "shard entry point",
            f"{module}.solve_operating_point": "listed determinism root",
            f"{module}.solve_operating_point_batch":
                "listed determinism root",
        }

    def test_every_listed_root_exists_in_the_source_tree(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        summaries = {}
        for path in discover_files([src]):
            info, error = load_module(path)
            assert error is None, error
            summaries[str(path)] = summarize(info)
        functions = build_semantic_model(summaries).graph.functions
        assert [qual for qual in DETERMINISM_ROOTS
                if qual not in functions] == []

    def test_liveness_tracking(self, tmp_path):
        summaries = summarize_tree(tmp_path, {
            "src/repro/a.py": """
                def used():
                    return 1

                def dead():
                    return 2

                def recursive():
                    return recursive()
            """,
            "src/repro/b.py": """
                from repro.a import used

                def caller():
                    return used()
            """,
        })
        model = build_semantic_model(summaries)
        by_name = {fn.name: fn
                   for fn in model.graph.functions.values()}
        assert model.is_referenced(by_name["used"])
        assert not model.is_referenced(by_name["dead"])
        # Recursion alone is not a reference.
        assert not model.is_referenced(by_name["recursive"])
