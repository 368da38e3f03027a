"""The incremental semantic analysis cache."""

import ast
import json
import textwrap

import pytest

from repro.lint import run_lint
from repro.lint.context import load_module
from repro.lint.semantic import AnalysisCache, summarize
from repro.robust.errors import ModelDomainError


def write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def summary_of(path):
    info, error = load_module(path)
    assert error is None
    return summarize(info)


class TestAnalysisCache:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, """
            import time

            def stamp():
                return time.time()
        """)
        cache = AnalysisCache(tmp_path / "cache")
        content = path.read_text()
        assert cache.load(path, content) is None
        summary = summary_of(path)
        cache.store(path, content, summary)
        cached = cache.load(path, content)
        assert cached is not None
        assert cached.to_dict() == summary.to_dict()
        assert cache.hits == 1 and cache.misses == 1

    def test_content_change_misses(self, tmp_path):
        path = write(tmp_path, "def f():\n    return 1\n")
        cache = AnalysisCache(tmp_path / "cache")
        content = path.read_text()
        cache.store(path, content, summary_of(path))
        assert cache.load(path, content + "\n# edited") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        path = write(tmp_path, "def f():\n    return 1\n")
        cache = AnalysisCache(tmp_path / "cache")
        content = path.read_text()
        cache.store(path, content, summary_of(path))
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.write_text("{ torn json")
        assert cache.load(path, content) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        path = write(tmp_path, "def f():\n    return 1\n")
        cache = AnalysisCache(tmp_path / "cache")
        content = path.read_text()
        cache.store(path, content, summary_of(path))
        for entry in (tmp_path / "cache").glob("*.json"):
            data = json.loads(entry.read_text())
            data["schema"] = -1
            entry.write_text(json.dumps(data))
        assert cache.load(path, content) is None

    def test_prune_respects_max_files(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache", max_files=2)
        for index in range(5):
            path = write(tmp_path, f"def f{index}():\n    return 1\n",
                         name=f"m{index}.py")
            cache.store(path, path.read_text(), summary_of(path))
        assert len(list((tmp_path / "cache").glob("*.json"))) <= 2

    @pytest.mark.parametrize("bad", [0, -3, 1.5, float("nan"), "many",
                                     True])
    def test_invalid_max_files_is_typed_error(self, tmp_path, bad):
        with pytest.raises(ModelDomainError):
            AnalysisCache(tmp_path / "cache", max_files=bad)


class TestEngineCacheIntegration:
    FILES = {
        "mod.py": """
            import time

            def _sink():
                return time.perf_counter()

            def run_shard(spec):
                return _sink()
        """,
        "other.py": """
            def quiet(x):
                return x
        """,
    }

    def _tree(self, tmp_path):
        for name, source in self.FILES.items():
            write(tmp_path / "tree", source, name=name)
        return tmp_path / "tree"

    def test_warm_run_reports_identically(self, tmp_path):
        tree = self._tree(tmp_path)
        kwargs = dict(select=["R008", "R009", "R010"],
                      cache_dir=tmp_path / "cache")
        cold = run_lint([tree], **kwargs)
        warm = run_lint([tree], **kwargs)
        assert [f.to_dict() for f in cold.findings] \
            == [f.to_dict() for f in warm.findings]
        assert [f.code for f in warm.findings] == ["R008"]

    def test_edit_invalidates_transitively(self, tmp_path):
        tree = self._tree(tmp_path)
        kwargs = dict(select=["R008"], cache_dir=tmp_path / "cache")
        assert [f.code for f in run_lint([tree], **kwargs).findings] \
            == ["R008"]
        # Fix the sink only; the cached root summary must not pin the
        # stale transitive effect.
        (tree / "mod.py").write_text(textwrap.dedent("""
            def _sink():
                return 42

            def run_shard(spec):
                return _sink()
        """))
        assert run_lint([tree], **kwargs).clean

    def test_no_cache_flag_skips_cache_dir(self, tmp_path):
        tree = self._tree(tmp_path)
        report = run_lint([tree], select=["R008"], use_cache=False,
                          cache_dir=tmp_path / "cache")
        assert [f.code for f in report.findings] == ["R008"]
        assert not (tmp_path / "cache").exists()

    def test_syntax_errors_survive_the_warm_path(self, tmp_path):
        tree = tmp_path / "tree"
        write(tree, "def broken(:\n", name="bad.py")
        kwargs = dict(select=["R008"], cache_dir=tmp_path / "cache")
        cold = run_lint([tree], **kwargs)
        warm = run_lint([tree], **kwargs)
        assert [f.code for f in cold.findings] == ["E999"]
        assert [f.to_dict() for f in warm.findings] \
            == [f.to_dict() for f in cold.findings]

    def test_waivers_survive_the_warm_path(self, tmp_path):
        tree = tmp_path / "tree"
        write(tree, """
            import time

            def _sink():
                return time.perf_counter()

            def run_shard(spec):  # replint: disable=R008 -- fixture
                return _sink()
        """, name="mod.py")
        kwargs = dict(select=["R008"], cache_dir=tmp_path / "cache")
        cold = run_lint([tree], **kwargs)
        warm = run_lint([tree], **kwargs)
        for report in (cold, warm):
            assert report.clean
            assert [f.code for f in report.waived] == ["R008"]

    def test_undocumented_waivers_survive_the_warm_path(self, tmp_path):
        tree = tmp_path / "tree"
        write(tree, """
            def f(x):
                return x  # replint: disable=R008
        """, name="mod.py")
        kwargs = dict(select=["R008"], cache_dir=tmp_path / "cache")
        cold = run_lint([tree], **kwargs)
        warm = run_lint([tree], **kwargs)
        assert [f.code for f in cold.findings] == ["R000"]
        assert [f.to_dict() for f in warm.findings] \
            == [f.to_dict() for f in cold.findings]

    def test_warm_all_rule_run_parses_nothing(self, tmp_path,
                                              monkeypatch):
        """Every rule reads the cached summaries: with all rules
        selected, a warm run over per-site findings, their waivers, an
        undocumented waiver and a syntax error never calls
        ``ast.parse`` and reports exactly what the cold run did."""
        tree = tmp_path / "tree"
        write(tree, """
            import math
            import numpy as np

            np.random.seed(0)
            NOISE = np.random.normal()  # replint: disable=R001 -- fixture

            def check(v: np.ndarray):
                if v is None:
                    raise ValueError("v")
                # replint: disable=R003 -- fixture
                raise KeyError("v")

            def grow(v: np.ndarray):
                return math.exp(v)

            def shrink(v: np.ndarray):
                return math.log(v)  # replint: disable=R005 -- fixture

            def quiet(x):
                return x  # replint: disable=R008
        """, name="mod.py")
        write(tree, "def broken(:\n", name="bad.py")
        kwargs = dict(cache_dir=tmp_path / "cache")
        cold = run_lint([tree], **kwargs)

        parses = []
        parse = ast.parse

        def counting_parse(*args, **kw):
            parses.append(args)
            return parse(*args, **kw)

        monkeypatch.setattr(ast, "parse", counting_parse)
        warm = run_lint([tree], **kwargs)
        assert parses == []
        assert [f.code for f in cold.findings] \
            == ["E999", "R001", "R003", "R005", "R000"]
        assert [f.code for f in cold.waived] == ["R001", "R003", "R005"]
        for attr in ("findings", "waived"):
            assert [f.to_dict() for f in getattr(warm, attr)] \
                == [f.to_dict() for f in getattr(cold, attr)]
