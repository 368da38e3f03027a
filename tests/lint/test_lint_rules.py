"""Per-rule fixtures for the rules R001-R003 and R005: true
positives and false-positive avoidance cases, plus corpora that pin
the position of every R001, R003 and R005 finding. The retired R006 keeps its
false-positive cases, now held against R001 and R008."""

import textwrap
from pathlib import Path

from repro.lint import run_lint


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def lint_file(tmp_path, source, name="mod.py", select=None):
    write(tmp_path, name, source)
    return run_lint([tmp_path], select=select, use_cache=False)


def codes(report):
    return [f.code for f in report.findings]


class TestR001RngDiscipline:
    def test_flags_legacy_global_numpy_random(self, tmp_path):
        report = lint_file(tmp_path, """
            import numpy as np

            def sample():
                return np.random.normal(0.0, 1.0, 10)
        """)
        assert codes(report) == ["R001"]
        assert "legacy global numpy.random.normal" \
            in report.findings[0].message

    def test_flags_unseeded_default_rng_passthrough(self, tmp_path):
        report = lint_file(tmp_path, """
            import numpy as np

            def sample(seed=None):
                rng = np.random.default_rng(seed)
                return rng.normal()
        """)
        assert codes(report) == ["R001"]
        assert "unseeded" in report.findings[0].message

    def test_seed_keyword_counts_like_the_positional_seed(self, tmp_path):
        report = lint_file(tmp_path, """
            import numpy as np

            def literal_none():
                return np.random.default_rng(seed=None)

            def passthrough(seed=None):
                return np.random.default_rng(seed=seed)

            def seeded(seed=3):
                return (np.random.default_rng(seed=seed),
                        np.random.default_rng(seed=7))
        """)
        assert [(f.code, f.line) for f in report.findings] \
            == [("R001", 5), ("R001", 8)]
        assert all("unseeded numpy.random.default_rng()" in f.message
                   for f in report.findings)

    def test_flags_stdlib_random(self, tmp_path):
        report = lint_file(tmp_path, """
            import random

            def pick(items):
                return random.choice(items)
        """)
        assert codes(report) == ["R001"]

    def test_allows_injected_generator_and_seeded_rng(self, tmp_path):
        report = lint_file(tmp_path, """
            import numpy as np
            from repro.robust.rng import resolve_rng

            def sample(rng=None, seed=None):
                rng = resolve_rng(rng, seed=seed)
                return rng.normal(0.0, 1.0, 10)

            def fixed():
                return np.random.default_rng(1234).uniform()
        """)
        assert report.clean

    def test_allows_local_variable_named_random(self, tmp_path):
        # no ``import random`` -> ``random.choice`` is an attribute of
        # a local object, not the stdlib module
        report = lint_file(tmp_path, """
            def pick(random, items):
                return random.choice(items)
        """)
        assert report.clean

    CORPUS = {
        "mod.py": """
            import random
            import numpy as np
            import numpy.random as npr
            from numpy import random as nr
            from numpy.random import RandomState, default_rng, normal

            np.random.seed(0)
            GLOBAL = np.random.default_rng()
            draw = lambda: npr.normal()
            SEEDED = default_rng(5)
            BITS = np.random.Generator(np.random.PCG64(1))
            ENTROPY = np.random.SeedSequence(3)


            class Sampler:
                jitter = random.random()

                def make(self, seed=None):
                    return np.random.default_rng(seed)


            def closure(seed=None):
                def inner():
                    return default_rng(seed)
                return inner


            def legacy(n):
                state = RandomState(n)
                return normal(size=n) + nr.uniform() + state.rand()


            def explicit_none():
                return default_rng(None)


            def comprehension(n):
                return [random.gauss(0.0, 1.0) for _ in range(n)]


            def local_import(items):
                import random as rr
                rr.shuffle(items)
                return npr.default_rng(7).permutation(items)
        """,
        "params.py": """
            import random as rnd

            def pick(random, items):
                return random.choice(items) + rnd.choice(items)
        """,
        # The sanctioned construction site is exempt.
        "repro/robust/rng.py": """
            import random
            import numpy as np

            np.random.seed(0)
            ROOT = np.random.default_rng()

            def fresh(seed=None):
                return np.random.default_rng(seed), random.random()
        """,
    }

    def test_corpus_findings_are_pinned(self, tmp_path):
        """Module-level, class-body, closure and aliased-import forms
        are flagged at exact positions; each message names the call."""
        for name, source in self.CORPUS.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        report = run_lint([tmp_path], select=["R001"])
        found = [(Path(f.path).relative_to(tmp_path).as_posix(),
                  f.line, f.col, f.message) for f in report.findings]
        expected = [
            ("mod.py", 8, 0, "legacy global numpy.random.seed()"),
            ("mod.py", 9, 9, "unseeded numpy.random.default_rng()"),
            ("mod.py", 10, 15, "legacy global numpy.random.normal()"),
            ("mod.py", 17, 13, "stdlib random.random()"),
            ("mod.py", 20, 15, "unseeded numpy.random.default_rng()"),
            ("mod.py", 25, 15, "unseeded numpy.random.default_rng()"),
            ("mod.py", 30, 12,
             "legacy global numpy.random.RandomState()"),
            ("mod.py", 31, 11, "legacy global numpy.random.normal()"),
            ("mod.py", 31, 28, "legacy global numpy.random.uniform()"),
            ("mod.py", 35, 11, "unseeded numpy.random.default_rng()"),
            ("mod.py", 39, 12, "stdlib random.gauss()"),
            ("mod.py", 44, 4, "stdlib random.shuffle()"),
            ("params.py", 5, 34, "stdlib random.choice()"),
        ]
        assert [row[:3] for row in found] \
            == [row[:3] for row in expected]
        for (_, _, _, message), (_, _, _, detail) in zip(found,
                                                          expected):
            assert detail in message


class TestR002ValidationBoundary:
    def test_flags_unguarded_public_numeric_api(self, tmp_path):
        report = lint_file(tmp_path, """
            def vth_shift(delta: float) -> float:
                return 2.0 * delta
        """, name="repro/devices/mod.py", select=["R002"])
        assert codes(report) == ["R002"]
        assert "vth_shift" in report.findings[0].message

    def test_validated_decorator_is_evidence(self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.validate import validated

            @validated(delta="finite")
            def vth_shift(delta: float) -> float:
                return 2.0 * delta
        """, name="repro/devices/mod.py", select=["R002"])
        assert report.clean

    def test_delegation_to_guarded_code_is_evidence(self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.validate import check_positive

            def _core(delta: float) -> float:
                check_positive("delta", delta)
                return 2.0 * delta

            def vth_shift(delta: float) -> float:
                return _core(delta)
        """, name="repro/devices/mod.py", select=["R002"])
        assert report.clean

    def test_taxonomy_raise_is_evidence(self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.errors import ModelDomainError

            def vth_shift(delta: float) -> float:
                if delta < 0:
                    raise ModelDomainError("negative delta")
                return 2.0 * delta
        """, name="repro/devices/mod.py", select=["R002"])
        assert report.clean

    def test_non_model_packages_are_out_of_scope(self, tmp_path):
        report = lint_file(tmp_path, """
            def helper(x: float) -> float:
                return x + 1.0
        """, name="repro/perf/mod.py", select=["R002"])
        assert report.clean

    def test_delegation_through_package_reexport_is_evidence(
            self, tmp_path):
        write(tmp_path, "repro/devices/core.py", """
            from repro.robust.validate import check_positive

            def guarded(delta: float) -> float:
                check_positive("delta", delta)
                return 2.0 * delta
        """)
        write(tmp_path, "repro/devices/__init__.py", """
            from .core import guarded
        """)
        report = lint_file(tmp_path, """
            from repro.devices import guarded

            def vth_shift(delta: float) -> float:
                return guarded(delta)
        """, name="repro/devices/mod.py", select=["R002"])
        assert report.clean

    def test_validating_constructor_is_evidence(self, tmp_path):
        report = lint_file(tmp_path, """
            from dataclasses import dataclass

            from repro.robust.validate import check_positive

            @dataclass
            class Stack:
                height: float

                def __post_init__(self):
                    check_positive("height", self.height)

            def stack_of(height: float) -> Stack:
                return Stack(height)
        """, name="repro/devices/mod.py", select=["R002"])
        assert report.clean

    def test_unvalidated_constructor_is_not_evidence(self, tmp_path):
        report = lint_file(tmp_path, """
            from dataclasses import dataclass

            @dataclass
            class Stack:
                height: float

            def stack_of(height: float) -> Stack:
                return Stack(height)
        """, name="repro/devices/mod.py", select=["R002"])
        assert codes(report) == ["R002"]
        assert "stack_of" in report.findings[0].message


class TestR003ExceptionHygiene:
    def test_flags_builtin_raise(self, tmp_path):
        report = lint_file(tmp_path, """
            def f(x):
                if x < 0:
                    raise ValueError("negative")
                return x
        """)
        assert codes(report) == ["R003"]
        assert "ModelDomainError" in report.findings[0].message

    def test_flags_bare_except(self, tmp_path):
        report = lint_file(tmp_path, """
            def f(x):
                try:
                    return 1.0 / x
                except:
                    return 0.0
        """)
        assert codes(report) == ["R003"]
        assert "bare 'except:'" in report.findings[0].message

    def test_allows_taxonomy_and_reraise(self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.errors import ModelDomainError

            def f(x):
                if x < 0:
                    raise ModelDomainError("negative")
                try:
                    return 1.0 / x
                except ZeroDivisionError as err:
                    raise

            def hook():
                raise NotImplementedError
        """)
        assert report.clean

    CORPUS = {
        "mod.py": """
            import builtins
            import errno
            from repro.robust.errors import ModelDomainError

            if errno.EPERM < 0:
                raise RuntimeError("module level")

            try:
                import fcntl
            except:
                fcntl = None


            class Config:
                if not hasattr(errno, "ENOENT"):
                    raise KeyError("class body")

                def load(self, path):
                    try:
                        return open(path).read()
                    except:
                        return ""

                class Inner:
                    def check(self):
                        raise LookupError("nested class")


            def reraise(x):
                try:
                    return 1.0 / x
                except ZeroDivisionError as err:
                    raise err


            def wrapped(x):
                try:
                    return int(x)
                except ValueError as exc:
                    raise ModelDomainError(str(x)) from exc


            def elsewhere():
                exc = ValueError("bound, not caught, in this function")
                raise exc


            def hook():
                raise NotImplementedError("subclass hook")


            def closure(flag):
                def inner():
                    if flag:
                        raise ValueError
                    raise builtins.TypeError("dotted")
                return inner


            def untyped(x):
                raise Exception("no closest taxonomy type")
        """,
    }

    def test_corpus_findings_are_pinned(self, tmp_path):
        """Module-level, class-body, nested-class and closure raises and
        bare excepts are flagged at exact positions; a re-raise of any
        name an ``except ... as`` in the module binds, a taxonomy raise
        and ``NotImplementedError`` are not."""
        for name, source in self.CORPUS.items():
            write(tmp_path, name, source)
        report = run_lint([tmp_path], select=["R003"])
        found = [(Path(f.path).relative_to(tmp_path).as_posix(),
                  f.line, f.col, f.message) for f in report.findings]
        expected = [
            ("mod.py", 7, 4, "raise RuntimeError bypasses the "
             "repro.robust.errors taxonomy (closest taxonomy type: "
             "ConvergenceError)"),
            ("mod.py", 11, 0, "bare 'except:'"),
            ("mod.py", 17, 8, "raise KeyError bypasses the "
             "repro.robust.errors taxonomy (closest taxonomy type: "
             "RoadmapDataError)"),
            ("mod.py", 22, 8, "bare 'except:'"),
            ("mod.py", 27, 12, "raise LookupError bypasses the "
             "repro.robust.errors taxonomy (closest taxonomy type: "
             "RoadmapDataError)"),
            ("mod.py", 56, 12, "raise ValueError bypasses the "
             "repro.robust.errors taxonomy (closest taxonomy type: "
             "ModelDomainError)"),
            ("mod.py", 57, 8, "raise TypeError bypasses the "
             "repro.robust.errors taxonomy (closest taxonomy type: "
             "ModelDomainError)"),
            ("mod.py", 62, 4, "raise Exception bypasses the "
             "repro.robust.errors taxonomy; taxonomy"),
        ]
        assert [row[:3] for row in found] \
            == [row[:3] for row in expected]
        for (_, _, _, message), (_, _, _, detail) in zip(found,
                                                          expected):
            assert message.startswith(detail)


class TestR005VectorizationSafety:
    def test_flags_scalar_math_on_array_param(self, tmp_path):
        report = lint_file(tmp_path, """
            import math
            import numpy as np

            def decay(vth: np.ndarray, tau: float) -> np.ndarray:
                return math.exp(vth / tau)
        """)
        assert codes(report) == ["R005"]
        assert "math.exp" in report.findings[0].message
        assert "vth" in report.findings[0].message

    def test_allows_math_on_scalar_params(self, tmp_path):
        report = lint_file(tmp_path, """
            import math
            import numpy as np

            def decay(vth: np.ndarray, tau: float) -> np.ndarray:
                scale = math.exp(-1.0 / tau)
                return vth * scale
        """)
        assert report.clean

    def test_allows_numpy_on_array_params(self, tmp_path):
        report = lint_file(tmp_path, """
            import numpy as np

            def decay(vth: np.ndarray, tau: float) -> np.ndarray:
                return np.exp(vth / tau)
        """)
        assert report.clean

    CORPUS = {
        "mod.py": """
            import math
            import math as m
            from math import exp
            import numpy as np
            from numpy.typing import ArrayLike, NDArray

            GRID = np.linspace(0.0, 1.0, 5)
            TOP = math.exp(GRID)


            class Model:
                def scale(self, x: np.ndarray, k: float):
                    return math.exp(x) + math.sqrt(k)


            def outer(v: ArrayLike):
                def inner(t: float):
                    return m.log(v * t)
                return inner


            def typed(a: NDArray[np.float64], b: "np.ndarray", n: int):
                return m.hypot(a, b) + math.floor(n) + exp(a)


            def lazy(x: np.ndarray):
                return (lambda: math.tanh(x))()


            def scalar(x: float, y: "float"):
                return math.exp(x) * m.cos(y)
        """,
    }

    def test_corpus_findings_are_pinned(self, tmp_path):
        """Methods, closures over an outer function's array parameter,
        ``ArrayLike``/``NDArray``/string annotations, ``import math as
        m`` and ``from math import exp`` are flagged at exact
        positions; module-level calls and scalar parameters are not."""
        for name, source in self.CORPUS.items():
            write(tmp_path, name, source)
        report = run_lint([tmp_path], select=["R005"])
        found = [(Path(f.path).relative_to(tmp_path).as_posix(),
                  f.line, f.col, f.message) for f in report.findings]
        expected = [
            ("mod.py", 14, 15, "math.exp() on array-annotated "
             "parameter(s) x breaks"),
            ("mod.py", 19, 15, "math.log() on array-annotated "
             "parameter(s) v breaks"),
            ("mod.py", 24, 11, "math.hypot() on array-annotated "
             "parameter(s) a, b breaks"),
            ("mod.py", 24, 43, "math.exp() on array-annotated "
             "parameter(s) a breaks"),
            ("mod.py", 28, 20, "math.tanh() on array-annotated "
             "parameter(s) x breaks"),
        ]
        assert [row[:3] for row in found] \
            == [row[:3] for row in expected]
        for (_, _, _, message), (_, _, _, detail) in zip(found,
                                                          expected):
            assert message.startswith(detail)


class TestR006ShardSeedDiscipline:
    """R006 (shard-seed discipline) folded into R008, which flags its
    true positives. Its false positives must stay quiet under both RNG
    checks."""

    def test_allows_seeded_and_injected_rng(self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.rng import resolve_rng

            def sample_batch(n, seed, rng=None, shard=None):
                generator = resolve_rng(rng, seed=seed)
                return generator.standard_normal(n)
        """, select=["R001", "R008"])
        assert report.clean

    def test_allows_unseeded_rng_outside_shard_functions(
            self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.rng import resolve_rng, spawn_seed

            def sample(n):
                return resolve_rng().standard_normal(n)

            def reseed():
                return spawn_seed()
        """, select=["R001", "R008"])
        assert report.clean

    def test_forwarded_seed_variable_is_sanctioned(self, tmp_path):
        report = lint_file(tmp_path, """
            from repro.robust.rng import resolve_rng

            class Sampler:
                def run_shard(self, start, stop):
                    return resolve_rng(self.rng).normal()
        """, select=["R001", "R008"])
        assert report.clean
