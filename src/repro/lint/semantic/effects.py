"""Direct effect detection: which nondeterministic operations does a
function body perform *itself*?

Each detector inspects one AST node in the context of the module's
import map and yields ``(kind, detail)`` pairs; the transitive story
(who *reaches* these effects) is the call graph's job
(:mod:`repro.lint.semantic.callgraph`).

The effect vocabulary:

``reads-clock``
    Wall-clock or CPU-clock reads (``time.perf_counter``,
    ``datetime.now``, ...).  Harmless in profiling, fatal in anything
    whose output must replay bit-for-bit.
``unseeded-rng``
    Hidden global RNG state (legacy ``numpy.random.*`` functions,
    stdlib ``random``) and unseeded ``default_rng()`` (including the
    ``seed=None`` pass-through) -- :func:`global_rng_state`, whose
    sites R001 reports -- plus unpinned
    ``resolve_rng()``/``spawn_seed()``: deterministic per process,
    but dependent on global call order, which the shard replay
    contract forbids.
``env-dependent``
    Reads of ambient process/host state: ``os.environ``, PIDs,
    hostnames, CPU counts.
``io``
    Filesystem/subprocess interaction (``open``, ``Path.read_text``,
    ``subprocess.run``, ...).
``unordered-iteration``
    Direct iteration over a set (literal, ``set()``/``frozenset()``
    constructor, or a set-algebra method result) whose order depends
    on hash seeding.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Sequence, Tuple

from ..astutil import ImportMap, dotted_name, is_none_constant, \
    param_default_map

#: Effect kinds that void a determinism contract when reached from a
#: contract-bearing root (the R008 set -- currently every kind).
NONDETERMINISTIC_EFFECTS: Tuple[str, ...] = (
    "reads-clock", "unseeded-rng", "env-dependent", "io",
    "unordered-iteration",
)

_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_ENV_CALLS = {
    "os.getenv", "os.getpid", "os.getppid", "os.urandom",
    "os.cpu_count", "os.getcwd", "os.getlogin",
    "platform.system", "platform.node", "platform.platform",
    "platform.machine", "platform.release",
    "socket.gethostname", "socket.getfqdn",
    "getpass.getuser", "multiprocessing.cpu_count",
}

#: Bare attribute chains (not calls) that read ambient state.
_ENV_ATTRS = {"os.environ"}

_IO_CALLS = {
    "open", "io.open",
    "tempfile.mkstemp", "tempfile.mkdtemp",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
    "tempfile.TemporaryDirectory",
    "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.makedirs", "os.mkdir", "os.rmdir", "os.listdir",
    "os.scandir", "os.stat",
    "shutil.copy", "shutil.copyfile", "shutil.copytree",
    "shutil.move", "shutil.rmtree",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
}

#: Method names that do file I/O on any receiver (Path idioms).
_IO_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
}

#: numpy.random attributes that are construction machinery, not
#: hidden global state.
_NUMPY_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

#: stdlib ``random`` module-level functions that consume or mutate the
#: hidden global Mersenne-Twister state.
_STDLIB_RANDOM = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "getstate", "setstate", "binomialvariate",
}

#: The sanctioned generator construction site: its internal
#: ``default_rng``/root-stream handling is what the call-site
#: detectors (``resolve_rng()``/``spawn_seed()`` unpinned) model, so
#: detecting it *inside* the module would double-count every caller.
RNG_MODULE = "repro.robust.rng"

_SET_METHODS = {
    "intersection", "union", "difference", "symmetric_difference",
}


def _default_rng_unseeded(node: ast.Call,
                          stack: Sequence[ast.AST]) -> bool:
    """True when ``default_rng`` gets no entropy: no seed, a literal
    ``None``, or a bare name that is an enclosing parameter defaulting
    to ``None`` (the ``seed=None`` pass-through).  ``seed=`` counts as
    the first positional argument; ``**kwargs`` counts as seeded."""
    if any(kw.arg is None for kw in node.keywords):
        return False
    seeds = node.args[:1] + [kw.value for kw in node.keywords
                             if kw.arg == "seed"]
    if not seeds:
        return True
    seed = seeds[0]
    if is_none_constant(seed):
        return True
    if isinstance(seed, ast.Name):
        for fn in reversed(stack):
            defaults = param_default_map(fn)
            if seed.id in defaults:
                return is_none_constant(defaults[seed.id])
    return False


def global_rng_state(node: ast.Call, canonical: str, dotted: str,
                     heads: FrozenSet[str],
                     stack: Sequence[ast.AST]) -> str:
    """What unseeded stream the call draws from ('' if none): legacy
    ``numpy.random.*`` global state, an unseeded ``default_rng()`` or
    the stdlib ``random`` module (only when ``random`` really is an
    import in this file, not a local name).

    ``stack`` lists the enclosing function definitions, outermost
    first.  Its sites are R001's findings, and it is the first half
    of the ``unseeded-rng`` effect.
    """
    parts = canonical.split(".")
    if canonical.startswith("numpy.random."):
        attr = parts[2]
        if attr == "default_rng":
            if _default_rng_unseeded(node, stack):
                return "unseeded numpy.random.default_rng()"
        elif attr not in _NUMPY_ALLOWED:
            return f"legacy global numpy.random.{attr}()"
        return ""
    if len(parts) == 2 and parts[0] == "random" \
            and dotted.split(".")[0] in heads \
            and parts[1] in _STDLIB_RANDOM:
        return f"stdlib random.{parts[1]}()"
    return ""


def _child_stream(node: ast.Call, canonical: str, dotted: str) -> str:
    """The detail of a ``resolve_rng()``/``spawn_seed()`` call whose
    every argument is a literal ``None`` ('' otherwise): it hands out
    the next child of the process-global root stream.  Forwarding a
    caller's ``rng``/``seed`` variable is the sanctioned idiom."""
    if canonical == f"{RNG_MODULE}.resolve_rng" \
            or dotted == "resolve_rng":
        detail = "resolve_rng() without rng or seed"
    elif canonical == f"{RNG_MODULE}.spawn_seed" or dotted == "spawn_seed":
        detail = "spawn_seed() without a parent seed"
    else:
        return ""
    arguments = node.args + [kw.value for kw in node.keywords]
    if all(is_none_constant(arg) for arg in arguments):
        return f"{detail} (global child stream)"
    return ""


def _unordered_source(expr: ast.AST) -> str:
    """Why iterating ``expr`` is hash-order dependent ('' if it isn't)."""
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func) or ""
        bare = name.split(".")[-1]
        if bare in ("set", "frozenset") and "." not in name:
            return f"{bare}(...)"
        if isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in _SET_METHODS:
            return f".{expr.func.attr}(...)"
    return ""


def detect_effects(node: ast.AST, imports: ImportMap,
                   stack: Sequence[ast.AST], module: str = ""
                   ) -> Tuple[List[Tuple[str, str]], str]:
    """``(effects, global_rng)``: every ``(kind, detail)`` effect this
    single AST node performs, and the :func:`global_rng_state` detail
    among them ('' if none), the site R001 reports."""
    found: List[Tuple[str, str]] = []
    global_rng = ""
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is not None:
            canonical = imports.canonical(dotted)
            if canonical in _CLOCK_CALLS:
                found.append(("reads-clock", canonical))
            elif canonical in _ENV_CALLS:
                found.append(("env-dependent", f"{canonical}()"))
            elif canonical in _IO_CALLS:
                found.append(("io", f"{canonical}()"))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _IO_METHODS:
                found.append(("io", f".{node.func.attr}()"))
            if module != RNG_MODULE:
                global_rng = global_rng_state(node, canonical, dotted,
                                              imports.heads, stack)
                detail = global_rng or _child_stream(node, canonical,
                                                     dotted)
                if detail:
                    found.append(("unseeded-rng", detail))
    elif isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None and imports.canonical(dotted) in _ENV_ATTRS:
            found.append(("env-dependent",
                          imports.canonical(dotted)))
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        source = _unordered_source(node.iter)
        if source:
            found.append(("unordered-iteration",
                          f"for-loop over {source}"))
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            source = _unordered_source(generator.iter)
            if source:
                found.append(("unordered-iteration",
                              f"comprehension over {source}"))
    return found, global_rng
