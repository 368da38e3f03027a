"""Per-file semantic summaries: the cacheable unit of analysis.

A :class:`FileSummary` is everything the rules need to know about one
source file -- per-function signatures, direct effect sets, direct
validation evidence, resolved callee candidates, name loads and
resolved references, ``__all__`` exports, the per-site facts R001,
R003 and R005 judge, and the waiver tables -- as plain
JSON-serializable data.  It is a *pure function of
the file's content and path*, which is what makes the incremental
cache (:mod:`repro.lint.semantic.cache`) sound: a content hash fully keys
the summary, and everything derived across files (the call graph,
transitive effects) is recomputed from summaries on every run.

Call resolution here is deliberately an under-approximation that
never guesses: bare names resolve through local symbols and explicit
imports, ``self.x`` through the enclosing class (attribute *reads*
too, so properties join the graph), ``Cls.meth`` and
``var = Cls(...); var.meth()`` through locally visible classes.
Unresolvable receivers contribute no edges.  Nested function bodies
fold into their enclosing top-level function: defining a closure is
not executing it, but for reachability lint the conservative merge
is the useful convention (it is what makes decorator factories and
``wrapper`` closures carry their effects).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..astutil import (ImportMap, annotation_source, dotted_name,
                       param_default_map, walk_with_function_stack)
from ..context import ModuleInfo
from .effects import detect_effects

#: Bump whenever the summary layout or the extraction semantics
#: change: the cache keys include it, so stale layouts self-evict.
SUMMARY_SCHEMA_VERSION = 7

#: Annotation substrings that advertise "arrays welcome here".
_ARRAY_TOKENS = ("ndarray", "ArrayLike", "NDArray")

#: Raising one of these counts as an explicit domain guard.
_TAXONOMY_ERRORS = frozenset({
    "ReproError", "ModelDomainError", "ConvergenceError",
    "RoadmapDataError", "SimulationBudgetError", "CalibrationError",
    "ModelIndexError",
})


@dataclass(frozen=True)
class ParamSummary:
    """One parameter of a summarized function."""

    name: str
    kind: str                   # "pos" | "kwonly" | "vararg" | "kwarg"
    default: Optional[str]      # source text, None when required
    annotation: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "default": self.default, "annotation": self.annotation}


@dataclass(frozen=True)
class EffectSummary:
    """One direct nondeterministic/impure operation in a function."""

    kind: str
    line: int
    col: int
    detail: str
    waived: bool = False        # an R008 waiver sits on the source line

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "line": self.line, "col": self.col,
                "detail": self.detail, "waived": self.waived}


@dataclass(frozen=True)
class SiteSummary:
    """One source site a per-site rule judges, anywhere in the file.

    ``global-rng`` (R001): a :func:`~repro.lint.semantic.effects.
    global_rng_state` call, ``detail`` the stream it draws from;
    ``raise`` (R003): a raise of the exception named ``detail`` that
    is not a re-raise of a name an ``except ... as`` in the module
    binds; ``bare-except`` (R003); ``math-call`` (R005): ``math.detail``
    called on the array-annotated parameters ``params`` of its
    enclosing functions.
    """

    kind: str
    line: int
    col: int
    detail: str = ""
    params: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "line": self.line, "col": self.col,
                "detail": self.detail, "params": list(self.params)}


@dataclass
class FunctionSummary:
    """One module-level function or method, semantically summarized."""

    name: str                   # bare name
    qual: str                   # "repro.mod.fn" / "repro.mod.Cls.fn"
    class_name: Optional[str]
    line: int
    col: int
    params: List[ParamSummary] = field(default_factory=list)
    decorators: List[str] = field(default_factory=list)
    effects: List[EffectSummary] = field(default_factory=list)
    callees: List[str] = field(default_factory=list)
    is_public: bool = True
    is_shard_entry: bool = False
    #: R002's direct evidence: ``@validated``, a ``check_*`` or
    #: ``ensure_finite_output`` call, or a taxonomy-error raise
    validates: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "qual": self.qual,
            "class_name": self.class_name,
            "line": self.line, "col": self.col,
            "params": [p.to_dict() for p in self.params],
            "decorators": list(self.decorators),
            "effects": [e.to_dict() for e in self.effects],
            "callees": list(self.callees),
            "is_public": self.is_public,
            "is_shard_entry": self.is_shard_entry,
            "validates": self.validates,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FunctionSummary":
        return FunctionSummary(
            name=data["name"], qual=data["qual"],
            class_name=data["class_name"],
            line=data["line"], col=data["col"],
            params=[ParamSummary(**p) for p in data["params"]],
            decorators=list(data["decorators"]),
            effects=[EffectSummary(**e) for e in data["effects"]],
            callees=list(data["callees"]),
            is_public=data["is_public"],
            is_shard_entry=data["is_shard_entry"],
            validates=data["validates"],
        )


@dataclass
class FileSummary:
    """Everything the semantic passes need to know about one file."""

    path: str
    module: str
    error: Optional[str] = None         # syntax/read error (E999)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: class name -> {"fields": [...], "methods": [...] (source order),
    #: "decorators": [...], "line": n, "col": n}
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: bare imported name -> absolute repro target ("repro.x.y.name")
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Owners are "" (module level), "fn" (a top-level function),
    #: "Cls" (a class body) or "Cls.meth" (a method body); nested
    #: bodies fold into the enclosing owner.
    #: loaded bare name (``name`` or ``.name``) -> sorted owners
    name_loads: Dict[str, List[str]] = field(default_factory=dict)
    #: resolved dotted target of a loaded Name or attribute chain
    #: ("repro.x.f", "repro.pkg.f") -> sorted owners.  An import that
    #: the module never reads is not recorded.
    references: Dict[str, List[str]] = field(default_factory=dict)
    exports: List[str] = field(default_factory=list)   # __all__ strings
    #: what R001, R003 and R005 judge, module-level code included
    sites: List[SiteSummary] = field(default_factory=list)
    #: documented waivers: effective line -> codes; file-wide codes;
    #: undocumented waiver sites (line, codes) for R000.
    line_waiver_codes: Dict[int, List[str]] = field(default_factory=dict)
    file_waiver_codes: List[str] = field(default_factory=list)
    undocumented_waivers: List[Tuple[int, List[str]]] = \
        field(default_factory=list)

    def waived_codes_for_line(self, line: int) -> set:
        codes = set(self.file_waiver_codes)
        codes.update(self.line_waiver_codes.get(line, ()))
        return codes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path, "module": self.module,
            "error": self.error,
            "functions": {qual: fn.to_dict()
                          for qual, fn in self.functions.items()},
            "classes": self.classes,
            "aliases": self.aliases,
            "name_loads": self.name_loads,
            "references": self.references,
            "exports": self.exports,
            "sites": [site.to_dict() for site in self.sites],
            "line_waiver_codes": {str(line): codes for line, codes
                                  in self.line_waiver_codes.items()},
            "file_waiver_codes": self.file_waiver_codes,
            "undocumented_waivers": [
                [line, codes] for line, codes
                in self.undocumented_waivers],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FileSummary":
        return FileSummary(
            path=data["path"], module=data["module"],
            error=data["error"],
            functions={qual: FunctionSummary.from_dict(fn)
                       for qual, fn in data["functions"].items()},
            classes=data["classes"],
            aliases=data["aliases"],
            name_loads=data["name_loads"],
            references=data["references"],
            exports=data["exports"],
            sites=[SiteSummary(**{**site, "params": tuple(site["params"])})
                   for site in data["sites"]],
            line_waiver_codes={int(line): codes for line, codes
                               in data["line_waiver_codes"].items()},
            file_waiver_codes=data["file_waiver_codes"],
            undocumented_waivers=[
                (int(line), list(codes)) for line, codes
                in data["undocumented_waivers"]],
        )


def error_summary(path: str, module: str, error: str) -> FileSummary:
    """Summary standing in for an unparsable file."""
    return FileSummary(path=path, module=module, error=error)


# -- extraction -------------------------------------------------------


def _params(fn: ast.AST) -> List[ParamSummary]:
    args = fn.args
    defaults = param_default_map(fn)
    kinds = [(arg, "pos") for arg in args.posonlyargs + args.args]
    if args.vararg is not None:
        kinds.append((args.vararg, "vararg"))
    kinds += [(arg, "kwonly") for arg in args.kwonlyargs]
    if args.kwarg is not None:
        kinds.append((args.kwarg, "kwarg"))
    params = []
    for arg, kind in kinds:
        default = defaults.get(arg.arg)
        params.append(ParamSummary(
            name=arg.arg, kind=kind,
            default=None if default is None else ast.unparse(default),
            annotation=annotation_source(arg)))
    return params


def _is_shard_entry(fn: ast.AST) -> bool:
    """A shard entry point: named ``run_shard`` or taking ``shard``."""
    if fn.name == "run_shard":
        return True
    args = fn.args
    names = [arg.arg for arg in
             args.posonlyargs + args.args + args.kwonlyargs]
    return "shard" in names


def _validates(node: ast.AST) -> bool:
    """Direct validation evidence: a ``check_*`` or
    ``ensure_finite_output`` call, or a raise of a taxonomy error."""
    if isinstance(node, ast.Call):
        bare = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
        return bare.startswith("check_") \
            or bare == "ensure_finite_output"
    if isinstance(node, ast.Raise) and node.exc is not None:
        target = node.exc.func if isinstance(node.exc, ast.Call) \
            else node.exc
        bare = (dotted_name(target) or "").rsplit(".", 1)[-1]
        return bare in _TAXONOMY_ERRORS
    return False


class _Resolver:
    """Resolve dotted call/attribute targets to qualname candidates."""

    def __init__(self, info: ModuleInfo, aliases: Dict[str, str]):
        self.module = info.module
        self.aliases = aliases
        self.local_symbols = {
            node.name for node in info.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}
        self.local_classes = {
            node.name for node in info.tree.body
            if isinstance(node, ast.ClassDef)}

    def resolve(self, dotted: str, class_name: Optional[str],
                var_types: Dict[str, str]) -> Optional[str]:
        parts = dotted.split(".")
        head = parts[0]
        if head == "self" and class_name is not None:
            if len(parts) == 2:
                return f"{self.module}.{class_name}.{parts[1]}"
            return None
        if len(parts) == 1:
            if head in self.local_symbols:
                return f"{self.module}.{head}"
            target = self.aliases.get(head)
            return target
        if head in self.local_classes and len(parts) == 2:
            return f"{self.module}.{head}.{parts[1]}"
        if head in var_types and len(parts) == 2:
            return f"{var_types[head]}.{parts[1]}"
        if head in self.aliases:
            return ".".join([self.aliases[head]] + parts[1:])
        if head == "repro":
            return dotted
        return None


def _local_var_types(fn: ast.AST, resolver: _Resolver,
                     class_name: Optional[str]) -> Dict[str, str]:
    """``var -> class qualname`` for direct constructor assignments."""
    types: Dict[str, str] = {}
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            continue
        dotted = dotted_name(node.value.func)
        if dotted is None:
            continue
        target = resolver.resolve(dotted, class_name, {})
        if target is None:
            continue
        # Heuristic: a CamelCase final component is a class.
        final = target.split(".")[-1]
        if final[:1].isupper():
            types[node.targets[0].id] = target
    return types


def _summarize_function(info: ModuleInfo, fn: ast.AST,
                        class_name: Optional[str], resolver: _Resolver,
                        recorder: _SiteRecorder) -> FunctionSummary:
    qual = f"{info.module}.{class_name}.{fn.name}" if class_name \
        else f"{info.module}.{fn.name}"
    var_types = _local_var_types(fn, resolver, class_name)
    callees: set = set()
    decorators: List[str] = []
    effects: List[EffectSummary] = []
    # A def nested in ``fn`` folds into it, shard entry points too.
    is_shard_entry = _is_shard_entry(fn)

    for decorator in fn.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        dotted = dotted_name(target)
        if dotted:
            decorators.append(dotted)
            resolved = resolver.resolve(dotted, class_name, var_types)
            if resolved:
                callees.add(resolved)
    validates = "validated" in (
        dotted.rsplit(".", 1)[-1] for dotted in decorators)

    for node, stack in walk_with_function_stack(fn, [fn]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            is_shard_entry = is_shard_entry or _is_shard_entry(node)
        validates = validates or _validates(node)
        for kind, detail in recorder.visit(node, stack):
            line = getattr(node, "lineno", fn.lineno)
            col = getattr(node, "col_offset", 0)
            effects.append(EffectSummary(
                kind=kind, line=line, col=col, detail=detail,
                waived="R008" in info.waived_codes_for_line(line)))
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted:
                resolved = resolver.resolve(dotted, class_name,
                                            var_types)
                if resolved:
                    callees.add(resolved)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" and class_name is not None:
            # self.<attr> reads pull properties into the graph.
            callees.add(f"{info.module}.{class_name}.{node.attr}")

    return FunctionSummary(
        name=fn.name, qual=qual, class_name=class_name,
        line=fn.lineno, col=fn.col_offset,
        params=_params(fn),
        decorators=decorators,
        effects=sorted(effects, key=lambda e: (e.line, e.col, e.kind)),
        callees=sorted(callees),
        is_public=not fn.name.startswith("_")
        and not (class_name or "").startswith("_"),
        is_shard_entry=is_shard_entry,
        validates=validates,
    )


def _literal_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _collect_references(info: ModuleInfo, summary: FileSummary,
                        resolver: _Resolver) -> None:
    name_loads: Dict[str, set] = {}
    references: Dict[str, set] = {}

    def note(node: ast.AST, owner: str) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) \
                    and isinstance(child.ctx, ast.Load):
                bare = child.id
            elif isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Load):
                bare = child.attr
            else:
                continue
            name_loads.setdefault(bare, set()).add(owner)
            dotted = dotted_name(child)
            target = dotted and resolver.resolve(dotted, None, {})
            if target:
                references.setdefault(target, set()).add(owner)

    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for part in node.decorator_list + node.bases + [
                    keyword.value for keyword in node.keywords]:
                note(part, node.name)
            for item in node.body:
                is_method = isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef))
                note(item, f"{node.name}.{item.name}" if is_method
                     else node.name)
        else:
            note(node, "")
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                literal = _literal_str(element)
                if literal is not None:
                    summary.exports.append(literal)
    summary.name_loads = {name: sorted(owners)
                          for name, owners in sorted(name_loads.items())}
    summary.references = {name: sorted(owners)
                          for name, owners in sorted(references.items())}


class _SiteRecorder:
    """One pass over a module's nodes: each node's effects for its
    function summary, and the sites R001, R003 and R005 judge."""

    def __init__(self, module: str, imports: ImportMap):
        self.module = module
        self.imports = imports
        self.sites: List[SiteSummary] = []
        self.raises: List[Tuple[ast.Raise, str, bool]] = []
        self.caught: Set[str] = set()

    def visit(self, node: ast.AST,
              stack: List[ast.AST]) -> List[Tuple[str, str]]:
        """Record ``node``'s sites and return its effects."""
        effects, global_rng = detect_effects(node, self.imports, stack,
                                             module=self.module)
        if global_rng:
            self._add("global-rng", node, global_rng)
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                self._add("bare-except", node)
            if node.name:
                self.caught.add(node.name)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            called = isinstance(node.exc, ast.Call)
            name = dotted_name(node.exc.func if called else node.exc)
            if name is not None:
                self.raises.append((node, name.rsplit(".", 1)[-1],
                                    called))
        elif isinstance(node, ast.Call) and stack:
            self._math_call(node, stack)
        return effects

    def walk(self, root: ast.AST) -> None:
        """Visit ``root`` and everything below it, outside any
        function summary (module-level code and class bodies)."""
        self.visit(root, [])
        for node, stack in walk_with_function_stack(root):
            self.visit(node, stack)

    def finish(self) -> List[SiteSummary]:
        # ``except X as err: ... raise err`` re-raises what it caught;
        # a name bound by any handler in the module counts.
        for node, name, called in self.raises:
            if called or name not in self.caught:
                self._add("raise", node, name)
        return self.sites

    def _math_call(self, node: ast.Call,
                   stack: Sequence[ast.AST]) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = self.imports.canonical(dotted).split(".")
        if len(parts) != 2 or parts[0] != "math":
            return
        array_params = {
            arg.arg for fn in stack
            for arg in fn.args.posonlyargs + fn.args.args
            + fn.args.kwonlyargs
            if any(token in annotation_source(arg)
                   for token in _ARRAY_TOKENS)}
        touched = {
            child.id
            for arg in node.args + [kw.value for kw in node.keywords]
            for child in ast.walk(arg)
            if isinstance(child, ast.Name) and child.id in array_params}
        if touched:
            self._add("math-call", node, parts[1], sorted(touched))

    def _add(self, kind: str, node: ast.AST, detail: str = "",
             params: Sequence[str] = ()) -> None:
        self.sites.append(SiteSummary(kind=kind, line=node.lineno,
                                      col=node.col_offset, detail=detail,
                                      params=tuple(params)))


def summarize(info: ModuleInfo) -> FileSummary:
    """Extract the :class:`FileSummary` of one parsed module."""
    # For a package __init__ the module *is* the package, so level-1
    # relative imports resolve against it, not against its parent.
    package = info.module.split(".")
    if info.path.stem != "__init__":
        package = package[:-1]
    imports = ImportMap(info.tree, package)
    resolver = _Resolver(info, imports.repro)
    recorder = _SiteRecorder(info.module, imports)

    summary = FileSummary(path=str(info.path), module=info.module,
                          aliases=imports.repro)

    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _summarize_function(info, node, None, resolver, recorder)
            summary.functions[fn.qual] = fn
        elif isinstance(node, ast.ClassDef):
            for part in node.decorator_list + node.bases + [
                    keyword.value for keyword in node.keywords]:
                recorder.walk(part)
            fields: List[str] = []
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    fn = _summarize_function(info, item, node.name,
                                             resolver, recorder)
                    summary.functions[fn.qual] = fn
                    continue
                recorder.walk(item)
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    fields.append(item.target.id)
            summary.classes[node.name] = {
                "fields": fields, "methods": methods,
                "decorators": [dotted_name(d.func if isinstance(
                    d, ast.Call) else d) or "" for d in
                    node.decorator_list],
                "line": node.lineno, "col": node.col_offset}
        else:
            recorder.walk(node)
    summary.sites = recorder.finish()

    _collect_references(info, summary, resolver)

    summary.line_waiver_codes = {
        line: sorted({code for waiver in waivers if waiver.documented
                      for code in waiver.codes})
        for line, waivers in info.line_waivers.items()}
    summary.file_waiver_codes = sorted(
        {code for waiver in info.file_waivers if waiver.documented
         for code in waiver.codes})
    summary.undocumented_waivers = [
        (waiver.line, list(waiver.codes))
        for waiver in info.undocumented]
    return summary
