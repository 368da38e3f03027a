"""Per-file semantic summaries: the cacheable unit of analysis.

A :class:`FileSummary` is everything the project-wide passes need to
know about one source file -- per-function signatures, direct effect
sets, direct validation evidence, resolved callee candidates, name
references, ``__all__`` exports and the waiver tables -- as plain
JSON-serializable data.  It is a *pure function of the file's content
and path*, which is what makes the incremental cache
(:mod:`repro.lint.semantic.cache`) sound: a content hash fully keys
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
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..astutil import (ImportMap, annotation_source, dotted_name,
                       import_heads, param_default_map,
                       walk_with_function_stack)
from ..context import ModuleInfo
from .effects import detect_effects

#: Bump whenever the summary layout or the extraction semantics
#: change: the cache keys include it, so stale layouts self-evict.
SUMMARY_SCHEMA_VERSION = 4

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
    #: class name -> {"fields": [...], "methods": [...]} in source order
    classes: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    #: bare imported name -> absolute repro target ("repro.x.y.name")
    aliases: Dict[str, str] = field(default_factory=dict)
    #: referenced bare name -> sorted owners ("" = module level / class
    #: body / method; otherwise the enclosing top-level function name)
    references: Dict[str, List[str]] = field(default_factory=dict)
    exports: List[str] = field(default_factory=list)   # __all__ strings
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
            "references": self.references,
            "exports": self.exports,
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
            references=data["references"],
            exports=data["exports"],
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


def _repro_aliases(info: ModuleInfo) -> Dict[str, str]:
    """Imported bare name -> absolute repro-internal dotted target."""
    mapping: Dict[str, str] = {}
    # For a package __init__ the module *is* the package, so level-1
    # relative imports resolve against it, not against its parent.
    if info.path.stem == "__init__":
        package_parts = info.module.split(".")
    else:
        package_parts = info.module.split(".")[:-1]
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    mapping[alias.asname
                            or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[:len(package_parts)
                                           - (node.level - 1)]
                base = ".".join(base_parts
                                + ([node.module] if node.module else []))
            elif node.module and node.module.split(".")[0] == "repro":
                base = node.module
            else:
                continue
            if base.split(".")[0] != "repro":
                continue
            for alias in node.names:
                mapping[alias.asname or alias.name] = \
                    f"{base}.{alias.name}"
    return mapping


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
                        class_name: Optional[str],
                        resolver: _Resolver, imports: ImportMap,
                        heads: FrozenSet[str]) -> FunctionSummary:
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
        for kind, detail in detect_effects(node, imports, heads, stack,
                                           module=info.module):
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


def _collect_references(info: ModuleInfo,
                        summary: FileSummary) -> None:
    references: Dict[str, set] = {}

    def note(name: str, owner: str) -> None:
        references.setdefault(name, set()).add(owner)

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) \
                    and isinstance(child.ctx, ast.Load):
                note(child.id, owner)
            elif isinstance(child, ast.Attribute):
                note(child.attr, owner)
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    note(alias.name, owner)
            child_owner = owner
            if owner == "" and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is info.tree:
                child_owner = child.name
            visit(child, child_owner)

    visit(info.tree, "")
    for node in info.tree.body:
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                literal = _literal_str(element)
                if literal is not None:
                    summary.exports.append(literal)
    summary.references = {name: sorted(owners)
                          for name, owners in sorted(references.items())}


def summarize(info: ModuleInfo) -> FileSummary:
    """Extract the :class:`FileSummary` of one parsed module."""
    aliases = _repro_aliases(info)
    resolver = _Resolver(info, aliases)
    imports = ImportMap(info.tree)
    heads = import_heads(info.tree)

    summary = FileSummary(path=str(info.path), module=info.module,
                          aliases=aliases)

    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _summarize_function(info, node, None, resolver,
                                     imports, heads)
            summary.functions[fn.qual] = fn
        elif isinstance(node, ast.ClassDef):
            fields: List[str] = []
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    fn = _summarize_function(info, item, node.name,
                                             resolver, imports, heads)
                    summary.functions[fn.qual] = fn
                elif isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    fields.append(item.target.id)
            summary.classes[node.name] = {"fields": fields,
                                          "methods": methods}

    _collect_references(info, summary)

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
