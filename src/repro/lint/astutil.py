"""Small AST helpers shared by the summarizer and the effect detectors."""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Every alias table of one module, from one pass over its imports.

    ``canonical()`` maps a local alias back to its module/symbol path:

    ``import numpy as np``             -> ``np``     => ``numpy``
    ``import numpy.random as npr``     -> ``npr``    => ``numpy.random``
    ``from numpy import random as r``  -> ``r``      => ``numpy.random``
    ``from numpy.random import normal``-> ``normal`` => ``numpy.random.normal``

    ``heads`` holds the top-level names import statements bind anywhere
    in the module, and ``repro`` maps a bare imported name to its
    absolute repro-internal target, resolving relative imports against
    ``package`` (the dotted parts of the importing module's package).
    """

    def __init__(self, tree: ast.Module, package: List[str]):
        self.aliases: Dict[str, str] = {}
        self.repro: Dict[str, str] = {}
        heads = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    head = alias.asname or root
                    heads.add(head)
                    self.aliases[head] = \
                        alias.name if alias.asname else root
                    if root == "repro":
                        # ``import repro.x.y`` binds ``repro`` itself.
                        self.repro[head] = self.aliases[head]
            elif isinstance(node, ast.ImportFrom):
                heads.update(alias.asname or alias.name
                             for alias in node.names)
                if node.module and node.level == 0:
                    for alias in node.names:
                        self.aliases[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
                if node.level:
                    base = ".".join(
                        package[:len(package) - (node.level - 1)]
                        + ([node.module] if node.module else []))
                else:
                    base = node.module or ""
                if base.split(".")[0] == "repro":
                    for alias in node.names:
                        self.repro[alias.asname or alias.name] = \
                            f"{base}.{alias.name}"
        self.heads: FrozenSet[str] = frozenset(heads)

    def canonical(self, dotted: str) -> str:
        """Map the leading alias of ``a.b.c`` to its canonical path."""
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def walk_with_function_stack(
        tree: ast.AST, stack: Sequence[ast.AST] = ()
) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Yield (node, enclosing_function_stack) for every node below
    ``tree``.

    The stack lists enclosing FunctionDef/AsyncFunctionDef nodes,
    outermost first, after the initial ``stack``.
    """
    def visit(node: ast.AST, stack: List[ast.AST]):
        for child in ast.iter_child_nodes(node):
            yield child, stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, stack + [child])
            else:
                yield from visit(child, stack)
    yield from visit(tree, list(stack))


def param_default_map(fn: ast.AST) -> Dict[str, Optional[ast.AST]]:
    """Parameter name -> default expression (None when required)."""
    args = fn.args
    defaults: Dict[str, Optional[ast.AST]] = {}
    positional = args.posonlyargs + args.args
    pos_defaults = [None] * (len(positional) - len(args.defaults)) \
        + list(args.defaults)
    for arg, default in zip(positional, pos_defaults):
        defaults[arg.arg] = default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        defaults[arg.arg] = default
    return defaults


def is_none_constant(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def annotation_source(arg: ast.arg) -> str:
    if arg.annotation is None:
        return ""
    try:
        return ast.unparse(arg.annotation)
    except Exception:  # pragma: no cover - defensive
        return ""
