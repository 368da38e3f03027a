"""Small AST helpers shared by the lint rules."""

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
    """Resolve local aliases back to canonical module/symbol paths.

    ``import numpy as np``             -> ``np``     => ``numpy``
    ``import numpy.random as npr``     -> ``npr``    => ``numpy.random``
    ``from numpy import random as r``  -> ``r``      => ``numpy.random``
    ``from numpy.random import normal``-> ``normal`` => ``numpy.random.normal``
    """

    def __init__(self, tree: ast.Module):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] \
                        = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def canonical(self, dotted: str) -> str:
        """Map the leading alias of ``a.b.c`` to its canonical path."""
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def import_heads(tree: ast.AST) -> FrozenSet[str]:
    """Top-level names bound by import statements anywhere in ``tree``."""
    heads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            heads.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            heads.update(alias.asname or alias.name
                         for alias in node.names)
    return frozenset(heads)


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
