"""Project call graph + transitive effect propagation.

Assembled fresh on every run from the per-file summaries (cached or
just extracted) -- the graph itself is never cached, which is what
makes cache invalidation transitive *by construction*: re-summarizing
one edited file is enough for every downstream fact to be rebuilt.

Resolution of a callee candidate recorded by the summarizer:

* an exact function qualname (``repro.mod.fn``, ``repro.mod.Cls.m``);
* a class qualname -- expands to the methods that run when the class
  is *used*: ``__init__``/``__post_init__`` (construction),
  ``__call__`` (decorator/callable use), ``__enter__``/``__exit__``
  (context-manager use).  Conservative: using a class reaches all of
  them;
* a re-export -- ``repro.perf.timed`` chases through the aliases
  recorded for ``repro/perf/__init__.py`` to
  ``repro.perf.profile.timed`` (bounded chase, cycles tolerated).

Unresolvable candidates contribute no edges; the graph is an
under-approximation everywhere except class expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .summary import FileSummary, FunctionSummary

_CLASS_ENTRY_METHODS = ("__init__", "__post_init__", "__call__",
                        "__enter__", "__exit__")

#: Alias-chase bound; re-export chains deeper than this are abandoned.
_MAX_ALIAS_HOPS = 8


@dataclass(frozen=True)
class EffectOrigin:
    """Why a function carries an effect, with a witness call chain.

    ``chain`` runs from the carrying function itself down to ``sink``,
    the function whose body performs the effect (``chain[0]`` is the
    carrier, ``chain[-1] == sink``; a direct effect has a length-1
    chain).
    """

    kind: str
    detail: str
    sink: str
    sink_line: int
    chain: Tuple[str, ...]

    def describe(self) -> str:
        if len(self.chain) <= 1:
            return f"{self.detail} at {self.sink}:{self.sink_line}"
        route = " -> ".join(part.rsplit(".", 2)[-1]
                            if part.count(".") < 2
                            else ".".join(part.rsplit(".", 2)[-2:])
                            for part in self.chain)
        return (f"{self.detail} at {self.sink}:{self.sink_line} "
                f"via {route}")


class CallGraph:
    """Queryable intra-project call graph with effect propagation."""

    def __init__(self, summaries: Dict[str, FileSummary]):
        self.summaries = summaries
        #: qualname -> FunctionSummary, merged across all files.
        self.functions: Dict[str, FunctionSummary] = {}
        #: class qualname -> {"fields": [...], "methods": [...]}
        self.classes: Dict[str, Dict[str, List[str]]] = {}
        #: module dotted name -> that module's alias map.
        self._module_aliases: Dict[str, Dict[str, str]] = {}
        for summary in summaries.values():
            self.functions.update(summary.functions)
            for name, record in summary.classes.items():
                self.classes[f"{summary.module}.{name}"] = record
            self._module_aliases[summary.module] = summary.aliases
        self._edges: Dict[str, Tuple[str, ...]] = {}
        self._callers: Dict[str, List[str]] = {}
        self._build_edges()
        self._origins: Dict[str, Dict[str, EffectOrigin]] = {}
        self._propagate()

    # -- resolution ---------------------------------------------------

    def _chase_alias(self, candidate: str) -> Optional[str]:
        """One re-export hop: ``pkg.name`` -> ``pkg``'s alias target."""
        prefix, _, name = candidate.rpartition(".")
        aliases = self._module_aliases.get(prefix)
        if aliases and name in aliases and aliases[name] != candidate:
            return aliases[name]
        return None

    def resolve(self, candidate: str) -> List[str]:
        """Function qualnames a recorded candidate actually reaches."""
        seen = set()
        for _ in range(_MAX_ALIAS_HOPS):
            if candidate in seen:
                break
            seen.add(candidate)
            if candidate in self.functions:
                return [candidate]
            if candidate in self.classes:
                methods = self.classes[candidate].get("methods", [])
                return [f"{candidate}.{method}"
                        for method in _CLASS_ENTRY_METHODS
                        if method in methods]
            # ``pkg.Cls.method`` through a re-exported class.
            head, _, tail = candidate.rpartition(".")
            chased = self._chase_alias(candidate)
            if chased is None and head:
                chased_head = self._chase_alias(head)
                if chased_head is not None:
                    chased = f"{chased_head}.{tail}"
            if chased is None:
                return []
            candidate = chased
        return []

    # -- structure ----------------------------------------------------

    def _build_edges(self) -> None:
        for qual in sorted(self.functions):
            targets: List[str] = []
            for candidate in self.functions[qual].callees:
                for target in self.resolve(candidate):
                    if target != qual and target not in targets:
                        targets.append(target)
            self._edges[qual] = tuple(targets)
            for target in targets:
                self._callers.setdefault(target, []).append(qual)

    def callees(self, qual: str) -> Tuple[str, ...]:
        return self._edges.get(qual, ())

    def callers(self, qual: str) -> Tuple[str, ...]:
        return tuple(self._callers.get(qual, ()))

    # -- effect propagation -------------------------------------------

    def _propagate(self) -> None:
        origins: Dict[str, Dict[str, EffectOrigin]] = {
            qual: {} for qual in self.functions}
        for qual in sorted(self.functions):
            for effect in self.functions[qual].effects:
                if effect.waived:
                    continue
                origins[qual].setdefault(effect.kind, EffectOrigin(
                    kind=effect.kind, detail=effect.detail, sink=qual,
                    sink_line=effect.line, chain=(qual,)))
        # Round-based fixpoint in sorted order: deterministic output
        # regardless of dict insertion order, and each function gains
        # each effect kind at most once, so it terminates.
        changed = True
        while changed:
            changed = False
            for qual in sorted(self.functions):
                mine = origins[qual]
                for callee in self._edges.get(qual, ()):
                    for kind, origin in sorted(
                            origins.get(callee, {}).items()):
                        if kind in mine:
                            continue
                        mine[kind] = EffectOrigin(
                            kind=kind, detail=origin.detail,
                            sink=origin.sink,
                            sink_line=origin.sink_line,
                            chain=(qual,) + origin.chain)
                        changed = True
        self._origins = origins

    def effects_of(self, qual: str) -> Dict[str, EffectOrigin]:
        """Transitive effect kinds carried by ``qual`` (with witnesses)."""
        return dict(self._origins.get(qual, {}))

    def reachable(self, roots: Iterable[str]) -> List[str]:
        """Every function reachable from ``roots`` (roots included)."""
        stack = [root for root in roots if root in self.functions]
        seen = set(stack)
        while stack:
            qual = stack.pop()
            for callee in self._edges.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return sorted(seen)
