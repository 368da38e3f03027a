"""R010: dead public API.

A public ``repro.*`` definition (no leading underscore, not a dunder)
is live when code outside its own body really uses it:

* a module-level function or class is live when a reference resolves
  to it -- a Name load in its own module, a Name load bound by an
  import of it (package re-exports chased), or an attribute chain
  whose base resolves to its module or to a package that re-exports
  it -- or when its *own* module lists it in ``__all__``.  ``obj.f``
  on any other object is not a reference, and neither is an import
  the module never reads.  A class that a decorator registers (the
  rules' ``@register``) is live; ``@dataclass`` is not registration;
* a public method of a public class is live when ``.name`` or
  ``name`` is loaded anywhere outside its own body: receivers are
  untyped, so methods match by bare name.

References from ``repro.robust.faults`` do not count: the fault
registry drives each API the way a test does.  Run over ``src/repro
benchmarks examples perfbench`` (the CLI default and the CI gate): a
figure, example or perfbench workload counts as a user, a test does
not.  Either wire it up or delete it.  Dunders and module ``main``
hooks are exempt.  Recursion does not count as a reference.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from . import Rule, register

_ENTRY_NAMES = {"main"}


@register
class DeadPublicApiRule(Rule):
    code = "R010"
    name = "dead-public-api"
    description = ("public repro.* functions, classes and methods must be "
                   "used outside their own body (functions and classes "
                   "through a resolved reference or their own module's "
                   "__all__, methods by name); package re-exports and "
                   "the fault registry do not count")
    scope = "semantic"

    def check_semantic(self, model) -> Iterable[Finding]:
        for summary in sorted(model.summaries.values(),
                              key=lambda s: s.path):
            if not summary.module.startswith("repro"):
                continue
            for name, record in summary.classes.items():
                qual = f"{summary.module}.{name}"
                registered = any(decorator.rsplit(".", 1)[-1]
                                 != "dataclass"
                                 for decorator in record["decorators"])
                if not name.startswith("_") and not registered \
                        and name not in summary.exports \
                        and not model.is_referenced(qual):
                    yield self._finding(summary, record["line"],
                                        record["col"], "class", qual)
            for fn in summary.functions.values():
                if not fn.is_public or fn.name in _ENTRY_NAMES:
                    continue
                if fn.class_name is not None:
                    if not model.is_referenced(fn.qual, by_name=True):
                        yield self._finding(summary, fn.line, fn.col,
                                            "method", fn.qual)
                elif fn.name not in summary.exports \
                        and not model.is_referenced(fn.qual):
                    yield self._finding(summary, fn.line, fn.col,
                                        "function", fn.qual)

    def _finding(self, summary, line: int, col: int, kind: str,
                 qual: str) -> Finding:
        return Finding(
            path=summary.path, line=line, col=col, code=self.code,
            message=(f"public {kind} {qual} is never referenced "
                     f"outside its own body -- wire it up or remove it"))
