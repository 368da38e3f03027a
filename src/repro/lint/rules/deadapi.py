"""R010: dead public API.

A public module-level function in ``repro.*`` (no leading underscore,
not a dunder) is live when code outside its own body references it
(calls, attribute access, ``from x import name``, decorator use,
fault-registry baselines -- any Name/Attribute load counts), or when
its *own* module lists it in ``__all__``.  A package ``__init__``
that imports it with ``from .x import f`` only re-exports it, and
another module's ``__all__`` only lists it: neither counts, so
functions that only the test suite calls show up here.  Run over
``src/repro benchmarks examples perfbench`` (the CLI default and the
CI gate): a figure, example or perfbench workload counts as a user,
a test does not.  Either wire it up or delete it.

Methods are exempt (dispatch hides their references); so are module
``main``/CLI entry hooks.  Recursion does not count as a reference.
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
    description = ("public repro.* functions must be used outside their "
                   "own body or listed in their own module's __all__; "
                   "package re-exports do not count")
    scope = "semantic"

    def check_semantic(self, model) -> Iterable[Finding]:
        for summary in sorted(model.summaries.values(),
                              key=lambda s: s.path):
            if not summary.module.startswith("repro"):
                continue
            for fn in summary.functions.values():
                if fn.class_name is not None or not fn.is_public:
                    continue
                if fn.name.startswith("__") or fn.name in _ENTRY_NAMES:
                    continue
                if fn.name in summary.exports:
                    continue
                if model.is_referenced(fn):
                    continue
                yield Finding(
                    path=summary.path, line=fn.line, col=fn.col,
                    code=self.code,
                    message=(f"public function {fn.qual} is never "
                             f"referenced or exported -- wire it up, "
                             f"add it to __all__, or remove it"))
