"""R003 exception hygiene.

Model code communicates failures through the typed taxonomy in
``repro.robust.errors`` so callers can discriminate domain errors from
convergence failures from data gaps.  This rule flags

* ``raise ValueError(...)`` / other builtin exceptions (use the
  taxonomy: they still *are* ValueError/KeyError/... by inheritance),
* bare ``except:`` clauses (swallow KeyboardInterrupt/SystemExit).

Re-raises (``raise`` with no operand, ``raise err from ...`` of a
name an ``except ... as`` in the module binds) and
``NotImplementedError`` (abstract-hook idiom) are allowed.  The
summarizer records the raise and bare-``except`` sites of the whole
module, re-raises left out.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from . import Rule, register

#: Builtin exceptions whose direct raise is a taxonomy violation.
_BUILTIN_BANNED = {
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "RuntimeError", "ArithmeticError", "ZeroDivisionError",
    "OverflowError", "FloatingPointError", "LookupError", "OSError",
    "IOError", "AssertionError", "StopIteration", "AttributeError",
    "NameError",
}

_SUGGESTION = {
    "ValueError": "ModelDomainError",
    "TypeError": "ModelDomainError",
    "KeyError": "RoadmapDataError",
    "LookupError": "RoadmapDataError",
    "IndexError": "ModelIndexError",
    "RuntimeError": "ConvergenceError",
    "ZeroDivisionError": "ModelDomainError",
    "ArithmeticError": "ModelDomainError",
    "FloatingPointError": "ModelDomainError",
}


@register
class ExceptionHygieneRule(Rule):
    code = "R003"
    name = "exception-hygiene"
    description = (
        "No bare except; raise through the repro.robust.errors "
        "taxonomy instead of builtin exceptions.")

    def check(self, model) -> Iterable[Finding]:
        for path, site in model.sites("bare-except"):
            yield Finding(
                path=path, line=site.line, col=site.col, code=self.code,
                message=("bare 'except:' also catches "
                         "KeyboardInterrupt/SystemExit -- name the "
                         "exception(s) or use 'except Exception'"))
        for path, site in model.sites("raise"):
            if site.detail not in _BUILTIN_BANNED:
                continue
            hint = _SUGGESTION.get(site.detail)
            suggestion = f" (closest taxonomy type: {hint})" if hint \
                else ""
            yield Finding(
                path=path, line=site.line, col=site.col, code=self.code,
                message=(
                    f"raise {site.detail} bypasses the repro.robust.errors "
                    f"taxonomy{suggestion}; taxonomy types still "
                    "subclass the builtin, so callers keep working"))
