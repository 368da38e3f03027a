"""R005 vectorization safety.

``math.exp``/``math.log``/... raise ``TypeError: only size-1 arrays``
(or silently truncate via ``__float__``) when handed an ndarray.  Any
function whose signature advertises array inputs (``np.ndarray`` /
``ArrayLike`` annotations) must therefore use the ``numpy`` equivalents
in any expression touching those parameters.  Scalar-only helpers may
keep ``math.*`` -- it is faster on scalars and that is the point of the
batched engines keeping both paths.  The summarizer records each
``math.*`` call on array-annotated parameters of its enclosing
functions (closures see their outer functions' parameters).
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from . import Rule, register


@register
class VectorizationSafetyRule(Rule):
    code = "R005"
    name = "vectorization-safety"
    description = (
        "No scalar math.* calls on parameters annotated as arrays; "
        "use the numpy equivalent.")

    def check(self, model) -> Iterable[Finding]:
        for path, site in model.sites("math-call"):
            yield Finding(
                path=path, line=site.line, col=site.col, code=self.code,
                message=(
                    f"math.{site.detail}() on array-annotated "
                    f"parameter(s) {', '.join(site.params)} "
                    "breaks on ndarray inputs -- use "
                    f"numpy.{site.detail} (or np.asarray first)"))
