"""R009: scalar/batched twin signatures must agree.

The equivalence suites (PR 8/9) prove scalar and vectorized
evaluators agree *numerically* -- but only for the signatures the
tests happen to exercise.  R009 pins the signatures themselves so
twins cannot drift between equivalence-test runs:

* every ``X``/``X_batch`` pair in the same module or class is a twin;
* shared parameters must appear in the same relative order with the
  same default expressions;
* determinism plumbing (``rng``, ``seed``, ``backend``,
  ``node_overrides``, ``shard``) present on the scalar must be
  accepted by the batched twin;
* batch-only parameters are fine as the *leading* batching axis
  (``n_dies``, ``input_width`` arrays, ...) but once the shared
  parameter region starts they must be optional (defaulted or
  keyword-only), so scalar call shapes translate mechanically;
* when the scalar takes a single dataclass argument that the batch
  unpacks into per-field arrays, the batch's positional parameters
  must be exactly the dataclass fields, in declaration order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..findings import Finding
from . import Rule, register

#: Parameters that carry the determinism contract: if the scalar twin
#: accepts one, the batched twin must accept it too.
_PLUMBING = ("rng", "seed", "backend", "node_overrides", "shard")

_IGNORED = {"self", "cls"}


def _sig_params(fn) -> List:
    return [p for p in fn.params
            if p.name not in _IGNORED and p.kind in ("pos", "kwonly")]


def _positional_names(fn) -> List[str]:
    return [p.name for p in fn.params
            if p.name not in _IGNORED and p.kind == "pos"]


@register
class TwinSignatureParityRule(Rule):
    code = "R009"
    name = "twin-signature-parity"
    description = ("scalar and batched twin signatures must agree "
                   "modulo the batching axis")

    def check(self, model) -> Iterable[Finding]:
        graph = model.graph
        paths = {fn.qual: summary.path
                 for summary in model.summaries.values()
                 for fn in summary.functions.values()}
        for batch_qual in sorted(graph.functions):
            if not batch_qual.endswith("_batch"):
                continue
            scalar_qual = batch_qual[:-len("_batch")]
            if scalar_qual not in graph.functions:
                continue
            scalar = graph.functions[scalar_qual]
            batch = graph.functions[batch_qual]
            for message in self._compare(model, scalar, batch):
                yield Finding(
                    path=paths[batch_qual], line=batch.line,
                    col=batch.col, code=self.code,
                    message=f"{batch.name} vs {scalar.name}: {message}")

    # -- pairwise checks ----------------------------------------------

    def _compare(self, model, scalar, batch) -> Iterable[str]:
        scalar_params = _sig_params(scalar)
        batch_params = _sig_params(batch)
        scalar_by_name = {p.name: p for p in scalar_params}
        batch_by_name = {p.name: p for p in batch_params}
        shared = [p.name for p in scalar_params
                  if p.name in batch_by_name]

        # (a) shared parameters keep their relative order.
        batch_order = [p.name for p in batch_params
                       if p.name in scalar_by_name]
        if batch_order != shared:
            yield (f"shared parameters are reordered: scalar has "
                   f"({', '.join(shared)}), batched has "
                   f"({', '.join(batch_order)})")

        # (b) shared defaults must match textually.
        for name in shared:
            scalar_default = scalar_by_name[name].default
            batch_default = batch_by_name[name].default
            if scalar_default != batch_default:
                yield (f"parameter '{name}' default drifted: scalar "
                       f"has {scalar_default!r}, batched has "
                       f"{batch_default!r}")

        # (c) determinism plumbing present on the scalar must exist
        # on the batched twin.
        for name in _PLUMBING:
            if name in scalar_by_name and name not in batch_by_name:
                yield (f"scalar accepts '{name}' but the batched "
                       f"twin does not")

        # (d) batch-only parameters after the shared region must be
        # optional (the leading batching axis is exempt).
        first_shared = None
        for index, p in enumerate(batch_params):
            if p.name in scalar_by_name:
                first_shared = index
                break
        if first_shared is not None:
            for p in batch_params[first_shared:]:
                if p.name in scalar_by_name:
                    continue
                if p.kind == "pos" and p.default is None:
                    yield (f"batch-only parameter '{p.name}' after "
                           f"the shared region must be optional or "
                           f"keyword-only")

        # (e) scalar-takes-a-dataclass, batch-unpacks-fields parity.
        yield from self._unpack_parity(model, scalar, batch)

    def _unpack_parity(self, model, scalar, batch) -> Iterable[str]:
        scalar_positional = [p for p in scalar.params
                             if p.name not in _IGNORED
                             and p.kind == "pos"]
        if len(scalar_positional) != 1:
            return
        fields = self._fields_of(model, scalar,
                                 scalar_positional[0].annotation)
        if not fields:
            return
        batch_positional = _positional_names(batch)
        if batch_positional[:len(fields)] != fields:
            yield (f"scalar takes "
                   f"{scalar_positional[0].annotation} (fields: "
                   f"{', '.join(fields)}) but batched positionals "
                   f"are ({', '.join(batch_positional)}) -- unpack "
                   f"order must match field declaration order")

    @staticmethod
    def _fields_of(model, scalar,
                   annotation: str) -> Optional[List[str]]:
        name = annotation.strip().strip("'\"")
        if not name or "." in name:
            return None
        module = scalar.qual.rsplit(
            ".", 2 if scalar.class_name else 1)[0]
        candidate = f"{module}.{name}"
        record = model.graph.classes.get(candidate)
        if record is None:
            for summary in model.summaries.values():
                if summary.module == module and name in summary.aliases:
                    record = model.graph.classes.get(
                        summary.aliases[name])
                    break
        if record is None:
            return None
        return record.get("fields") or None
