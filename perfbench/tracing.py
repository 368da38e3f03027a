"""Span tracing of the library's layer entry points, from the outside.

A traced request runs with every entry point in :data:`ENTRY_POINTS`
replaced by a wrapper that records a span (name, start, end, parent
span, request id) and, for a few of them, counts read from the
arguments or the result.  The wrappers are installed for one request
and removed after it, so untraced requests run the library's own
functions.  Spans stay in memory until the run writes them out.

Per-layer metrics are sums over the traced requests.  A span's self
time is its duration minus the durations of its children (the client
is single-threaded, so children never overlap).  The root span of a
request is the client; its self time is the part of the request no
traced layer accounts for, reported as ``trace.gap_share``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analog import chain
from repro.analog.circuits import SingleStageOta
from repro.digital import generators, simulator
from repro.digital.simulator_compiled import CompiledEventEngine
from repro.exec import runner
from repro.exec.workloads import YieldWorkload
from repro.perf import cache_stats, profile_registry
from repro.substrate.swan import SwanSimulator
from repro.synthesis.sizing import CircuitSynthesizer
from repro.variability import statistical

ROOT_SPAN = "request"

Counts = Dict[str, int]
Hook = Callable[[Counts, tuple, dict, Any], None]


@dataclass
class Span:
    id: int
    name: str
    request: int
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_draws(counts: Counts, args: tuple, kwargs: dict,
                 batch: Any) -> None:
    counts["dies_drawn"] += args[1] if len(args) > 1 else kwargs["n_dies"]
    counts["dies_returned"] += len(batch.vth_global)


def _count_attempts(counts: Counts, args: tuple, kwargs: dict,
                    result: Any) -> None:
    run = [o for o in result.outcomes if o.source == "worker"]
    counts["shard_attempts"] += sum(o.attempts for o in run)
    counts["shards_run"] += len(run)


def _count_events(counts: Counts, args: tuple, kwargs: dict,
                  trace: Any) -> None:
    counts["events"] += trace.n_events


def _count_synthesis(counts: Counts, args: tuple, kwargs: dict,
                     result: Any) -> None:
    counts["synthesis_runs"] += 1
    counts["evaluations"] += result.n_evaluations
    counts["generations"] += result.report.n_iterations
    counts["feasible"] += bool(result.feasible)


#: (owner, attribute, span name, count hook) of every traced entry
#: point.  Module-level functions are wrapped where their callers look
#: them up (``chain.transfer_linearity_batch`` is the name
#: ``SignalChain.signoff`` calls).
ENTRY_POINTS: Tuple[Tuple[Any, str, str, Optional[Hook]], ...] = (
    (statistical.MonteCarloSampler, "sample_dies_batch",
     "variability.sample_dies_batch", _count_draws),
    (statistical, "monte_carlo_yield_batch",
     "variability.monte_carlo_yield_batch", None),
    (chain, "chain_signoff_batch", "analog.chain_signoff_batch", None),
    (chain, "transfer_linearity_batch",
     "analog.transfer_linearity_batch", None),
    (chain, "histogram_linearity_batch",
     "analog.histogram_linearity_batch", None),
    (chain, "spectral_metrics_batch", "analog.spectral_metrics_batch",
     None),
    (SingleStageOta, "evaluate_batch", "analog.ota_evaluate_batch", None),
    (runner, "run_sharded", "exec.run_sharded", _count_attempts),
    (YieldWorkload, "run_shard", "exec.run_shard", None),
    (YieldWorkload, "validate_payload", "exec.validate_payload", None),
    (YieldWorkload, "merge", "exec.merge", None),
    (generators, "soc_netlist", "digital.soc_netlist", None),
    (CompiledEventEngine, "__init__", "digital.compile", None),
    (simulator, "random_stimulus", "digital.random_stimulus", None),
    (CompiledEventEngine, "run", "digital.simulate", _count_events),
    (SwanSimulator, "__init__", "substrate.init", None),
    (SwanSimulator, "stream_noise", "substrate.stream_noise", None),
    (SwanSimulator, "injected_currents", "substrate.injected_currents",
     None),
    (SwanSimulator, "propagate", "substrate.propagate", None),
    (CircuitSynthesizer, "run", "synthesis.run", _count_synthesis),
)

#: ``timed()`` sections of the library and the span that wraps the same
#: call: their call-count deltas must agree, or the tracing missed (or
#: double-counted) calls.
PROFILE_TWINS = {
    "variability.sample_dies_batch": "variability.sample_dies_batch",
    "variability.monte_carlo_yield_batch":
        "variability.monte_carlo_yield_batch",
    "swan.superposition": "substrate.injected_currents",
    "swan.stream": "substrate.stream_noise",
}

#: Per-layer metrics in report order: (name, unit).  Times are seconds
#: summed over the traced requests.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("variability.sample_s", "s"),
    ("variability.yield_self_s", "s"),
    ("variability.draw_efficiency", "ratio"),
    ("analog.signoff_self_s", "s"),
    ("analog.linearity_s", "s"),
    ("analog.spectral_s", "s"),
    ("analog.ota_eval_s", "s"),
    ("analog.ota_eval_calls", "count"),
    ("exec.run_shard_self_s", "s"),
    ("exec.validate_s", "s"),
    ("exec.merge_s", "s"),
    ("exec.runner_self_s", "s"),
    ("exec.retry_ratio", "ratio"),
    ("exec.cache_hit_ratio", "ratio"),
    ("digital.netlist_s", "s"),
    ("digital.compile_s", "s"),
    ("digital.stimulus_s", "s"),
    ("digital.simulate_s", "s"),
    ("digital.events", "count"),
    ("substrate.init_s", "s"),
    ("substrate.superposition_s", "s"),
    ("substrate.propagate_s", "s"),
    ("substrate.stream_self_s", "s"),
    ("substrate.chunks", "count"),
    ("substrate.characterize_hit_ratio", "ratio"),
    ("synthesis.run_s", "s"),
    ("synthesis.self_s", "s"),
    ("synthesis.evaluations", "count"),
    ("synthesis.generations", "count"),
    ("synthesis.feasible_fraction", "ratio"),
    ("trace.gap_share", "ratio"),
    ("trace.overhead", "ratio"),
)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def _profile_calls() -> Dict[str, int]:
    return {name: record.calls
            for name, record in profile_registry().items()}


def _cache_counts() -> Dict[str, Tuple[int, int]]:
    return {name: (stats.hits, stats.misses)
            for name, stats in cache_stats().items()}


class Tracer:
    """Records spans and counts of the requests run under it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counts = defaultdict(int)
        self.profile_calls: Counts = defaultdict(int)
        self.cache_hits: Counts = defaultdict(int)
        self.cache_misses: Counts = defaultdict(int)
        self.n_requests = 0
        self._stack: List[Span] = []
        self._request = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._request, parent,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func: Callable, name: str,
              hook: Optional[Hook]) -> Callable:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Trace one request: wrap the entry points around it."""
        profile_before = _profile_calls()
        cache_before = _cache_counts()
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _, _ in ENTRY_POINTS]
        for (owner, attr, func), (_, _, name, hook) in zip(originals,
                                                           ENTRY_POINTS):
            setattr(owner, attr, self._wrap(func, name, hook))
        self._request = request_id
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root)
            for owner, attr, func in originals:
                setattr(owner, attr, func)
            self.n_requests += 1
            for name, calls in _profile_calls().items():
                self.profile_calls[name] += (calls
                                             - profile_before.get(name, 0))
            for name, (hits, misses) in _cache_counts().items():
                hits0, misses0 = cache_before.get(name, (0, 0))
                self.cache_hits[name] += hits - hits0
                self.cache_misses[name] += misses - misses0

    def span_totals(self) -> Tuple[Dict[str, float], Dict[str, float],
                                   Dict[str, int]]:
        """(duration, self time, calls) summed per span name."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            total[span.name] += span.duration
            own[span.name] += span.duration - covered[span.id]
            calls[span.name] += 1
        return total, own, calls

    def profile_problems(self) -> List[str]:
        """Disagreements between span counts and ``timed()`` counts."""
        _, _, calls = self.span_totals()
        return [f"{span} traced {calls[span]} calls, timed section "
                f"{section} counted {self.profile_calls[section]}"
                for section, span in PROFILE_TWINS.items()
                if calls[span] != self.profile_calls[section]]

    def _hit_ratio(self, cache: str) -> float:
        hits = self.cache_hits[cache]
        return _ratio(hits, hits + self.cache_misses[cache])

    def layer_metrics(self, overhead: float) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric, by name."""
        total, own, calls = self.span_totals()
        c = self.counts
        values = {
            "variability.sample_s": own["variability.sample_dies_batch"],
            "variability.yield_self_s":
                own["variability.monte_carlo_yield_batch"],
            "variability.draw_efficiency":
                _ratio(c["dies_returned"], c["dies_drawn"]),
            "analog.signoff_self_s": own["analog.chain_signoff_batch"],
            "analog.linearity_s":
                total["analog.transfer_linearity_batch"]
                + total["analog.histogram_linearity_batch"],
            "analog.spectral_s": total["analog.spectral_metrics_batch"],
            "analog.ota_eval_s": total["analog.ota_evaluate_batch"],
            "analog.ota_eval_calls": calls["analog.ota_evaluate_batch"],
            "exec.run_shard_self_s": own["exec.run_shard"],
            "exec.validate_s": total["exec.validate_payload"],
            "exec.merge_s": total["exec.merge"],
            "exec.runner_self_s": own["exec.run_sharded"],
            "exec.retry_ratio": _ratio(
                c["shard_attempts"] - c["shards_run"], c["shards_run"]),
            "exec.cache_hit_ratio": self._hit_ratio("exec.shards"),
            "digital.netlist_s": total["digital.soc_netlist"],
            "digital.compile_s": total["digital.compile"],
            "digital.stimulus_s": total["digital.random_stimulus"],
            "digital.simulate_s": total["digital.simulate"],
            "digital.events": c["events"],
            "substrate.init_s": total["substrate.init"],
            "substrate.superposition_s":
                total["substrate.injected_currents"],
            "substrate.propagate_s": total["substrate.propagate"],
            "substrate.stream_self_s": own["substrate.stream_noise"],
            "substrate.chunks": calls["substrate.injected_currents"],
            "substrate.characterize_hit_ratio":
                self._hit_ratio("injection.characterize_cell"),
            "synthesis.run_s": total["synthesis.run"],
            "synthesis.self_s": own["synthesis.run"],
            "synthesis.evaluations": c["evaluations"],
            "synthesis.generations": c["generations"],
            "synthesis.feasible_fraction":
                _ratio(c["feasible"], c["synthesis_runs"]),
            "trace.gap_share": _ratio(own[ROOT_SPAN], total[ROOT_SPAN]),
            "trace.overhead": overhead,
        }
        return {name: float(values[name]) for name, _ in PER_LAYER}

    def dump(self) -> Dict[str, Any]:
        """JSON-ready record of every span and count."""
        return {
            "spans": [[s.id, s.name, s.request, s.parent, s.start, s.end]
                      for s in self.spans],
            "span_fields": ["id", "name", "request", "parent", "start",
                            "end"],
            "counts": dict(self.counts),
            "profile_calls": dict(self.profile_calls),
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
        }
