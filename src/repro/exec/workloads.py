"""Shardable Monte Carlo workloads and their exact merge rules.

A :class:`ShardWorkload` binds a batched model entry point to the
three things the runner needs:

* ``run_shard(start, stop)`` -- evaluate one contiguous slice of the
  population and return a *JSON payload* (plain lists and scalars:
  picklable for worker processes, checkpointable, and cacheable).
  Pass vectors travel bit-packed: ``passed`` is
  ``np.packbits(passed).tolist()``, ``ceil(n / 8)`` ints in 0-255;
* ``validate_payload`` -- reject corrupted worker output (wrong
  length, non-finite values, impossible counts) with a typed
  :class:`~repro.robust.errors.PoisonedResultError` so the runner
  retries instead of merging garbage;
* ``merge(payloads)`` -- rebuild the single-process result from the
  per-shard payloads in shard order.

The determinism contract is carried by the model layer, not by this
module: every workload rebuilds its sampler from the fixed seed on
each attempt, and the shard-aware entry points
(:func:`~repro.variability.statistical.monte_carlo_yield_batch`,
:func:`~repro.analog.chain.chain_signoff_batch`,
:meth:`~repro.digital.ssta.StatisticalTimingAnalyzer.run_shard`)
guarantee that shard unit ``k`` is bit-for-bit unit ``start + k`` of
the full run.  Merging is then pure concatenation (arrays), integer
addition (counts), or order-independent reduction (max), so merged
statistics equal the single-process oracle's bit for bit -- for any
shard count, worker failure order, or retry history.

The waveform workload (:class:`SocNoiseWorkload`) is the documented
exception: partial sensor waveforms *sum* across shards, so changing
the shard plan moves float round-off exactly like the streaming
chunk size does in :meth:`~repro.substrate.swan.SwanSimulator.
stream_noise`; for a fixed plan the result is still independent of
failures and retries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..perf.cache import KeyedCache
from ..robust.errors import ModelDomainError, PoisonedResultError
from ..robust.validate import check_count

__all__ = [
    "ShardWorkload", "YieldWorkload", "ChainSignoffWorkload",
    "SstaWorkload", "SocNoiseWorkload", "YIELD_METRICS",
]

#: Named ``DieBatch -> (n_dies,) array`` metrics for the yield
#: workload.  Names (not callables) go into cache keys, checkpoints
#: and worker processes, so CLI runs and resumed runs agree on what
#: was measured.
YIELD_METRICS: Dict[str, Callable[[Any], np.ndarray]] = {
    "vth-shift": lambda batch: np.abs(batch.vth_global),
    "length-shift": lambda batch: np.abs(
        batch.length_factor_global - 1.0),
    "tox-shift": lambda batch: np.abs(batch.tox_factor_global - 1.0),
}


def _require(payload: Any, keys: Tuple[str, ...]) -> None:
    if not isinstance(payload, dict):
        raise PoisonedResultError(
            f"shard payload must be a dict, got {type(payload)!r}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise PoisonedResultError(
            f"shard payload missing keys {missing}")


def _check_span(payload: Any, start: int, stop: int) -> None:
    if payload.get("start") != start or payload.get("stop") != stop:
        raise PoisonedResultError(
            f"shard payload spans [{payload.get('start')}, "
            f"{payload.get('stop')}), expected [{start}, {stop})")


def _check_floats(name: str, values: Any,
                  length: Optional[int] = None) -> None:
    if not isinstance(values, list):
        raise PoisonedResultError(
            f"payload field {name!r} must be a list")
    if length is not None and len(values) != length:
        raise PoisonedResultError(
            f"payload field {name!r} has {len(values)} entries, "
            f"expected {length}")
    for value in values:
        if isinstance(value, bool) or not isinstance(
                value, (int, float)) or not math.isfinite(value):
            raise PoisonedResultError(
                f"payload field {name!r} contains non-finite or "
                f"non-numeric entry {value!r}")


_BYTE_VALUES = frozenset(range(256))


def _check_packed(name: str, values: Any, length: int) -> None:
    """Check a ``np.packbits`` byte list of ``length`` pass flags."""
    n_bytes = -(-length // 8)
    if not isinstance(values, list) or len(values) != n_bytes:
        raise PoisonedResultError(
            f"payload field {name!r} must be a list of {n_bytes} "
            f"packed bytes for {length} flags")
    # Exact types, not isinstance(): a bool is not a byte.
    if set(map(type, values)) != {int}:
        raise PoisonedResultError(
            f"payload field {name!r} contains a non-integer byte")
    if not _BYTE_VALUES.issuperset(values):
        raise PoisonedResultError(
            f"payload field {name!r} contains a byte outside 0-255")
    if values[-1] & ((1 << (8 * n_bytes - length)) - 1):
        raise PoisonedResultError(
            f"payload field {name!r} has padding bits set")


def _unpack(payload: Dict[str, Any]) -> np.ndarray:
    """The validated payload's pass vector as a bool array."""
    return np.unpackbits(
        np.frombuffer(bytes(payload["passed"]), dtype=np.uint8),
        count=payload["stop"] - payload["start"]).astype(bool)


class ShardWorkload:
    """Base protocol of a shardable Monte Carlo workload.

    Subclasses are plain parameter holders (picklable, so worker
    processes can rebuild the computation from scratch) and must
    implement the population size, the shard evaluator, payload
    validation and the exact merge.
    """

    #: Short stable name; part of every cache and checkpoint key.
    name: str = "abstract"

    def n_total(self) -> int:
        """Population size being sharded (dies, samples, events)."""
        raise NotImplementedError

    def key(self) -> tuple:
        """Hashable, JSON-serializable parameter identity."""
        raise NotImplementedError

    def run_shard(self, start: int, stop: int) -> Dict[str, Any]:
        """Evaluate units ``[start, stop)`` and return a payload."""
        raise NotImplementedError

    def validate_payload(self, payload: Any, start: int,
                         stop: int) -> None:
        """Raise :class:`PoisonedResultError` on corrupt output."""
        raise NotImplementedError

    def merge(self, payloads: List[Dict[str, Any]]) -> Any:
        """Rebuild the single-process result (payloads in order)."""
        raise NotImplementedError

    def pass_counts(self, payload: Dict[str, Any]
                    ) -> Optional[Tuple[int, int]]:
        """``(n_pass, n)`` of one payload, or ``None`` if not a
        yield-style workload (then no binomial bounds are emitted)."""
        return None

    def partial_statistics(self, payloads: List[Dict[str, Any]]
                           ) -> Dict[str, float]:
        """Summary statistics over *completed* shards only."""
        return {}


@dataclass(frozen=True)
class YieldWorkload(ShardWorkload):
    """Sharded :func:`~repro.variability.statistical.
    monte_carlo_yield_batch` over one node's die population."""

    node_name: str
    metric: str
    limit: float
    n_dies: int = 500
    seed: int = 0
    upper_is_fail: bool = True

    name = "yield"

    def __post_init__(self) -> None:
        if self.metric not in YIELD_METRICS:
            raise ModelDomainError(
                f"unknown yield metric {self.metric!r}; available: "
                f"{sorted(YIELD_METRICS)}")
        check_count("n_dies", self.n_dies)
        check_count("seed", self.seed, minimum=0)

    def n_total(self) -> int:
        return self.n_dies

    def key(self) -> tuple:
        return (self.node_name, self.metric, float(self.limit),
                self.n_dies, self.seed, self.upper_is_fail)

    def run_shard(self, start: int, stop: int) -> Dict[str, Any]:
        from ..technology import get_node
        from ..variability.statistical import (MonteCarloSampler,
                                               monte_carlo_yield_batch)
        sampler = MonteCarloSampler(get_node(self.node_name),
                                    seed=self.seed)
        result = monte_carlo_yield_batch(
            sampler, YIELD_METRICS[self.metric], self.limit,
            n_dies=self.n_dies, upper_is_fail=self.upper_is_fail,
            shard=(start, stop))
        return {"start": start, "stop": stop,
                "passed": np.packbits(result.passed).tolist()}

    def validate_payload(self, payload: Any, start: int,
                         stop: int) -> None:
        _require(payload, ("start", "stop", "passed"))
        _check_span(payload, start, stop)
        _check_packed("passed", payload["passed"], stop - start)

    def merge(self, payloads: List[Dict[str, Any]]) -> Any:
        from ..variability.statistical import YieldResult
        passed = np.concatenate([_unpack(p) for p in payloads])
        return YieldResult(n_samples=int(passed.size),
                           n_pass=int(np.count_nonzero(passed)),
                           passed=passed)

    def pass_counts(self, payload: Dict[str, Any]
                    ) -> Tuple[int, int]:
        passed = _unpack(payload)
        return (int(np.count_nonzero(passed)), int(passed.size))

    def partial_statistics(self, payloads: List[Dict[str, Any]]
                           ) -> Dict[str, float]:
        n_pass = sum(self.pass_counts(p)[0] for p in payloads)
        n = sum(self.pass_counts(p)[1] for p in payloads)
        return {"n_done": float(n), "n_pass": float(n_pass),
                "yield_fraction": n_pass / n if n else float("nan")}


@dataclass(frozen=True)
class ChainSignoffWorkload(ShardWorkload):
    """Sharded DAC -> SC filter -> ADC sign-off
    (:func:`~repro.analog.chain.chain_signoff_batch`), merging to the
    exact :func:`~repro.analog.chain.chain_yield_vs_node` row."""

    node_name: str
    n_dies: int = 64
    seed: int = 0
    dnl_limit: float = 0.5
    inl_limit: float = 1.0
    enob_min: Optional[float] = None

    name = "chain-signoff"

    def __post_init__(self) -> None:
        check_count("n_dies", self.n_dies)
        check_count("seed", self.seed, minimum=0)
        # Bad limits fail here, not as a crash in every worker.
        self._spec()

    def n_total(self) -> int:
        return self.n_dies

    def key(self) -> tuple:
        return (self.node_name, self.n_dies, self.seed,
                float(self.dnl_limit), float(self.inl_limit),
                None if self.enob_min is None else float(
                    self.enob_min))

    def _spec(self):
        from ..analog import ChainSpec
        return ChainSpec(dnl_limit=self.dnl_limit,
                         inl_limit=self.inl_limit,
                         enob_min=self.enob_min)

    def run_shard(self, start: int, stop: int) -> Dict[str, Any]:
        from ..analog.chain import chain_signoff_batch
        from ..technology import get_node
        from ..variability.statistical import MonteCarloSampler
        sampler = MonteCarloSampler(get_node(self.node_name),
                                    seed=self.seed)
        result = chain_signoff_batch(
            sampler, spec=self._spec(), n_dies=self.n_dies,
            shard=(start, stop))
        dnl = np.maximum(np.asarray(result.dac.dnl_max, dtype=float),
                         np.asarray(result.adc.dnl_max, dtype=float))
        inl = np.maximum(np.asarray(result.dac.inl_max, dtype=float),
                         np.asarray(result.adc.inl_max, dtype=float))
        return {
            "start": start, "stop": stop,
            "passed": np.packbits(result.passed).tolist(),
            "enob": [float(v) for v in np.asarray(
                result.spectral.enob, dtype=float)],
            "dnl_max": [float(v) for v in dnl],
            "inl_max": [float(v) for v in inl],
        }

    def validate_payload(self, payload: Any, start: int,
                         stop: int) -> None:
        _require(payload,
                 ("start", "stop", "passed", "enob", "dnl_max",
                  "inl_max"))
        _check_span(payload, start, stop)
        size = stop - start
        _check_packed("passed", payload["passed"], size)
        _check_floats("enob", payload["enob"], size)
        _check_floats("dnl_max", payload["dnl_max"], size)
        _check_floats("inl_max", payload["inl_max"], size)

    def merge(self, payloads: List[Dict[str, Any]]
              ) -> Dict[str, float]:
        from ..analog.chain import _yield_row

        def column(key: str) -> np.ndarray:
            return np.concatenate(
                [np.asarray(p[key], dtype=float) for p in payloads])

        passed = np.concatenate([_unpack(p) for p in payloads])
        return _yield_row(self.node_name, passed, column("enob"),
                          column("dnl_max"), column("inl_max"))

    def pass_counts(self, payload: Dict[str, Any]
                    ) -> Tuple[int, int]:
        passed = _unpack(payload)
        return (int(np.count_nonzero(passed)), int(passed.size))

    def partial_statistics(self, payloads: List[Dict[str, Any]]
                           ) -> Dict[str, float]:
        enob = [v for p in payloads for v in p["enob"]]
        n_pass = sum(self.pass_counts(p)[0] for p in payloads)
        n = sum(self.pass_counts(p)[1] for p in payloads)
        return {
            "n_done": float(n),
            "yield_fraction": n_pass / n if n else float("nan"),
            "enob_mean": (sum(enob) / len(enob)
                          if enob else float("nan")),
            "enob_min": min(enob) if enob else float("nan"),
        }


@dataclass(frozen=True)
class SstaWorkload(ShardWorkload):
    """Sharded Monte Carlo SSTA over a generated ripple-adder
    netlist, merging samples and integer criticality counts exactly
    (:func:`~repro.digital.ssta.merge_ssta_shards`)."""

    node_name: str
    width: int = 8
    n_samples: int = 200
    seed: int = 0

    name = "ssta"

    def n_total(self) -> int:
        return self.n_samples

    def key(self) -> tuple:
        return (self.node_name, self.width, self.n_samples,
                self.seed)

    def _analyzer(self):
        from ..digital.generators import ripple_adder
        from ..digital.ssta import StatisticalTimingAnalyzer
        from ..technology import get_node
        netlist = ripple_adder(get_node(self.node_name),
                               width=self.width)
        return StatisticalTimingAnalyzer(netlist, seed=self.seed)

    def run_shard(self, start: int, stop: int) -> Dict[str, Any]:
        shard = self._analyzer().run_shard(self.n_samples,
                                           (start, stop))
        return {
            "start": start, "stop": stop,
            "samples": [float(v) for v in shard.samples],
            "counts": [int(c) for c in shard.counts],
            "names": list(shard.names),
            "nominal": float(shard.nominal_delay),
        }

    def validate_payload(self, payload: Any, start: int,
                         stop: int) -> None:
        _require(payload, ("start", "stop", "samples", "counts",
                           "names", "nominal"))
        _check_span(payload, start, stop)
        size = stop - start
        _check_floats("samples", payload["samples"], size)
        counts = payload["counts"]
        names = payload["names"]
        if not isinstance(counts, list) or not isinstance(
                names, list) or len(counts) != len(names):
            raise PoisonedResultError(
                "payload counts/names must be lists of equal length")
        for count in counts:
            if isinstance(count, bool) or not isinstance(
                    count, int) or not 0 <= count <= size:
                raise PoisonedResultError(
                    f"criticality count {count!r} outside [0, "
                    f"{size}]")
        nominal = payload["nominal"]
        if not isinstance(nominal, float) or not math.isfinite(
                nominal):
            raise PoisonedResultError(
                f"nominal delay {nominal!r} is not a finite float")

    def merge(self, payloads: List[Dict[str, Any]]) -> Any:
        from ..digital.ssta import SstaShard, merge_ssta_shards
        shards = [SstaShard(
            samples=np.asarray(p["samples"], dtype=float),
            counts=np.asarray(p["counts"], dtype=np.int64),
            names=tuple(p["names"]),
            nominal_delay=p["nominal"],
            start=p["start"], stop=p["stop"]) for p in payloads]
        return merge_ssta_shards(shards)

    def partial_statistics(self, payloads: List[Dict[str, Any]]
                           ) -> Dict[str, float]:
        samples = [v for p in payloads for v in p["samples"]]
        if not samples:
            return {"n_done": 0.0}
        return {
            "n_done": float(len(samples)),
            "mean_delay_ps": 1e12 * sum(samples) / len(samples),
            "max_delay_ps": 1e12 * max(samples),
        }


#: One-entry memo of the last soc-noise flow: ``SocNoiseWorkload.key()``
#: -> (event trace, SWAN simulator).  ``n_total()`` fills it before any
#: shard runs (and before any fork), so every shard and retry of a run
#: replays one netlist, simulation and SWAN set-up.
_SOC_FLOWS = KeyedCache("exec.soc_noise_flows", maxsize=1)


@dataclass(frozen=True)
class SocNoiseWorkload(ShardWorkload):
    """Sharded SoC activity -> substrate noise: the event trace is
    split into event ranges, each shard streams its range to the
    sensor through ``stream_noise`` in chunks of ``chunk_events``
    events, and partial waveforms sum in shard order.

    The shard plan moves float round-off exactly like
    ``stream_noise``'s ``chunk_events`` does (documented there); for
    a fixed plan the waveform is independent of failures/retries, and
    with one shard it is bit-for-bit ``stream_noise`` of the whole
    trace.

    The flow (netlist, event simulation, SWAN set-up) depends only on
    ``key()``, so a run builds it once, in ``n_total()``, and its
    shards and retries replay it (:data:`_SOC_FLOWS`).
    """

    node_name: str = "65nm"
    target_gates: int = 2_000
    n_blocks: int = 4
    n_cycles: int = 4
    frequency: float = 50e6
    seed: int = 0
    event_budget: int = 10_000_000

    name = "soc-noise"

    #: SWAN sampling step [s] (the stream_noise default).
    dt = 25e-12
    #: Events per streamed chunk (the stream_noise default).
    chunk_events = 100_000

    def key(self) -> tuple:
        return (self.node_name, self.target_gates, self.n_blocks,
                self.n_cycles, float(self.frequency), self.seed,
                self.event_budget)

    def _trace_and_swan(self):
        """Build the flow: netlist, event simulation, SWAN set-up."""
        from ..digital import random_stimulus, soc_netlist
        from ..digital.simulator_compiled import CompiledEventEngine
        from ..substrate import SwanSimulator
        from ..technology import get_node
        node = get_node(self.node_name)
        netlist = soc_netlist(node, target_gates=self.target_gates,
                              n_blocks=self.n_blocks, seed=self.seed)
        engine = CompiledEventEngine(
            netlist, clock_period=1.0 / self.frequency,
            event_budget=self.event_budget)
        stimulus = random_stimulus(
            netlist, self.n_cycles, seed=self.seed,
            held_high=["en"] + [f"blk{b}_en"
                                for b in range(self.n_blocks)])
        trace = engine.run(stimulus, self.n_cycles)
        swan = SwanSimulator(netlist,
                             clock_frequency=self.frequency,
                             seed=self.seed)
        return trace, swan

    def _flow(self):
        """The memoized :meth:`_trace_and_swan` of this run."""
        return _SOC_FLOWS.get_or_compute(self.key(),
                                         self._trace_and_swan)

    def n_total(self) -> int:
        trace, _ = self._flow()
        return trace.n_events

    def run_shard(self, start: int, stop: int) -> Dict[str, Any]:
        trace, swan = self._flow()
        wave = swan.stream_noise(trace.event_range(start, stop),
                                 dt=self.dt,
                                 chunk_events=self.chunk_events)
        return {
            "start": start, "stop": stop,
            "n_events": trace.n_events,
            "activity": float(trace.activity_factor(self.n_cycles)),
            "n_gates": len(trace.instance_names),
            "duration": float(trace.duration),
            "voltage": wave.voltage.tolist(),
        }

    def validate_payload(self, payload: Any, start: int,
                         stop: int) -> None:
        _require(payload, ("start", "stop", "voltage", "n_events",
                           "activity", "n_gates", "duration"))
        _check_span(payload, start, stop)
        _check_floats("voltage", payload["voltage"])
        if not payload["voltage"]:
            raise PoisonedResultError(
                "shard produced an empty waveform")

    def merge(self, payloads: List[Dict[str, Any]]
              ) -> Dict[str, float]:
        from ..substrate import NoiseWaveform
        voltage = np.zeros(len(payloads[0]["voltage"]))
        for payload in payloads:
            partial = np.asarray(payload["voltage"], dtype=float)
            if partial.size != voltage.size:
                raise ModelDomainError(
                    "soc-noise shards disagree on the time axis")
            voltage += partial
        duration = payloads[0]["duration"]
        wave = NoiseWaveform(time=np.arange(0.0, duration, self.dt),
                             voltage=voltage)
        return {
            "gates": int(payloads[0]["n_gates"]),
            "events": int(payloads[0]["n_events"]),
            "activity": float(payloads[0]["activity"]),
            "rms_uV": float(wave.rms * 1e6),
            "p2p_uV": float(wave.peak_to_peak * 1e6),
        }

    def partial_statistics(self, payloads: List[Dict[str, Any]]
                           ) -> Dict[str, float]:
        if not payloads:
            return {"n_done": 0.0}
        done = sum(p["stop"] - p["start"] for p in payloads)
        return {"n_done": float(done)}
