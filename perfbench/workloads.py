"""The benchmark's four workloads: request lists, execution and checks.

Each workload turns a workload seed into a fixed list of requests,
executes one request through the library's public API, and reduces
its output to a small JSON summary.  Summaries are checked twice:
against invariants that hold for any seed, and against pinned values
(``pins.json`` for the fixed warm-up requests; a per-seed pin file
written by the first run of a seeded request list).

Calls into the library go through module attributes looked up at call
time (``chain.chain_yield_vs_node``, ``runner.run_sharded``, ...), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.analog import chain
from repro.backends import equivalence_contract
from repro.digital import generators, simulator
from repro.digital.simulator_compiled import CompiledEventEngine
from repro.exec import runner
from repro.exec.result import ExecResult
from repro.exec.workloads import YieldWorkload
from repro.substrate.swan import SwanSimulator
from repro.synthesis import sizing
from repro.technology import all_nodes, get_node

#: Every run makes at least this many timed requests, so the tail
#: latency percentile has ten requests beyond it and sits above p50.
MIN_REQUESTS = 24

#: Seeds of timed requests are drawn from [SEED_FLOOR, 2**31); the
#: warm-up requests use seeds below it, so no timed request repeats a
#: warm-up request's cache key.
SEED_FLOOR = 1000

#: Relative tolerance for floats of the chain sign-off and the SWAN
#: waveform.  Neither engine registers an equivalence contract; their
#: batched/streamed paths are documented to agree "to float64
#: round-off", which this bounds with a wide margin.
ROUND_OFF_RTOL = 1e-9

Summary = Dict[str, Any]
Request = Dict[str, Any]


def distinct_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct request seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    seeds: List[int] = []
    seen = set()
    while len(seeds) < count:
        value = int(rng.integers(SEED_FLOOR, 2 ** 31))
        if value not in seen:
            seen.add(value)
            seeds.append(value)
    return seeds


class Workload:
    """One closed-loop workload: a request generator plus checks."""

    name = "abstract"
    #: What one work unit is (``units_per_s`` counts these).
    unit = "unit"
    #: Nominal wall time of one request on the reference machine; it
    #: only sizes the request list (``seconds / seconds_per_request``),
    #: so a run's simulated work never depends on measured time.
    seconds_per_request = 1.0
    #: Kind of host-speed probe whose slow-downs track this workload's
    #: requests best on the reference host (see ``run.HostProbe``).
    probe = "interpreter"
    #: Request times are divided by the probe's slowness to this power.
    probe_sensitivity = 1.0
    #: Seeds of the fixed warm-up requests that each cold set-up runs.
    warmup_seeds: Sequence[int] = (0, 1)
    #: Per summary field relative tolerance; fields not listed must
    #: match exactly.
    float_rtol: Dict[str, float] = {}

    def request_count(self, seconds: float) -> int:
        return max(MIN_REQUESTS,
                   math.ceil(seconds / self.seconds_per_request))

    def request(self, index: int, seed: int) -> Request:
        return {"seed": seed}

    def requests(self, seed: int, count: int) -> List[Request]:
        return [self.request(index, value) for index, value
                in enumerate(distinct_seeds(seed, count))]

    def warmup_requests(self) -> List[Request]:
        return [self.request(index, value) for index, value
                in enumerate(self.warmup_seeds)]

    def execute(self, request: Request) -> Any:
        raise NotImplementedError

    def summarize(self, output: Any) -> Summary:
        raise NotImplementedError

    def units(self, summary: Summary) -> int:
        raise NotImplementedError

    def invariant_problems(self, summary: Summary) -> List[str]:
        """Checks that hold for any seed (empty list when all hold)."""
        return []

    def mismatches(self, summary: Summary, pinned: Summary) -> List[str]:
        """Fields of ``summary`` that differ from the pinned summary."""
        problems = []
        for key in sorted(set(summary) | set(pinned)):
            if key not in summary or key not in pinned:
                problems.append(f"{key}: missing")
                continue
            got, want = summary[key], pinned[key]
            rtol = self.float_rtol.get(key, 0.0)
            if isinstance(want, float) and rtol > 0.0:
                same = math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)
            else:
                same = got == want
            if not same:
                problems.append(f"{key}: got {got!r}, pinned {want!r}")
        return problems


def _finite_problems(summary: Summary, keys: Sequence[str]) -> List[str]:
    return [f"{key} is not finite: {summary[key]!r}" for key in keys
            if not math.isfinite(summary[key])]


class ChainSignoff(Workload):
    """``chain-yield`` CLI default path, one node per request."""

    name = "chain-signoff"
    unit = "die"
    seconds_per_request = 0.43
    # (512, 1024)-sample arrays through the ADC model and the FFT.
    probe = "memory"
    n_dies = 512
    float_rtol = {"enob_mean": ROUND_OFF_RTOL, "enob_min": ROUND_OFF_RTOL}

    def __init__(self) -> None:
        self.nodes = [node.name for node in all_nodes()]

    def request(self, index: int, seed: int) -> Request:
        return {"seed": seed, "node": self.nodes[index % len(self.nodes)]}

    def warmup_requests(self) -> List[Request]:
        # Both ends of the roadmap: all dies pass at the first node and
        # a large share fail at the last.
        return [{"seed": 0, "node": self.nodes[0]},
                {"seed": 1, "node": self.nodes[-1]}]

    def execute(self, request: Request) -> Any:
        return chain.chain_yield_vs_node(
            nodes=[get_node(request["node"])], n_dies=self.n_dies,
            seed=request["seed"])

    def summarize(self, output: Any) -> Summary:
        (row,) = output
        return {"node": row["node"],
                "n_pass": int(round(row["yield_fraction"] * self.n_dies)),
                "yield_fraction": row["yield_fraction"],
                "enob_mean": row["enob_mean"],
                "enob_min": row["enob_min"]}

    def units(self, summary: Summary) -> int:
        return self.n_dies

    def invariant_problems(self, summary: Summary) -> List[str]:
        problems = _finite_problems(summary, ("enob_mean", "enob_min"))
        if not 0 <= summary["n_pass"] <= self.n_dies:
            problems.append(f"n_pass {summary['n_pass']} out of range")
        if summary["n_pass"] / self.n_dies != summary["yield_fraction"]:
            problems.append("yield_fraction is not n_pass / n_dies")
        if summary["enob_min"] > summary["enob_mean"]:
            problems.append("enob_min exceeds enob_mean")
        return problems


class ShardedYield(Workload):
    """``yield`` CLI path: one node, eight serial shards."""

    name = "sharded-yield"
    unit = "die"
    seconds_per_request = 0.2
    # The probe over-corrects these requests: log request time against
    # log probe slowness fitted a slope of 0.48, and with the full
    # correction run medians split into two clusters ~25 % apart.
    probe_sensitivity = 0.6
    n_dies = 400_000
    n_shards = 8
    node = "65nm"

    def execute(self, request: Request) -> Any:
        workload = YieldWorkload(self.node, "vth-shift", 0.03,
                                 n_dies=self.n_dies, seed=request["seed"])
        return runner.run_sharded(workload, n_shards=self.n_shards,
                                  backend="serial", env_chaos=False)

    def summarize(self, output: Any) -> Summary:
        if not isinstance(output, ExecResult):
            return {"result": type(output).__name__}
        value = output.value
        return {"n_pass": value.n_pass,
                "n_samples": value.n_samples,
                "yield_fraction": value.yield_fraction,
                "attempts": sum(o.attempts for o in output.outcomes)}

    def units(self, summary: Summary) -> int:
        return summary["n_samples"]

    def invariant_problems(self, summary: Summary) -> List[str]:
        if "result" in summary:
            return [f"run_sharded returned {summary['result']}"]
        problems = []
        if summary["n_samples"] != self.n_dies:
            problems.append(f"n_samples {summary['n_samples']}")
        if not 0 <= summary["n_pass"] <= summary["n_samples"]:
            problems.append(f"n_pass {summary['n_pass']} out of range")
        if summary["attempts"] != self.n_shards:
            problems.append(f"{summary['attempts']} shard attempts for "
                            f"{self.n_shards} shards")
        return problems


class SocNoise(Workload):
    """``soc-noise`` CLI default flow with a new seed per request."""

    name = "soc-noise"
    unit = "event"
    seconds_per_request = 1.2
    warmup_seeds = (0,)
    node = "65nm"
    gates = 20_000
    blocks = 8
    cycles = 10
    frequency = 50e6
    event_budget = 10_000_000
    chunk_events = 100_000
    float_rtol = {"rms_uV": ROUND_OFF_RTOL, "p2p_uV": ROUND_OFF_RTOL}

    def execute(self, request: Request) -> Any:
        seed = request["seed"]
        netlist = generators.soc_netlist(
            get_node(self.node), target_gates=self.gates,
            n_blocks=self.blocks, seed=seed)
        engine = CompiledEventEngine(
            netlist, clock_period=1.0 / self.frequency,
            event_budget=self.event_budget)
        stimulus = simulator.random_stimulus(
            netlist, self.cycles, seed=seed,
            held_high=["en"] + [f"blk{b}_en" for b in range(self.blocks)])
        trace = engine.run(stimulus, self.cycles)
        swan = SwanSimulator(netlist, clock_frequency=self.frequency,
                             seed=seed)
        wave = swan.stream_noise(trace, chunk_events=self.chunk_events)
        return len(netlist.instances), trace.n_events, wave

    def summarize(self, output: Any) -> Summary:
        gates, n_events, wave = output
        return {"gates": gates, "n_events": n_events,
                "rms_uV": wave.rms * 1e6,
                "p2p_uV": wave.peak_to_peak * 1e6}

    def units(self, summary: Summary) -> int:
        return summary["n_events"]

    def invariant_problems(self, summary: Summary) -> List[str]:
        problems = _finite_problems(summary, ("rms_uV", "p2p_uV"))
        if summary["n_events"] <= 0:
            problems.append("no switching events")
        if not (summary["rms_uV"] > 0.0 and summary["p2p_uV"] > 0.0):
            problems.append("silent sensor waveform")
        return problems


class OtaSynthesis(Workload):
    """OTA sizing in the ``BENCH_9.json`` configuration."""

    name = "ota-synthesis"
    unit = "evaluation"
    seconds_per_request = 0.22
    load_capacitance = 2e-12
    maxiter = 60
    popsize = 30

    def __init__(self) -> None:
        self.float_rtol = {
            "cost": equivalence_contract("synthesis.ota").rtol}

    def execute(self, request: Request) -> Any:
        synthesizer = sizing.ota_synthesizer(
            get_node("65nm"), self.load_capacitance,
            sizing.default_ota_spec())
        return synthesizer.run(seed=request["seed"], maxiter=self.maxiter,
                               popsize=self.popsize, backend="vectorized")

    def summarize(self, output: Any) -> Summary:
        return {"n_evaluations": output.n_evaluations,
                "generations": output.report.n_iterations,
                "feasible": bool(output.feasible),
                "cost": output.cost}

    def units(self, summary: Summary) -> int:
        return summary["n_evaluations"]

    def invariant_problems(self, summary: Summary) -> List[str]:
        problems = _finite_problems(summary, ("cost",))
        if summary["n_evaluations"] <= 0:
            problems.append("no candidate evaluations")
        if not 0 < summary["generations"] <= self.maxiter:
            problems.append(f"{summary['generations']} generations")
        return problems


WORKLOADS = {workload.name: workload for workload in
             (ChainSignoff, ShardedYield, SocNoise, OtaSynthesis)}
