"""Benchmark entry point: one closed-loop client, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain-signoff --seed 1 \\
        --seconds 12 --trace 0

The workload seed fixes the request list; ``--seconds`` sizes it
through each workload's nominal request time, so a run does the same
simulated work however fast the machine is.  A single client keeps one
request in flight and checks every output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the
median of several cold set-ups (``repro.perf.clear_caches()`` and the
workload's fixed warm-up requests), the rest come from the timed
request list.  ``--trace 1`` traces every other request (see
``tracing.py``) and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-pins`` regenerates ``perfbench/pins.json``, the pinned
outputs of every workload's warm-up requests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
#: Run records (span dumps, per-seed pins); ignored by git.
OUT_DIR = ROOT / ".perfbench"

#: Native thread pools pinned to one thread before numpy is imported:
#: the benchmark measures one client, and a pool sized to the host's
#: cores makes timings depend on whatever else runs there.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

#: Cold set-ups per run; ``setup_s`` is their median.  One untimed pass
#: over the warm-up requests runs first, so one-off lazy imports inside
#: the library land in none of them.
SETUP_REPEATS = 3

#: Median probe times on the reference host at its usual speed [s], by
#: probe kind (see :class:`HostProbe`).  Measured / reference probe
#: time is the host's slowness; reported times are seconds of that host.
PROBE_REFERENCE_S = {"interpreter": 0.008, "memory": 0.010}

#: Requests whose failures are printed in full (the rest are counted).
MAX_REPORTED_FAILURES = 5


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class HostProbe:
    """A fixed kernel, free of library code, whose time tracks host speed.

    Other tenants of the reference host slow it by up to 1.7x for tens
    of seconds at a time, and different kinds of work slow by different
    amounts.  Two kernels cover the kinds the workloads are made of:
    ``"interpreter"`` (dict/str work and numpy calls on 256-element
    arrays) and ``"memory"`` (streaming and gathering over a 16 MB
    array).
    """

    def __init__(self, kind: str) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._kernel = {"interpreter": self._interpreter,
                        "memory": self._memory}[kind]
        self._small = [rng.standard_normal(256) for _ in range(8)]
        if kind == "memory":
            self._big = rng.standard_normal(2_000_000)
            self._index = rng.integers(0, self._big.size, 200_000)

    def _interpreter(self) -> None:
        np = self._np
        table = {}
        for i in range(15_000):
            table[i % 997] = (i, str(i))
        for k in range(150):
            a = self._small[k % 8]
            b = np.where(a > 0, a * 2.0, -a)
            np.sqrt(np.abs(b)).sum()
            np.exp(-a * a)

    def _memory(self) -> None:
        np = self._np
        np.multiply(self._big, 1.0, out=self._big)
        self._big.sum()
        self._big[self._index].sum()

    def __call__(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start


class Client:
    """The closed-loop client: runs requests and tallies failures.

    Request times are normalised to the reference host's speed with
    the probe run just before and just after each request.
    """

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.probe = HostProbe(workload.probe)
        self.reference_s = PROBE_REFERENCE_S[workload.probe]
        #: Host slowness around each request (1 = reference speed).
        self.slowness: List[float] = []

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {self.workload.name} {label}: {detail}",
                  file=sys.stderr)

    def call(self, request: Dict[str, Any], tracer: Any = None,
             request_id: int = 0
             ) -> Tuple[float, Optional[Dict[str, Any]]]:
        """One request: (normalised seconds, checked summary or None)."""
        self.attempted += 1
        gc.collect()
        before = self.probe()
        raised = False
        start = time.perf_counter()
        try:
            if tracer is None:
                output = self.workload.execute(request)
            else:
                with tracer.request(request_id):
                    output = self.workload.execute(request)
        except Exception:   # one failed request must not end the run
            self.fail(str(request), traceback.format_exc(limit=4))
            raised = True
        elapsed = time.perf_counter() - start
        slowness = (before + self.probe()) / (2.0 * self.reference_s)
        self.slowness.append(slowness)
        elapsed /= slowness ** self.workload.probe_sensitivity
        if raised:
            return elapsed, None
        try:
            summary = self.workload.summarize(output)
            problems = self.workload.invariant_problems(summary)
        except Exception:
            self.fail(str(request), traceback.format_exc(limit=4))
            return elapsed, None
        if problems:
            self.fail(str(request), "; ".join(problems))
            return elapsed, None
        return elapsed, summary

    def check_pins(self, label: str, requests: List[Dict[str, Any]],
                   summaries: List[Optional[Dict[str, Any]]],
                   pinned: List[Dict[str, Any]]) -> None:
        """Count each summary that differs from its pin as failed."""
        if len(pinned) != len(summaries):
            self.fail(label, f"{len(pinned)} pinned outputs for "
                             f"{len(summaries)} requests")
            return
        for request, summary, pin in zip(requests, summaries, pinned):
            if summary is None:
                continue   # already counted as failed
            mismatches = self.workload.mismatches(summary, pin)
            if mismatches:
                self.fail(f"{label} {request}", "; ".join(mismatches))


def cold_setups(client: Client, repeats: int) -> List[float]:
    """Time ``repeats`` cold set-ups, checking warm-up outputs."""
    from repro.perf import clear_caches
    requests = client.workload.warmup_requests()
    pinned = load_json(PINS).get(client.workload.name, [])
    for request in requests:   # lazy imports, untimed
        try:
            client.workload.execute(request)
        except Exception:
            pass   # the timed set-ups below run it again and count it
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        clear_caches()
        elapsed = time.perf_counter() - start
        summaries = []
        for request in requests:
            seconds, summary = client.call(request)
            elapsed += seconds
            summaries.append(summary)
        times.append(elapsed)
        client.check_pins("warm-up", requests, summaries, pinned)
    return times


def check_seed_pins(client: Client, seed: int,
                    requests: List[Dict[str, Any]],
                    summaries: List[Optional[Dict[str, Any]]]) -> None:
    """Pin a seeded request list on its first run; compare later."""
    path = (OUT_DIR / "pins"
            / f"{client.workload.name}-seed{seed}-n{len(requests)}.json")
    if path.is_file():
        client.check_pins("pinned", requests, summaries,
                          load_json(path))
    elif all(summary is not None for summary in summaries):
        write_json(path, summaries)


def tail_latency(latencies: List[float]) -> Tuple[float, float]:
    """(latency, percentile) of the highest percentile with ten
    requests beyond it."""
    ordered = sorted(latencies)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_json(path: Path) -> Any:
    if not path.is_file():
        return {}
    with path.open() as handle:
        return json.load(handle)


def write_json(path: Path, data: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".tmp")
    with partial.open("w") as handle:
        json.dump(data, handle, indent=1)
    os.replace(partial, path)


def fingerprint() -> str:
    import numpy
    import scipy
    pins = ",".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return (f"nproc={os.cpu_count()} machine={platform.machine()} "
            f"cpu={platform.processor() or 'unknown'} "
            f"python={platform.python_version()} numpy={numpy.__version__}"
            f" scipy={scipy.__version__} {pins}")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_untraced(client: Client, seed: int,
                 requests: List[Dict[str, Any]]) -> Dict[str, Any]:
    workload = client.workload
    setups = cold_setups(client, SETUP_REPEATS)
    results = [client.call(request) for request in requests]
    summaries = [summary for _, summary in results]
    check_seed_pins(client, seed, requests, summaries)
    latencies = [seconds for seconds, _ in results]
    units = sum(workload.units(s) for s in summaries if s is not None)
    tail, percentile = tail_latency(latencies)
    metrics = {
        "units_per_s": metric(units / sum(latencies), "units/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"{workload.name}: {len(requests)} requests, unit = "
          f"{workload.unit}, closed loop, 1 client")
    notes = {
        "units_per_s": f"{workload.unit}s per second of request time",
        "latency_tail_ms": f"p{percentile:.1f} of {len(latencies)} "
                           f"requests (10 beyond it)",
        "setup_s": f"median of {len(setups)} cold set-ups: "
                   + ", ".join(f"{t:.3f}" for t in setups),
    }
    for name, entry in metrics.items():
        print(f"  {name:<16} {entry['value']:>14.4f} {entry['unit']:<8}"
              f" {notes.get(name, '')}")
    print(f"  times in reference-host seconds; host slowness around "
          f"requests ({workload.probe} probe): median "
          f"{statistics.median(client.slowness):.3f}, range "
          f"{min(client.slowness):.3f}-{max(client.slowness):.3f}")
    return metrics


def run_traced(client: Client, seed: int,
               requests: List[Dict[str, Any]]) -> Dict[str, Any]:
    from perfbench.tracing import PER_LAYER, ROOT_SPAN, Tracer
    workload = client.workload
    cold_setups(client, 1)
    tracer = Tracer()
    seconds = [0.0, 0.0]
    units = [0, 0]
    summaries = []
    # Odd requests are traced, even ones not: both halves see the same
    # mix of requests, so their throughput ratio is the overhead.
    for index, request in enumerate(requests):
        traced = index % 2
        elapsed, summary = client.call(
            request, tracer if traced else None, index)
        summaries.append(summary)
        seconds[traced] += elapsed
        if summary is not None:
            units[traced] += workload.units(summary)
    check_seed_pins(client, seed, requests, summaries)
    for problem in tracer.profile_problems():
        client.fail("trace", problem)
    overhead = 1.0 - (units[1] / seconds[1]) / (units[0] / seconds[0])
    values = tracer.layer_metrics(overhead)
    write_json(OUT_DIR / f"trace-{workload.name}-seed{seed}.json",
               {"workload": workload.name, "seed": seed,
                "requests": requests, "metrics": values,
                **tracer.dump()})

    total, own, calls = tracer.span_totals()
    wall = total[ROOT_SPAN]
    print(f"{workload.name}: {tracer.n_requests} traced of "
          f"{len(requests)} requests; attribution of request wall time "
          f"{wall:.3f} s (self time per span):")
    for name in sorted(own, key=own.get, reverse=True):
        label = "(client, untraced gap)" if name == ROOT_SPAN else ""
        print(f"  {name:<38} {calls[name]:>6} calls {own[name]:>10.4f} s"
              f" {100.0 * own[name] / wall:>6.2f} % {label}")
    units_of = dict(PER_LAYER)
    for name, value in values.items():
        print(f"  {name:<38} {value:>14.6g} {units_of[name]}")
    return {name: metric(value, units_of[name])
            for name, value in values.items()}


def write_pins(workloads: Any) -> int:
    pins = {}
    for cls in workloads.WORKLOADS.values():
        client = Client(cls())
        requests = client.workload.warmup_requests()
        summaries = [client.call(request)[1] for request in requests]
        if client.failed:
            return 1
        pins[client.workload.name] = summaries
    write_json(PINS, pins)
    print(f"wrote {PINS.relative_to(ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # numpy/scipy and the library load here, before anything is timed.
    from perfbench import workloads
    if args.write_pins:
        return write_pins(workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    client = Client(workloads.WORKLOADS[args.workload]())
    requests = client.workload.requests(
        args.seed, client.workload.request_count(args.seconds))
    print(fingerprint())
    run = run_traced if args.trace else run_untraced
    metrics = run(client, args.seed, requests)
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
