"""The fault-tolerant sharded runner.

:func:`run_sharded` executes a :class:`~repro.exec.workloads.
ShardWorkload` shard by shard with per-attempt timeouts, bounded
exponential back-off retries, optional checkpoint/resume, and
deterministic chaos injection.  The hard guarantee it preserves -- by
construction, and pinned by the test suite -- is:

    Under a fixed seed, the merged result is bit-for-bit the
    single-process result, for any shard count, worker failure
    order, or retry history.

Three properties make that true:

* every attempt of a shard replays the *same* stream (the workload
  rebuilds its sampler from the fixed seed; the shard-aware model
  entry points slice a deterministic population), so a retry cannot
  produce different numbers;
* payloads merge in shard-index order, never in completion order;
* corrupted payloads are rejected *before* they can merge
  (``validate_payload`` -> :class:`~repro.robust.errors.
  PoisonedResultError` -> retry), so a poisoned worker degrades into
  an ordinary retriable failure.

Backends: ``"serial"`` runs shards in-process (failures simulated,
no sleeps -- the test/CI default); ``"process"`` runs each attempt
in its own worker process, where a crash is a real dead process and
a hang is really terminated at the timeout.

When a shard exhausts its retry budget the runner degrades
gracefully: the completed shards' statistics come back as a typed
:class:`~repro.exec.result.PartialResult` with binomial yield bounds
honest about the reduced population -- unless ``strict=True``, which
turns any degradation into :class:`~repro.robust.errors.
ExecBudgetError`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Union

from ..robust.errors import (ExecBudgetError, ExecError,
                             ModelDomainError, PoisonedResultError,
                             ShardTimeoutError, WorkerCrashError)
from .chaos import ChaosPlan, chaos_from_env, poison_payload
from .checkpoint import ShardCheckpoint, run_key
from .policy import RetryPolicy
from .result import (ConfidenceBounds, ExecResult, PartialResult,
                     ShardOutcome, clopper_pearson_interval,
                     wilson_interval)
from .shards import Shard, plan_shards
from .workloads import ShardWorkload

__all__ = ["run_sharded"]

#: How long an injected hang sleeps in a worker process before the
#: parent's timeout kills it.
_HANG_SLEEP_S = 3600.0

#: Exit code of an injected worker crash (distinguishable from a
#: Python traceback exit in test assertions).
_CRASH_EXIT_CODE = 23


def _run_serial(workload: ShardWorkload, shard: Shard,
                fault: Optional[str],
                timeout_s: Optional[float]) -> Any:
    """In-process attempt; injected faults are simulated, not slept."""
    if fault == "crash":
        raise WorkerCrashError(
            f"shard {shard.index} [{shard.start}:{shard.stop}]: "
            f"injected worker crash")
    if fault == "hang":
        raise ShardTimeoutError(
            f"shard {shard.index} [{shard.start}:{shard.stop}]: "
            f"injected hang exceeded timeout "
            f"{timeout_s if timeout_s is not None else 'inf'} s")
    payload = workload.run_shard(shard.start, shard.stop)
    if fault == "poison":
        payload = poison_payload(payload)
    return payload


def _worker_main(conn, workload: ShardWorkload, shard: Shard,
                 fault: Optional[str]) -> None:
    """Worker-process entry point (module-level: spawn-picklable)."""
    try:
        if fault == "crash":
            os._exit(_CRASH_EXIT_CODE)
        if fault == "hang":
            time.sleep(_HANG_SLEEP_S)
            os._exit(_CRASH_EXIT_CODE)
        payload = workload.run_shard(shard.start, shard.stop)
        if fault == "poison":
            payload = poison_payload(payload)
        conn.send(("ok", payload))
        conn.close()
    except BaseException as error:   # noqa: BLE001 -- must not hang
        try:
            conn.send(("error", type(error).__name__, str(error)))
            conn.close()
        except Exception:
            pass
        os._exit(1)


def _run_process(workload: ShardWorkload, shard: Shard,
                 fault: Optional[str],
                 timeout_s: Optional[float]) -> Any:
    """One attempt in a fresh worker process.

    A crash is a dead process (non-zero exit), a hang is terminated
    at ``timeout_s``.  With no timeout armed an injected hang is
    remapped to a crash -- a test harness must never dead-lock the
    parent.

    The parent reads the pipe before it joins the worker: a payload
    larger than the pipe buffer blocks the worker in ``send()`` until
    it is read, so joining first would wait on a worker that cannot
    exit.
    """
    if fault == "hang" and timeout_s is None:
        fault = "crash"
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_worker_main,
                          args=(child_conn, workload, shard, fault))
    process.start()
    child_conn.close()
    try:
        # poll() returns on a message or on EOF (the worker exited);
        # only a live worker that sent nothing runs out the timeout.
        if not parent_conn.poll(timeout_s):
            process.terminate()
            process.join(10.0)
            raise ShardTimeoutError(
                f"shard {shard.index} [{shard.start}:{shard.stop}] "
                f"exceeded {timeout_s} s; worker terminated")
        try:
            message = parent_conn.recv()
        except (EOFError, OSError):
            message = None  # pipe closed by a dying worker
        process.join(timeout_s)
        if message is not None:
            if message[0] == "ok":
                return message[1]
            raise WorkerCrashError(
                f"shard {shard.index} worker raised "
                f"{message[1]}: {message[2]}")
        raise WorkerCrashError(
            f"shard {shard.index} [{shard.start}:{shard.stop}] "
            f"worker died with exit code {process.exitcode}")
    finally:
        parent_conn.close()
        if process.is_alive():
            process.terminate()


_BACKENDS = {"serial": _run_serial, "process": _run_process}


def run_sharded(workload: ShardWorkload,
                n_shards: int = 1,
                policy: Optional[RetryPolicy] = None,
                backend: str = "serial",
                checkpoint: Optional[Union[str,
                                           ShardCheckpoint]] = None,
                resume: bool = False,
                chaos: Optional[ChaosPlan] = None,
                env_chaos: bool = True,
                strict: bool = False
                ) -> Union[ExecResult, PartialResult]:
    """Execute ``workload`` over ``n_shards`` fault-tolerant shards.

    ``chaos=None`` with ``env_chaos=True`` arms the suite-wide
    recoverable chaos plan when ``REPRO_CHAOS_SEED`` is set (the CI
    chaos job); pass ``env_chaos=False`` to pin attempt counts in
    tests.  ``checkpoint`` (a path or a :class:`ShardCheckpoint`)
    records each validated shard payload; with ``resume=True``
    previously checkpointed shards are loaded instead of re-run.

    Returns :class:`ExecResult` when every shard completes, a
    :class:`PartialResult` when some shards exhausted their retries
    (or raises :class:`ExecBudgetError` if ``strict`` or if *no*
    shard completed).
    """
    if not isinstance(workload, ShardWorkload):
        raise ModelDomainError(
            f"workload must be a ShardWorkload, got {workload!r}")
    if backend not in _BACKENDS:
        raise ModelDomainError(
            f"unknown backend {backend!r}; choose from "
            f"{sorted(_BACKENDS)}")
    policy = policy if policy is not None else RetryPolicy()
    if chaos is None and env_chaos:
        chaos = chaos_from_env(policy)
    execute = _BACKENDS[backend]
    store = (ShardCheckpoint(checkpoint)
             if isinstance(checkpoint, str) else checkpoint)
    n_total = workload.n_total()
    shards = plan_shards(n_total, n_shards)
    ckpt_key = run_key(workload.name, list(workload.key()),
                       n_shards) if store is not None else ""

    payloads: Dict[int, Any] = {}
    outcomes: List[ShardOutcome] = []
    for shard in shards:
        payload = None
        source = "worker"
        attempts = 0
        last_error: Optional[ExecError] = None

        if store is not None and resume:
            stored = store.shard_payload(ckpt_key, shard.start,
                                         shard.stop)
            if stored is not None:
                try:
                    workload.validate_payload(stored, shard.start,
                                              shard.stop)
                    payload = stored
                    source = "checkpoint"
                except PoisonedResultError:
                    payload = None  # corrupt checkpoint: re-run

        if payload is None:
            for attempt in range(policy.max_attempts):
                delay = policy.delay_before(attempt)
                if delay > 0.0:
                    time.sleep(delay)
                fault = (chaos.fault_for(shard.index, attempt)
                         if chaos is not None else None)
                attempts += 1
                try:
                    candidate = execute(workload, shard, fault,
                                        policy.timeout_s)
                    workload.validate_payload(candidate, shard.start,
                                              shard.stop)
                    payload = candidate
                    break
                except ExecError as error:
                    last_error = error

        if payload is not None:
            payloads[shard.index] = payload
            if store is not None and source != "checkpoint":
                store.store(ckpt_key, shard.start, shard.stop,
                            payload)
            outcomes.append(ShardOutcome(
                index=shard.index, start=shard.start,
                stop=shard.stop, ok=True, attempts=attempts,
                source=source))
        else:
            outcomes.append(ShardOutcome(
                index=shard.index, start=shard.start,
                stop=shard.stop, ok=False, attempts=attempts,
                source="worker",
                error_type=type(last_error).__name__,
                error_message=str(last_error)))

    outcome_tuple = tuple(outcomes)
    if len(payloads) == len(shards):
        ordered = [payloads[shard.index] for shard in shards]
        return ExecResult(workload=workload.name,
                          value=workload.merge(ordered),
                          outcomes=outcome_tuple, n_total=n_total)

    done_shards = [shard for shard in shards
                   if shard.index in payloads]
    n_done = sum(shard.size for shard in done_shards)
    failed = [o for o in outcome_tuple if not o.ok]
    if not done_shards:
        raise ExecBudgetError(
            f"{workload.name}: no shard completed within the retry "
            f"budget ({policy.max_attempts} attempts/shard); last "
            f"failures: "
            + "; ".join(f"#{o.index} {o.error_type}" for o in failed))
    ordered_done = [payloads[shard.index] for shard in done_shards]
    bounds: Optional[Dict[str, ConfidenceBounds]] = None
    counts = [workload.pass_counts(p) for p in ordered_done]
    if all(c is not None for c in counts):
        n_pass = sum(c[0] for c in counts)
        n = sum(c[1] for c in counts)
        if n:
            bounds = {
                "wilson": wilson_interval(n_pass, n),
                "clopper_pearson": clopper_pearson_interval(
                    n_pass, n),
            }
    partial = PartialResult(
        workload=workload.name, n_total=n_total, n_done=n_done,
        outcomes=outcome_tuple,
        statistics=workload.partial_statistics(ordered_done),
        yield_bounds=bounds)
    if strict:
        raise ExecBudgetError(partial.summary())
    return partial
