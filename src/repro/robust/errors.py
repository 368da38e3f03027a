"""Typed exception hierarchy for the model boundary.

Every failure the library can diagnose is reported through a subclass
of :class:`ReproError`, so callers (the CLI, sweep drivers, the
fault-injection harness) can distinguish "the model was asked
something outside its validity domain" from genuine bugs.  Each typed
error also inherits the ad-hoc builtin it replaces (``ValueError``,
``RuntimeError``, ``KeyError``), so pre-existing ``except`` clauses
and tests keep working unchanged.

The paper's closed-form models are evaluated at the edge of their
validity -- sub-100 mV overdrives, exponential leakage, sigma-driven
yield tails -- exactly where a silently propagated NaN produces a
confidently wrong "end of the road" number.  The contract enforced
across the package (and checked by :mod:`repro.robust.faults`) is:
every public model API either returns finite values or raises a
:class:`ReproError` subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every typed error raised by the repro models."""


class ModelDomainError(ReproError, ValueError):
    """An input lies outside the model's physical validity domain.

    Raised for NaN/inf parameters, non-positive geometry, voltages or
    temperatures outside the calibrated range, and for model outputs
    that come back non-finite.  Inherits ``ValueError`` for backward
    compatibility with the ad-hoc raises it replaced.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge and cannot continue.

    Most iterative loops in the package prefer to *return* a partial
    result carrying a :class:`repro.robust.guards.ConvergenceReport`;
    this error is reserved for callers that opt into strict behaviour
    (``IterationGuard(raise_on_exhaust=True)``).
    """


class RoadmapDataError(ReproError, KeyError):
    """A lookup into the technology roadmap / node library failed.

    Inherits ``KeyError`` so existing ``except KeyError`` handlers and
    tests keep working, but stringifies as a plain message (no quoted
    repr) so CLI error lines stay readable.
    """

    def __str__(self) -> str:
        if self.args and isinstance(self.args[0], str):
            return self.args[0]
        return super().__str__()


class SimulationBudgetError(ReproError, RuntimeError):
    """A simulation exceeded its event/iteration/search budget.

    Raised by the event-driven logic simulator on event-budget
    exhaustion or per-net oscillation, and available to any long loop
    through :class:`repro.robust.guards.SimulationBudget`.
    """


class CalibrationError(ReproError, RuntimeError):
    """An operation requires calibration data that is not present."""


class ExecError(ReproError, RuntimeError):
    """Base class of the fault-tolerant execution layer's failures.

    Everything the sharded Monte Carlo runtime (:mod:`repro.exec`) can
    diagnose about a *worker* -- crashes, hangs, poisoned results --
    is reported through a subclass, so retry logic can distinguish
    recoverable shard failures from model-domain errors that would
    fail identically on every attempt.
    """


class WorkerCrashError(ExecError):
    """A shard worker process died before delivering its result.

    Covers nonzero exit codes, killed processes, and in-process
    workers that raised an untyped exception.
    """


class ShardTimeoutError(ExecError):
    """A shard attempt exceeded its :class:`RetryPolicy` timeout.

    The worker (if any) has been terminated; the shard replays the
    same deterministic child stream on retry.
    """


class PoisonedResultError(ExecError):
    """A shard delivered a result that fails payload validation.

    Non-finite statistics, wrong array lengths, or counts outside the
    shard's die range -- the symptoms of a corrupted worker.  The
    payload is discarded and the shard retried.
    """


class ExecBudgetError(ExecError):
    """The retry budget of a sharded run is exhausted.

    Raised by :func:`repro.exec.run_sharded` in strict mode (and
    always when *no* shard completed); in degraded mode the run
    returns a typed :class:`repro.exec.PartialResult` instead.
    """


class ModelIndexError(ReproError, IndexError):
    """An index or position lies outside a model grid or sample set.

    Raised for mesh-node lookups outside the substrate grid and for
    Monte Carlo sample indices beyond the batch.  Inherits
    ``IndexError`` so pre-existing handlers keep working.
    """


# --- warning taxonomy -----------------------------------------------------

class ReproWarning(UserWarning):
    """Base class of the package's diagnostic warnings.

    The CLI's ``--strict`` flag promotes these to errors.
    """


class ModelDomainWarning(ReproWarning):
    """Input is inside the hard domain but outside the calibrated range.

    The model still evaluates, but the result is an extrapolation the
    paper's data does not back.
    """


class ConvergenceWarning(ReproWarning):
    """An iterative solver stopped on its budget without converging.

    Emitted alongside the partial result so long sweeps surface the
    problem without dying mid-run.
    """
