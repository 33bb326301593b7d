"""Exception hierarchy for the dK-series reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all library-specific exceptions."""


class GraphError(ReproError):
    """Raised for invalid graph manipulations (self-loops, missing edges...)."""


class DistributionError(ReproError):
    """Raised for malformed or inconsistent dK-distributions."""


class GenerationError(ReproError):
    """Raised when a graph generator cannot complete a construction."""


class ExperimentError(ReproError):
    """Raised for invalid experiment specifications or unresolvable inputs."""


class StoreError(ReproError):
    """Raised for corrupt or inconsistent artifact-store contents."""


class ExperimentInterrupted(ExperimentError):
    """Raised when an experiment grid stops before completing every cell.

    Carries the work that *did* finish: ``result`` is a partial
    :class:`~repro.experiment.ExperimentResult` holding the records of every
    completed cell, and ``reason`` is ``"cancelled"`` (a cooperative cancel
    event was set) or ``"interrupt"`` (KeyboardInterrupt).  When the run used
    an artifact store, every completed cell already wrote its manifest, so
    re-running the same spec with ``resume=True`` picks up where it left off.
    """

    def __init__(self, message: str, *, result=None, reason: str = "cancelled"):
        super().__init__(message)
        self.result = result
        self.reason = reason


class ServiceError(ReproError):
    """Raised for topology-service failures (bad requests, saturated pool...)."""


class RewiringConvergenceWarning(RuntimeWarning):
    """Emitted when a rewiring Markov chain exhausts its attempt budget.

    The returned graph is still a valid dK-graph (every accepted move
    preserved the invariants), but a randomizing chain ran fewer attempts
    than its expected mixing target needs — it may be insufficiently
    randomized — or a targeting chain stopped short of its target
    distribution.
    """


__all__ = [
    "ReproError",
    "GraphError",
    "DistributionError",
    "GenerationError",
    "ExperimentError",
    "ExperimentInterrupted",
    "StoreError",
    "ServiceError",
    "RewiringConvergenceWarning",
]
