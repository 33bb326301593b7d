"""Shared bookkeeping for the rewiring chain drivers.

Every chain of the rewiring engine (:mod:`repro.kernels.rewiring`) reports
its outcome through the helpers here, so the stats dictionaries are
identical across chains and a chain that exhausts its attempt budget is
surfaced the same way everywhere: a
:class:`~repro.exceptions.RewiringConvergenceWarning` from the chain
itself, instead of a silently dropped caller-opt-in stats dict.
"""

from __future__ import annotations

import warnings

from repro.exceptions import RewiringConvergenceWarning
from repro.telemetry.metrics import counter_inc, gauge_set

#: Proposals drawn per vectorized batch.  A pure performance knob: the
#: engine consumes each random stream per-proposal, so the chain's output is
#: identical for every batch size.
DEFAULT_BATCH_SIZE = 4096

#: Default batch for the chains scored on wedge/triangle deltas (3K
#: randomizing, 3K targeting, S2 and C̄ exploration).  Their deltas are
#: precomputed for the whole batch against a state snapshot, and every
#: accepted move invalidates the precomputation for later proposals touching
#: the same nodes (those fall back to an exact per-move recompute) — so the
#: sweet spot is much smaller than for the other chains.  Still a pure
#: performance knob: the output is identical for every batch size.
THREEK_BATCH_SIZE = 768


def record_chain_stats(
    stats: dict | None,
    *,
    label: str,
    target: int,
    accepted: int,
    attempted: int,
    converged: bool,
    warn: bool = True,
    stacklevel: int = 3,
) -> None:
    """Fill the caller-supplied ``stats`` dict and warn on non-convergence.

    ``target`` is the expected number of accepted moves; ``converged`` is
    false when the attempt budget cut the chain short of the attempts that
    target needs.  The warning fires regardless of whether a ``stats`` dict
    was supplied — the chain, not the caller, owns convergence reporting.
    """
    counter_inc("repro_rewiring_accepted_moves_total", accepted, chain=label)
    counter_inc("repro_rewiring_attempted_moves_total", attempted, chain=label)
    if stats is not None:
        stats["target_moves"] = target
        stats["accepted_moves"] = accepted
        stats["attempted_moves"] = attempted
        stats["converged"] = converged
    if warn and not converged:
        warn_not_converged(
            label,
            f"attempt budget of {attempted} reached with {accepted} of "
            f"{target} expected moves accepted",
            stacklevel=stacklevel + 1,
        )


def record_batch_efficiency(label: str, accepted: int, attempted: int) -> None:
    """Publish the acceptance ratio of one proposal batch.

    The vectorized engine calls this once per batch so operators can watch
    ``repro_rewiring_batch_efficiency`` (accepted/attempted, labelled by
    chain) on ``/v1/metrics`` — a chain whose ratio collapses is wasting its
    precomputed batch work and wants a smaller ``batch_size``.
    """
    if attempted > 0:
        gauge_set(
            "repro_rewiring_batch_efficiency", accepted / attempted, chain=label
        )


def warn_not_converged(label: str, detail: str, *, stacklevel: int = 3) -> None:
    """Emit the driver-level non-convergence warning."""
    warnings.warn(
        f"{label} rewiring chain stopped before convergence ({detail}); "
        "consider raising the attempt budget (max_attempt_factor / max_attempts)",
        RewiringConvergenceWarning,
        stacklevel=stacklevel,
    )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "THREEK_BATCH_SIZE",
    "record_batch_efficiency",
    "record_chain_stats",
    "warn_not_converged",
]
