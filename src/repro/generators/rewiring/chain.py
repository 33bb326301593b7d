"""Shared outcome reporting for the rewiring chain drivers.

The drivers of the rewiring engine's chains (:mod:`repro.kernels.rewiring`)
— randomizing, targeting — report their outcome through the two helpers
here, so the stats dictionaries are identical across chains and a chain
that exhausts its attempt budget is surfaced the same way everywhere: a
:class:`~repro.exceptions.RewiringConvergenceWarning` from the driver
itself, instead of a silently dropped caller-opt-in stats dict.
"""

from __future__ import annotations

import warnings

from repro.exceptions import RewiringConvergenceWarning
from repro.telemetry.metrics import counter_inc


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


def warn_not_converged(label: str, detail: str, *, stacklevel: int = 3) -> None:
    """Emit the driver-level non-convergence warning."""
    warnings.warn(
        f"{label} rewiring chain stopped before convergence ({detail}); "
        "consider raising the attempt budget (max_attempt_factor / max_attempts)",
        RewiringConvergenceWarning,
        stacklevel=stacklevel,
    )


__all__ = [
    "record_chain_stats",
    "warn_not_converged",
]
