"""Degree-based metrics: average and maximum degree, power-law exponent."""

from __future__ import annotations

import math

from repro.graph.simple_graph import SimpleGraph


def average_degree(graph: SimpleGraph) -> float:
    """Average node degree ``k̄``."""
    return graph.average_degree()


def max_degree(graph: SimpleGraph) -> int:
    """Largest node degree."""
    return graph.max_degree()


def power_law_exponent_mle(graph: SimpleGraph, k_min: int = 1) -> float:
    """Continuous maximum-likelihood estimate of a power-law exponent.

    Uses the Clauset–Shalizi–Newman estimator
    ``γ = 1 + n / Σ ln(k_i / (k_min - 1/2))`` over degrees ``>= k_min``.
    Returns ``nan`` when fewer than two qualifying degrees exist.
    """
    degrees = [k for k in graph.degrees() if k >= k_min]
    if len(degrees) < 2:
        return math.nan
    log_sum = math.fsum(math.log(k / (k_min - 0.5)) for k in degrees)
    return 1.0 + len(degrees) / log_sum


__all__ = [
    "average_degree",
    "max_degree",
    "power_law_exponent_mle",
]
