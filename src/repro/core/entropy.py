"""Maximum-entropy predictions of Table 1 of the paper.

dK-random graphs are the *maximally random* graphs having property ``P_d``:
their ``(d+1)K``-distributions take specific maximum-entropy forms.

* 0K-random graphs (Erdős–Rényi) have a binomial ≈ Poisson degree
  distribution ``P_0K(k) = e^{-k̄} k̄^k / k!``.
* 1K-random graphs have the uncorrelated joint degree distribution
  ``P_1K(k1,k2) = k1 P(k1) k2 P(k2) / k̄²``.

The Table 1 bench compares generated graphs against these closed forms,
and the test suite uses them to check that dK-random graphs are maximally
random with respect to the next level of the series.  The stochastic
edge-existence probabilities ``p_dK`` live inline in the streaming
constructions of :mod:`repro.generators.streaming`.
"""

from __future__ import annotations

import math

from repro.core.distributions import AverageDegree, DegreeDistribution


def poisson_degree_pmf(average_degree: float, max_degree: int) -> dict[int, float]:
    """``P_0K(k) = e^{-k̄} k̄^k / k!`` for ``k = 0 .. max_degree``."""
    if average_degree < 0:
        raise ValueError("average_degree must be non-negative")
    pmf = {}
    for k in range(max_degree + 1):
        pmf[k] = math.exp(-average_degree) * average_degree**k / math.factorial(k)
    return pmf


def maximum_entropy_degree_distribution(zero_k: AverageDegree, max_degree: int | None = None) -> dict[int, float]:
    """Expected degree distribution of 0K-random graphs built from ``zero_k``."""
    kbar = zero_k.average_degree
    if max_degree is None:
        max_degree = max(10, int(3 * kbar + 10))
    return poisson_degree_pmf(kbar, max_degree)


def maximum_entropy_jdd(one_k: DegreeDistribution) -> dict[tuple[int, int], float]:
    """Expected (normalized) JDD of 1K-random graphs.

    Returns ``P_1K(k1,k2) = k1 P(k1) k2 P(k2) / k̄²`` on canonical keys
    ``k1 <= k2``.  With the paper's µ convention this equals the probability
    that a randomly chosen *ordered* edge end pair carries degrees
    ``(k1, k2)``, so it is directly comparable to
    :meth:`JointDegreeDistribution.pmf` values.
    """
    kbar = one_k.average_degree()
    if kbar == 0:
        return {}
    pmf = one_k.pmf()
    result: dict[tuple[int, int], float] = {}
    degrees = sorted(pmf)
    for i, k1 in enumerate(degrees):
        for k2 in degrees[i:]:
            value = k1 * pmf[k1] * k2 * pmf[k2] / (kbar * kbar)
            if value > 0:
                result[(k1, k2)] = value
    return result


__all__ = [
    "poisson_degree_pmf",
    "maximum_entropy_degree_distribution",
    "maximum_entropy_jdd",
]
