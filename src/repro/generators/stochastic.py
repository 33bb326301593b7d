"""Stochastic dK-graph constructions (Section 4.1.1 of the paper).

* 0K: classical Erdős–Rényi ``G(n, p)`` with ``p = k̄/n``.
* 1K: hidden-variable / Chung–Lu construction: nodes carry expected degrees
  ``q_i`` drawn from the target degree distribution and pairs connect with
  probability ``p = q_i q_j / (n q̄)``.
* 2K: degree-class block model with
  ``p(q1, q2) = (q̄/n) P(q1,q2) / (P(q1) P(q2))``, which reproduces the
  expected joint degree distribution.

Every construction draws each block of node pairs that share one
connection probability as a binomial edge count placed on distinct uniform
pairs (:func:`repro.generators.streaming._distinct_pairs`).  0K is a single
block; 1K and 2K are the streaming constructions of
:mod:`repro.generators.streaming` materialized as a :class:`SimpleGraph`.

As the paper observes, these constructions only reproduce the *expected*
distributions and suffer from high statistical variance (e.g. expected
degree-1 nodes frequently end up isolated); they are included both for
completeness and as the baseline the rewiring approaches are compared
against.
"""

from __future__ import annotations

from repro.core.distributions import (
    AverageDegree,
    DegreeDistribution,
    JointDegreeDistribution,
)
from repro.generators.streaming import (
    _distinct_pairs,
    in_memory,
    streaming_stochastic_1k,
    streaming_stochastic_2k,
)
from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike, ensure_rng


def stochastic_0k(zero_k: AverageDegree, *, rng: RngLike = None) -> SimpleGraph:
    """Erdős–Rényi graph matching the expected average degree of ``zero_k``."""
    rng = ensure_rng(rng)
    n = zero_k.nodes
    p = zero_k.edge_probability()
    if n < 2 or p <= 0:
        return SimpleGraph(n)
    possible = n * (n - 1) // 2
    u, v = _distinct_pairs(n, n, int(rng.binomial(possible, p)), rng, same_class=True)
    return SimpleGraph.from_flat_edges(n, u.tolist(), v.tolist())


def stochastic_1k(one_k: DegreeDistribution, *, rng: RngLike = None) -> SimpleGraph:
    """Chung–Lu graph with expected degrees drawn from ``one_k``.

    The expected-degree labels ``q_i`` are the exact degree sequence of the
    target distribution (the paper labels nodes with expected degrees drawn
    from ``P(k)``), in ascending order; connection probabilities are
    ``q_i q_j / (n q̄)`` capped at one.
    """
    return in_memory(streaming_stochastic_1k, one_k, rng)


def stochastic_2k(jdd: JointDegreeDistribution, *, rng: RngLike = None) -> SimpleGraph:
    """Degree-class block model reproducing the expected JDD of ``jdd``.

    Nodes are grouped into degree classes of the sizes implied by the JDD;
    for every class pair the number of edges is drawn from the binomial
    distribution whose mean equals the target ``m(k1, k2)``, and the edges are
    placed on distinct uniformly random node pairs of those classes.
    """
    return in_memory(streaming_stochastic_2k, jdd, rng)


__all__ = ["stochastic_0k", "stochastic_1k", "stochastic_2k"]
