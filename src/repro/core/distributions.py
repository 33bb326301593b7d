"""Containers for the dK-distributions (d = 0, 1, 2, 3).

Each container stores *counts* of the corresponding subgraphs in an input
graph (the paper's convention in its worked example: ``P(2,3) = 2`` means
"two edges between 2- and 3-degree nodes"), and offers the normalized
probability view on top of the counts.

The inclusion property of the dK-series (``P_d`` determines ``P_{d-1}``) is
implemented as ``to_lower()`` projections:

* :class:`JointDegreeDistribution` -> :class:`DegreeDistribution` via
  ``k n(k) = Σ_{k'} m(k,k') (1 + [k = k'])``;
* :class:`DegreeDistribution` -> :class:`AverageDegree` via ``k̄ = Σ k P(k)``;
* :class:`ThreeKDistribution` carries its JDD, and can additionally re-derive
  it from wedge/triangle counts for consistency checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import DistributionError

WedgeKey = tuple[int, int, int]
TriangleKey = tuple[int, int, int]


# --------------------------------------------------------------------------- #
# 0K
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AverageDegree:
    """The 0K-distribution: graph size and average degree."""

    nodes: int
    edges: int

    def __post_init__(self) -> None:
        if self.nodes < 0 or self.edges < 0:
            raise DistributionError("nodes and edges must be non-negative")

    @property
    def average_degree(self) -> float:
        """``k̄ = 2m / n`` (0 for the empty graph)."""
        if self.nodes == 0:
            return 0.0
        return 2.0 * self.edges / self.nodes

    def edge_probability(self) -> float:
        """Stochastic 0K edge probability ``p = k̄ / n`` (Erdős–Rényi)."""
        if self.nodes == 0:
            return 0.0
        return min(1.0, self.average_degree / self.nodes)


# --------------------------------------------------------------------------- #
# 1K
# --------------------------------------------------------------------------- #
@dataclass
class DegreeDistribution:
    """The 1K-distribution: number of nodes ``n(k)`` of each degree ``k``."""

    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[int, int] = {}
        for degree, count in self.counts.items():
            if degree < 0:
                raise DistributionError(f"negative degree {degree}")
            if count < 0:
                raise DistributionError(f"negative count for degree {degree}")
            if count:
                cleaned[int(degree)] = int(count)
        self.counts = cleaned

    # -- basic quantities ------------------------------------------------- #
    @property
    def nodes(self) -> int:
        """Total number of nodes ``n``."""
        return sum(self.counts.values())

    @property
    def edges(self) -> int:
        """Total number of edges ``m`` implied by the degree counts."""
        stubs = sum(k * c for k, c in self.counts.items())
        if stubs % 2:
            raise DistributionError("degree counts imply an odd number of stubs")
        return stubs // 2

    @property
    def stub_count(self) -> int:
        """Total number of edge ends (``2m`` when the sequence is graphical)."""
        return sum(k * c for k, c in self.counts.items())

    def average_degree(self) -> float:
        """``k̄ = Σ k P(k)``."""
        n = self.nodes
        if n == 0:
            return 0.0
        return self.stub_count / n

    def max_degree(self) -> int:
        """Largest degree with a non-zero count (0 if empty)."""
        return max(self.counts, default=0)

    def pmf(self) -> dict[int, float]:
        """Normalized ``P(k) = n(k) / n``."""
        n = self.nodes
        if n == 0:
            return {}
        return {k: c / n for k, c in sorted(self.counts.items())}

    def degree_sequence(self) -> list[int]:
        """Expanded degree sequence (one entry per node), ascending degrees."""
        sequence: list[int] = []
        for degree in sorted(self.counts):
            sequence.extend([degree] * self.counts[degree])
        return sequence

    def entropy(self) -> float:
        """Shannon entropy of ``P(k)`` in nats."""
        return -sum(p * math.log(p) for p in self.pmf().values() if p > 0)

    # -- projections and constructors ------------------------------------- #
    def to_lower(self) -> AverageDegree:
        """Project to the 0K-distribution (inclusion property)."""
        return AverageDegree(nodes=self.nodes, edges=self.edges)

    @classmethod
    def from_degree_sequence(cls, degrees: Iterable[int]) -> "DegreeDistribution":
        """Build the distribution from an explicit degree sequence."""
        return cls(dict(Counter(int(k) for k in degrees)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeDistribution):
            return NotImplemented
        return self.counts == other.counts


# --------------------------------------------------------------------------- #
# 2K
# --------------------------------------------------------------------------- #
@dataclass
class JointDegreeDistribution:
    """The 2K-distribution: number of edges ``m(k1, k2)`` per degree pair.

    Keys are canonical ``(k1, k2)`` with ``k1 <= k2``.  ``zero_degree_nodes``
    records nodes of degree zero, which are invisible to the edge counts but
    needed to reconstruct the exact node count of the original graph.
    """

    counts: dict[tuple[int, int], int] = field(default_factory=dict)
    zero_degree_nodes: int = 0

    def __post_init__(self) -> None:
        cleaned: dict[tuple[int, int], int] = {}
        for (k1, k2), count in self.counts.items():
            if k1 <= 0 or k2 <= 0:
                raise DistributionError(f"degrees in a JDD must be positive, got {(k1, k2)}")
            if count < 0:
                raise DistributionError(f"negative edge count for {(k1, k2)}")
            if count == 0:
                continue
            key = (k1, k2) if k1 <= k2 else (k2, k1)
            cleaned[key] = cleaned.get(key, 0) + int(count)
        self.counts = cleaned
        if self.zero_degree_nodes < 0:
            raise DistributionError("zero_degree_nodes must be non-negative")
        # validate that edge-end counts are divisible by the degree
        for degree, ends in self._edge_ends_per_degree().items():
            if ends % degree:
                raise DistributionError(
                    f"edge ends of degree {degree} ({ends}) are not divisible by the degree"
                )

    # -- basic quantities ------------------------------------------------- #
    @property
    def edges(self) -> int:
        """Total number of edges ``m``."""
        return sum(self.counts.values())

    def _edge_ends_per_degree(self) -> dict[int, int]:
        ends: dict[int, int] = {}
        for (k1, k2), count in self.counts.items():
            ends[k1] = ends.get(k1, 0) + count
            ends[k2] = ends.get(k2, 0) + count
        return ends

    def node_counts(self) -> dict[int, int]:
        """Number of nodes of each (positive) degree implied by the JDD."""
        return {k: ends // k for k, ends in self._edge_ends_per_degree().items()}

    @property
    def nodes(self) -> int:
        """Total number of nodes, including isolated (degree-0) ones."""
        return sum(self.node_counts().values()) + self.zero_degree_nodes

    def edge_count(self, k1: int, k2: int) -> int:
        """``m(k1, k2)`` for an arbitrary argument order."""
        key = (k1, k2) if k1 <= k2 else (k2, k1)
        return self.counts.get(key, 0)

    def pmf(self) -> dict[tuple[int, int], float]:
        """Normalized JDD ``P(k1,k2) = m(k1,k2) µ(k1,k2) / (2m)``."""
        m = self.edges
        if m == 0:
            return {}
        result = {}
        for (k1, k2), count in sorted(self.counts.items()):
            mu = 2 if k1 == k2 else 1
            result[(k1, k2)] = count * mu / (2.0 * m)
        return result

    def average_degree(self) -> float:
        """``k̄`` implied by the JDD (projected through the 1K-distribution)."""
        return self.to_lower().average_degree()

    def assortativity(self) -> float:
        """Pearson degree–degree correlation coefficient ``r`` over edges."""
        m = self.edges
        if m == 0:
            return 0.0
        sum_prod = 0.0
        sum_half = 0.0
        sum_half_sq = 0.0
        for (k1, k2), count in self.counts.items():
            sum_prod += count * k1 * k2
            sum_half += count * 0.5 * (k1 + k2)
            sum_half_sq += count * 0.5 * (k1 * k1 + k2 * k2)
        num = sum_prod / m - (sum_half / m) ** 2
        den = sum_half_sq / m - (sum_half / m) ** 2
        if den == 0:
            return 0.0
        return num / den

    def likelihood(self) -> float:
        """Likelihood ``S = Σ_{(u,v) in E} k_u k_v`` implied by the JDD."""
        return float(sum(count * k1 * k2 for (k1, k2), count in self.counts.items()))

    def entropy(self) -> float:
        """Shannon entropy (nats) of the normalized JDD."""
        return -sum(p * math.log(p) for p in self.pmf().values() if p > 0)

    # -- projections and constructors ------------------------------------- #
    def to_lower(self) -> DegreeDistribution:
        """Project to the 1K-distribution (inclusion property)."""
        counts = dict(self.node_counts())
        if self.zero_degree_nodes:
            counts[0] = counts.get(0, 0) + self.zero_degree_nodes
        return DegreeDistribution(counts)

    @classmethod
    def from_edge_degree_pairs(
        cls, pairs: Iterable[tuple[int, int]], zero_degree_nodes: int = 0
    ) -> "JointDegreeDistribution":
        """Build from an iterable of per-edge endpoint-degree pairs."""
        counter: Counter = Counter()
        for k1, k2 in pairs:
            key = (k1, k2) if k1 <= k2 else (k2, k1)
            counter[key] += 1
        return cls(dict(counter), zero_degree_nodes=zero_degree_nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDegreeDistribution):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.zero_degree_nodes == other.zero_degree_nodes
        )


# --------------------------------------------------------------------------- #
# 3K
# --------------------------------------------------------------------------- #
@dataclass
class ThreeKDistribution:
    """The 3K-distribution: wedge and triangle counts keyed by degrees.

    ``wedges`` maps ``(k_end_min, k_centre, k_end_max)`` to the number of
    *open* wedges with those degrees; ``triangles`` maps sorted degree triples
    to triangle counts.  The joint degree distribution of the same graph is
    carried along (``jdd``), both because the paper's inclusion property makes
    it available for free during extraction and because it is needed to seed
    2K-preserving rewiring toward a 3K target.
    """

    wedges: Counter = field(default_factory=Counter)
    triangles: Counter = field(default_factory=Counter)
    jdd: JointDegreeDistribution = field(default_factory=JointDegreeDistribution)

    def __post_init__(self) -> None:
        self.wedges = Counter({k: int(v) for k, v in self.wedges.items() if v})
        self.triangles = Counter({k: int(v) for k, v in self.triangles.items() if v})
        for (a, c, b), value in self.wedges.items():
            if value < 0:
                raise DistributionError("negative wedge count")
            if a > b:
                raise DistributionError(f"wedge key {(a, c, b)} is not canonical")
        for key, value in self.triangles.items():
            if value < 0:
                raise DistributionError("negative triangle count")
            if tuple(sorted(key)) != key:
                raise DistributionError(f"triangle key {key} is not canonical")

    # -- basic quantities ------------------------------------------------- #
    @property
    def wedge_total(self) -> int:
        """Total number of open wedges."""
        return sum(self.wedges.values())

    @property
    def triangle_total(self) -> int:
        """Total number of triangles."""
        return sum(self.triangles.values())

    @property
    def nodes(self) -> int:
        """Number of nodes (delegated to the embedded JDD)."""
        return self.jdd.nodes

    @property
    def edges(self) -> int:
        """Number of edges (delegated to the embedded JDD)."""
        return self.jdd.edges

    def second_order_likelihood(self) -> float:
        """``S2 ~ Σ k1 k3 P∧(k1,k2,k3)``: degree correlation at distance two.

        Computed over open wedges *and* triangles (a triangle contains three
        closed wedges), matching the definition of degree correlations of
        nodes located at distance two used in the paper's 2K-space
        explorations.
        """
        total = 0.0
        for (ka, _kc, kb), count in self.wedges.items():
            total += count * ka * kb
        for key, count in self.triangles.items():
            ka, kb, kc = key
            # each triangle contributes its three closed wedges
            total += count * (ka * kb + ka * kc + kb * kc)
        return total

    # -- projections ------------------------------------------------------ #
    def to_lower(self) -> JointDegreeDistribution:
        """Project to the 2K-distribution (inclusion property)."""
        return self.jdd

    def implied_ordered_edge_ends(self) -> dict[tuple[int, int], int]:
        """Reconstruct ``ordered_edges(k1,k2) * (k2 - 1)`` from wedges/triangles.

        For every ordered edge ``(u, v)`` with degrees ``(k1, k2)``, node ``v``
        has ``k2 - 1`` further neighbours, and each of them closes either a
        wedge centred at ``v`` or a triangle.  Summing those incidences over
        the 3K counts therefore recovers the paper's projection formula
        ``P(k1,k2) ~ Σ_k {P∧ + P△} / (k2 - 1)``; this method returns the
        left-hand side prior to the division, which is exact for integer
        counts and is used by the consistency checks in the test-suite.
        """
        legs: Counter = Counter()
        for (ka, kc, kb), count in self.wedges.items():
            # wedge a - c - b: ordered edges (a, c) and (b, c) each see the
            # other endpoint as the "further neighbour".
            legs[(ka, kc)] += count
            legs[(kb, kc)] += count
        for key, count in self.triangles.items():
            ka, kb, kc = key
            degree_list = [ka, kb, kc]
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    legs[(degree_list[i], degree_list[j])] += count
        return dict(legs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeKDistribution):
            return NotImplemented
        return (
            self.wedges == other.wedges
            and self.triangles == other.triangles
            and self.jdd == other.jdd
        )


__all__ = [
    "AverageDegree",
    "DegreeDistribution",
    "JointDegreeDistribution",
    "ThreeKDistribution",
    "TriangleKey",
    "WedgeKey",
]
