"""Pseudograph (configuration-model) dK-graph constructions (Section 4.1.2).

* 1K: the classical configuration model / PLRG: attach ``k`` stubs to each
  node of target degree ``k`` and pair stubs uniformly at random; self-loops
  and parallel edges produced by the pairing are dropped.
* 2K (the paper's extension): prepare ``m(k1, k2)`` edges whose ends are
  labelled with the degrees ``k1`` and ``k2``; for every degree ``k`` the
  edge-ends labelled ``k`` are shuffled and grouped ``k`` at a time into the
  degree-``k`` nodes of the final graph.  Self-loops and parallel edges are
  again dropped when the pseudograph is simplified.

Both are the streaming constructions of :mod:`repro.generators.streaming`
materialized as a :class:`SimpleGraph`: one seed gives one edge set on
either path.  The graphs may have a few lost edges and small extra
components; the paper's evaluation protocol takes
:func:`~repro.graph.components.giant_component` afterwards.
"""

from __future__ import annotations

from repro.core.distributions import DegreeDistribution, JointDegreeDistribution
from repro.generators.streaming import (
    in_memory,
    streaming_pseudograph_1k,
    streaming_pseudograph_2k,
)
from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike


def pseudograph_1k(one_k: DegreeDistribution, *, rng: RngLike = None) -> SimpleGraph:
    """Configuration-model graph for the target degree distribution."""
    return in_memory(streaming_pseudograph_1k, one_k, rng)


def pseudograph_2k(jdd: JointDegreeDistribution, *, rng: RngLike = None) -> SimpleGraph:
    """The paper's 2K pseudograph construction.

    Edge ends labelled with each degree ``k`` are randomly grouped ``k`` at a
    time into nodes; the grouping reproduces the target JDD exactly at the
    pseudograph level, and only the (few) self-loops and parallel edges lost
    during simplification perturb it.
    """
    return in_memory(streaming_pseudograph_2k, jdd, rng)


__all__ = ["pseudograph_1k", "pseudograph_2k"]
