"""Front-end for producing dK-random graphs.

The paper distinguishes *dK-graphs* (any graph having property ``P_d``) from
*dK-random graphs* (the maximum-entropy ones that the constructing algorithms
actually produce).  This module provides a single entry point,
:func:`dk_random_graph`, that builds a dK-random counterpart of an input
graph with any algorithm registered in
:mod:`repro.generators.registry`:

* ``method="rewiring"`` (default) applies dK-preserving randomizing rewiring
  to a copy of the original graph (the paper's preferred approach,
  Section 5.1);
* the other built-in methods (``stochastic``, ``pseudograph``, ``matching``,
  ``targeting``) build the graph from the extracted dK-distribution, and any
  custom method added with
  :func:`~repro.generators.registry.register_generator` is reachable here by
  name.
"""

from __future__ import annotations

from typing import Literal, overload

from repro.generators.registry import GenerationResult, get_generator
from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike

Method = Literal["rewiring", "stochastic", "pseudograph", "matching", "targeting"]


@overload
def dk_random_graph(
    original: SimpleGraph,
    d: int,
    *,
    method: str = ...,
    rng: RngLike = ...,
    rewiring_multiplier: float = ...,
    return_result: Literal[False] = ...,
) -> SimpleGraph: ...


@overload
def dk_random_graph(
    original: SimpleGraph,
    d: int,
    *,
    method: str = ...,
    rng: RngLike = ...,
    rewiring_multiplier: float = ...,
    return_result: Literal[True],
) -> GenerationResult: ...


def dk_random_graph(
    original: SimpleGraph,
    d: int,
    *,
    method: str = "rewiring",
    rng: RngLike = None,
    rewiring_multiplier: float = 10.0,
    return_result: bool = False,
) -> SimpleGraph | GenerationResult:
    """Construct a dK-random counterpart of ``original``.

    Parameters
    ----------
    original:
        The input graph whose dK-distribution must be reproduced.
    d:
        Level of the dK-series, 0 to 3.
    method:
        Name of a registered construction algorithm.  ``"rewiring"``
        (default) applies dK-preserving randomizing rewiring to a copy of the
        original graph; the other built-in methods build the graph from the
        extracted distribution: ``"stochastic"`` (d <= 2), ``"pseudograph"``
        (d in {1, 2}), ``"matching"`` (d in {1, 2}), ``"targeting"``
        (d in {2, 3}).
    rng:
        Seed or generator for reproducibility.
    rewiring_multiplier:
        Number of accepted rewirings per possible initial rewiring (the paper
        uses 10).  Only meaningful for ``method="rewiring"``.
    return_result:
        When true, return the full :class:`GenerationResult` provenance
        envelope (graph + method, d, seed, wall time, convergence stats)
        instead of the bare graph.
    """
    spec = get_generator(method)
    options = {"multiplier": rewiring_multiplier} if method == "rewiring" else {}
    result = spec.build(original, d, rng=rng, **options)
    return result if return_result else result.graph


__all__ = ["dk_random_graph", "Method"]
