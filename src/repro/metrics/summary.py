"""Scalar-metric summary of a topology (Table 2 of the paper).

The paper summarizes every generated graph by the scalar metrics

====================================  ==========
Average degree                        ``k̄``
Assortativity coefficient             ``r``
Average clustering                    ``C̄``
Average distance                      ``d̄``
Std deviation of distance             ``σ_d``
Second-order likelihood               ``S2``
Smallest non-zero Laplacian eigenvalue ``λ_1``
Largest Laplacian eigenvalue          ``λ_{n-1}``
====================================  ==========

:func:`summarize` computes them for one graph as a
:class:`~repro.measure.plan.Measurement`;
:func:`~repro.measure.plan.average_measurements` averages several instances
(the paper averages over 100 random seeds).  Metrics are computed on the
giant connected component by default, as in the paper's evaluation.

``summarize`` is a thin veneer over
:meth:`repro.measure.MeasurementPlan.table2`: the giant component is
extracted once, ONE BFS sweep feeds d̄ and σ_d, one triangle pass feeds C̄
and one edge-moments pass feeds r/S — with every value bit-identical to the
metric-at-a-time computation.  Without the spectrum the two λ metrics are
absent, not 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike

if TYPE_CHECKING:  # pragma: no cover
    from repro.measure.plan import Measurement


def summarize(
    graph: SimpleGraph,
    *,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    rng: RngLike = None,
) -> "Measurement":
    """Compute the scalar-metric summary of ``graph``.

    Parameters
    ----------
    use_giant_component:
        Compute the metrics on the giant connected component (the paper's
        protocol); degree-related metrics then differ slightly from the whole
        graph, as the paper notes for Table 6.
    distance_sources:
        Optional number of sampled BFS sources for the distance metrics
        (exact sweep when ``None``).  The sample is drawn once and shared by
        d̄ and σ_d.
    compute_spectrum:
        Skip the Laplacian eigenvalues (the most expensive part for large
        graphs) when false; ``lambda_1`` and ``lambda_n_1`` are then absent.
    """
    # deferred: repro.measure.plan imports the other metric modules
    from repro.measure.plan import MeasurementPlan

    return MeasurementPlan.table2(
        compute_spectrum=compute_spectrum,
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
    ).run(graph, rng=rng)


__all__ = ["summarize"]
