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

:func:`summarize` computes them for one graph; :func:`average_summaries`
averages several instances (the paper averages over 100 random seeds).
Metrics are computed on the giant connected component by default, as in the
paper's evaluation.

Since the measurement-planner refactor, ``summarize`` is a thin veneer over
:meth:`repro.measure.MeasurementPlan.table2`: the giant component is
extracted once, ONE BFS sweep feeds d̄ and σ_d, one triangle pass feeds C̄
and one edge-moments pass feeds r/S — with every value bit-identical to the
metric-at-a-time computation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike


@dataclass
class ScalarMetrics:
    """The scalar graph metrics of the paper's Table 2 (plus sizes)."""

    nodes: int
    edges: int
    average_degree: float
    assortativity: float
    mean_clustering: float
    mean_distance: float
    distance_std: float
    likelihood: float
    second_order_likelihood: float
    lambda_1: float
    lambda_n_1: float

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary view (used by the table renderers and CLI)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def summarize(
    graph: SimpleGraph,
    *,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    rng: RngLike = None,
) -> ScalarMetrics:
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
        graphs) when false; the two fields are then reported as 0.
    """
    # deferred: repro.measure.plan imports the other metric modules
    from repro.measure.plan import MeasurementPlan

    plan = MeasurementPlan.table2(
        compute_spectrum=compute_spectrum,
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
    )
    return plan.run(graph, rng=rng).scalar_metrics()


def average_summaries(summaries: list[ScalarMetrics]) -> ScalarMetrics:
    """Element-wise average of several summaries (multi-seed experiments).

    Integer-typed fields (``nodes``, ``edges``, and any integer field a
    :class:`ScalarMetrics` subclass adds) are rounded back to ``int``; the
    check handles both resolved annotations and the stringified ones PEP 563
    produces under ``from __future__ import annotations``.
    """
    if not summaries:
        raise ValueError("cannot average an empty list of summaries")
    count = len(summaries)
    cls = type(summaries[0])
    averaged = {}
    for f in fields(cls):
        total = sum(getattr(summary, f.name) for summary in summaries)
        value = total / count
        averaged[f.name] = int(round(value)) if f.type in (int, "int") else value
    return cls(**averaged)


__all__ = ["ScalarMetrics", "summarize", "average_summaries"]
