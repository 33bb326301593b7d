"""dK-series convergence studies (Tables 6 and 8, Figures 3, 6, 8, 9).

A convergence study compares an original topology against its dK-random
counterparts for ``d = 0..3`` and reports how the metrics (and the figure
series) approach the original as ``d`` grows.  Measurement goes through one
:class:`~repro.measure.plan.MeasurementPlan` shared by the original and all
generated instances, so each graph pays a single BFS sweep / triangle pass
regardless of how many metrics are requested — and a custom ``metrics=``
subset (e.g. only ``mean_distance`` for a convergence trace, or
``distance_distribution`` + ``betweenness_by_degree`` for distribution
studies) measures exactly what the study needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.randomness import dk_random_graph
from repro.graph.simple_graph import SimpleGraph
from repro.measure.plan import Measurement, average_measurements, battery_plan
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


@dataclass
class ConvergenceStudy:
    """Metric convergence of dK-random graphs toward an original graph.

    Every cell is a planner :class:`~repro.measure.plan.Measurement` of the
    study's metric set: the Table-2 battery by default (without the λ
    metrics when the spectrum was off), or a custom ``metrics=`` subset.
    """

    original: Measurement
    by_d: dict[int, Measurement]
    sample_graphs: dict[int, SimpleGraph] = field(default_factory=dict)

    def as_columns(self, original_label: str = "Original") -> dict[str, Measurement]:
        """Columns for table rendering: 0K..3K followed by the original."""
        columns = {f"{d}K": summary for d, summary in sorted(self.by_d.items())}
        columns[original_label] = self.original
        return columns

    def convergence_error(self, metric: str) -> dict[int, float]:
        """Absolute error of one scalar metric per dK level."""
        reference = getattr(self.original, metric)
        return {
            d: abs(getattr(summary, metric) - reference) for d, summary in self.by_d.items()
        }

    def is_monotonically_converging(self, metric: str, slack: float = 0.0) -> bool:
        """True when the metric error does not grow as ``d`` increases.

        ``slack`` allows small non-monotonic wiggles (random instances).
        """
        errors = [error for _, error in sorted(self.convergence_error(metric).items())]
        return all(later <= earlier + slack for earlier, later in zip(errors, errors[1:]))


def dk_convergence_study(
    original: SimpleGraph,
    *,
    ds: tuple[int, ...] = (0, 1, 2, 3),
    instances: int = 3,
    method: str = "rewiring",
    rng: RngLike = None,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    keep_sample_graphs: bool = False,
    metrics: Sequence[str] | None = None,
) -> ConvergenceStudy:
    """Generate dK-random graphs for each requested ``d`` and summarize them.

    Parameters
    ----------
    instances:
        Number of random instances per ``d`` whose summaries are averaged
        (the paper uses 100; benchmarks use a handful to stay fast).
    method:
        Construction method passed to :func:`repro.core.dk_random_graph`.
    keep_sample_graphs:
        Keep one generated instance per ``d`` (used by the figure series).
    metrics:
        À-la-carte metric subset (see
        :func:`repro.measure.registry.available_metrics`); the default is
        the full Table-2 battery.
    """
    rng = ensure_rng(rng)
    plan = battery_plan(
        metrics, compute_spectrum=compute_spectrum, distance_sources=distance_sources
    )
    original_summary = plan.run(original)
    by_d: dict[int, Measurement] = {}
    samples: dict[int, SimpleGraph] = {}
    for d in ds:
        summaries = []
        for index, child in enumerate(spawn_rngs(rng, instances)):
            graph = dk_random_graph(original, d, method=method, rng=child)
            if keep_sample_graphs and index == 0:
                samples[d] = graph
            summaries.append(plan.run(graph, rng=child))
        by_d[d] = average_measurements(summaries)
    return ConvergenceStudy(original=original_summary, by_d=by_d, sample_graphs=samples)


def dk_random_family(
    original: SimpleGraph,
    *,
    ds: tuple[int, ...] = (0, 1, 2, 3),
    method: str = "rewiring",
    rng: RngLike = None,
) -> dict[int, SimpleGraph]:
    """One dK-random instance per requested ``d`` (for figure-series plots)."""
    rng = ensure_rng(rng)
    children = spawn_rngs(rng, len(ds))
    return {
        d: dk_random_graph(original, d, method=method, rng=child)
        for d, child in zip(ds, children)
    }


__all__ = ["ConvergenceStudy", "dk_convergence_study", "dk_random_family"]
