"""dK-series convergence studies (Tables 6 and 8, Figures 3, 6, 8, 9).

A convergence study compares an original topology against its dK-random
counterparts for ``d = 0..3`` and reports how the metrics (and the figure
series) approach the original as ``d`` grows.  The graphs are generated and
measured by :func:`repro.experiment.run_experiment` over a one-method grid;
:func:`convergence_from_experiment` folds its records into one column per
``d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.comparison import comparison_from_experiment
from repro.exceptions import ExperimentError
from repro.graph.simple_graph import SimpleGraph
from repro.measure.plan import Measurement

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment import ExperimentResult


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


def convergence_from_experiment(
    result: "ExperimentResult", *, topology: str | None = None
) -> ConvergenceStudy:
    """Build a :class:`ConvergenceStudy` from a one-method experiment grid.

    The grid must have been run with ``include_original=True``, a non-empty
    metric set and a single method; the replicates at each ``d`` are
    averaged as in :func:`~repro.analysis.comparison.comparison_from_experiment`.
    With ``keep_graphs=True`` the replicate-0 graph of each ``d`` becomes its
    sample graph.
    """
    if len(result.spec.methods) > 1:
        raise ExperimentError(
            f"a convergence study needs a one-method grid, got "
            f"{', '.join(result.spec.methods)}"
        )
    comparison = comparison_from_experiment(
        result, topology=topology, label_by=lambda record: record.d
    )
    topology = topology or result.topology_labels()[0]
    samples = {
        record.d: record.graph
        for record in result.records_for(topology=topology, method=result.spec.methods[0])
        if record.replicate == 0 and record.graph is not None
    }
    return ConvergenceStudy(
        original=comparison.original, by_d=comparison.columns, sample_graphs=samples
    )


__all__ = ["ConvergenceStudy", "convergence_from_experiment"]
