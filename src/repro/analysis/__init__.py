"""Analysis of experiment grids: algorithm comparisons, convergence studies,
figure series and tables.

Every paper table and figure is one :class:`~repro.experiment.ExperimentSpec`
grid run by :func:`~repro.experiment.run_experiment`;
:func:`comparison_from_experiment` (one column per method, Tables 3 and 4)
and :func:`convergence_from_experiment` (one column per ``d``, Tables 6 and
8) fold its records into the paper's layout.
"""

from repro.analysis.comparison import (
    AlgorithmComparison,
    comparison_from_experiment,
)
from repro.analysis.convergence import (
    ConvergenceStudy,
    convergence_from_experiment,
)
from repro.analysis.figures import (
    betweenness_series,
    clustering_series,
    distance_distribution_series,
    series_l1_difference,
)
from repro.analysis.tables import (
    SCALAR_ROWS,
    experiment_table,
    format_value,
    render_table,
    scalar_metrics_table,
    series_table,
)

__all__ = [
    "AlgorithmComparison",
    "comparison_from_experiment",
    "ConvergenceStudy",
    "convergence_from_experiment",
    "betweenness_series",
    "clustering_series",
    "distance_distribution_series",
    "series_l1_difference",
    "SCALAR_ROWS",
    "experiment_table",
    "format_value",
    "render_table",
    "scalar_metrics_table",
    "series_table",
]
