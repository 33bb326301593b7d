"""Algorithm comparison (Tables 3 and 4 of the paper) from an experiment grid.

:func:`repro.experiment.run_experiment` generates the dK-random counterparts
of a topology with every construction algorithm and measures them; this
module folds its records into one column per algorithm, averaging the
replicates as the paper averages its instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.exceptions import ExperimentError
from repro.measure.plan import Measurement, average_measurements

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment import ExperimentResult, RunRecord


@dataclass
class AlgorithmComparison:
    """Result of comparing several construction algorithms on one topology.

    Every cell is a planner :class:`~repro.measure.plan.Measurement` of the
    compared metric set: the Table-2 battery by default (without the λ
    metrics when the spectrum was off), or a custom ``metrics=`` subset.
    """

    original: Measurement
    columns: dict[Any, Measurement]

    def as_columns(self, original_label: str = "Original") -> dict[Any, Measurement]:
        """All columns including the original graph (for table rendering)."""
        combined = dict(self.columns)
        combined[original_label] = self.original
        return combined


def comparison_from_experiment(
    result: "ExperimentResult",
    *,
    topology: str | None = None,
    d: int | None = None,
    label_by: Callable[["RunRecord"], Hashable] | None = None,
) -> AlgorithmComparison:
    """Build an :class:`AlgorithmComparison` from Experiment pipeline results.

    The experiment must have been run with ``include_original=True``, a
    non-empty metric set (the default is the Table-2 battery) and at most
    one scenario; the replicates of each column are averaged with
    :func:`~repro.measure.plan.average_measurements`.  A grid of several
    scenarios raises :class:`ExperimentError`: averaging intact and degraded
    graphs into one column would compare their mean with the intact
    original.

    Parameters
    ----------
    result:
        An executed :class:`~repro.experiment.ExperimentResult`.
    topology:
        Which topology's records to compare (optional when the experiment
        covered a single topology).
    d:
        Restrict to one dK level (optional when unambiguous).
    label_by:
        Column key of a record; the default uses the method name, suffixed
        with the dK level when several levels are present.
    """
    from repro.experiment import ORIGINAL_METHOD

    scenarios = result.spec.scenarios
    if scenarios is not None and len(scenarios) > 1:
        raise ExperimentError(
            f"a comparison needs a grid of at most one scenario, got {len(scenarios)}"
        )
    labels = result.topology_labels()
    if topology is None:
        if len(labels) != 1:
            raise ExperimentError(
                f"experiment covers several topologies ({', '.join(labels)}); "
                "pass topology=... to pick one"
            )
        topology = labels[0]

    def summary_of(record: "RunRecord") -> Measurement:
        if record.metrics is None:
            raise ExperimentError(
                "the experiment did not collect metrics (metrics=())"
            )
        return record.metrics

    original = result.original_record(topology)
    original_summary = summary_of(original)

    generated = [
        record
        for record in result.records_for(topology=topology, d=d)
        if record.method != ORIGINAL_METHOD
    ]
    if not generated:
        raise ExperimentError(f"no generated records for topology {topology!r}")

    if label_by is None:
        multiple_levels = len({record.d for record in generated}) > 1
        if multiple_levels:
            label_by = lambda record: f"{record.method} (d={record.d})"  # noqa: E731
        else:
            label_by = lambda record: record.method  # noqa: E731

    grouped: dict[Hashable, list] = {}
    for record in generated:
        grouped.setdefault(label_by(record), []).append(summary_of(record))

    columns = {
        label: average_measurements(summaries) for label, summaries in grouped.items()
    }
    return AlgorithmComparison(original=original_summary, columns=columns)


__all__ = ["AlgorithmComparison", "comparison_from_experiment"]
