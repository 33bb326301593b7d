"""Algorithm-comparison harness (Tables 3 and 4 of the paper).

Given one original topology, generate dK-random counterparts with several
construction algorithms, summarize each with the scalar metrics of Table 2,
and collect the results side by side.  Each algorithm is run over several
random seeds and the summaries averaged, as in the paper (which averages 100
instances; the default here is smaller to stay laptop-friendly and can be
raised by callers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.randomness import dk_random_graph
from repro.exceptions import ExperimentError
from repro.graph.simple_graph import SimpleGraph
from repro.measure.plan import Measurement, average_measurements, battery_plan
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment import ExperimentResult, RunRecord

GraphFactory = Callable[..., SimpleGraph]


@dataclass
class AlgorithmComparison:
    """Result of comparing several construction algorithms on one topology.

    Every cell is a planner :class:`~repro.measure.plan.Measurement` of the
    compared metric set: the Table-2 battery by default (without the λ
    metrics when the spectrum was off), or a custom ``metrics=`` subset.
    """

    original: Measurement
    columns: dict[str, Measurement]

    def as_columns(self, original_label: str = "Original") -> dict[str, Measurement]:
        """All columns including the original graph (for table rendering)."""
        combined = dict(self.columns)
        combined[original_label] = self.original
        return combined


def compare_generators(
    original: SimpleGraph,
    generators: Mapping[str, GraphFactory],
    *,
    instances: int = 3,
    rng: RngLike = None,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    metrics: Sequence[str] | None = None,
) -> AlgorithmComparison:
    """Run every generator ``instances`` times and average the metrics.

    Each generator is called as ``generator(rng=child_rng)`` and must return
    a :class:`SimpleGraph`.  One measurement plan is built for the whole
    comparison, so every graph is measured with shared intermediates (one
    BFS sweep each).  ``metrics`` selects an à-la-carte subset (names from
    :func:`repro.measure.registry.available_metrics`); the default is the
    paper's Table-2 scalar battery.
    """
    rng = ensure_rng(rng)
    plan = battery_plan(
        metrics, compute_spectrum=compute_spectrum, distance_sources=distance_sources
    )
    # the original is measured without touching the parent rng stream, so the
    # spawned per-instance children (and hence the generated graphs) are
    # unchanged from the pre-planner behaviour
    original_summary = plan.run(original)
    columns: dict[str, Measurement] = {}
    for label, factory in generators.items():
        summaries = []
        for child in spawn_rngs(rng, instances):
            graph = factory(rng=child)
            summaries.append(plan.run(graph, rng=child))
        columns[label] = average_measurements(summaries)
    return AlgorithmComparison(original=original_summary, columns=columns)


def standard_2k_generators(original: SimpleGraph) -> dict[str, GraphFactory]:
    """The five 2K construction algorithms compared in Table 3 / Figure 5."""
    return {
        "Stochastic": lambda rng=None: dk_random_graph(original, 2, method="stochastic", rng=rng),
        "Pseudograph": lambda rng=None: dk_random_graph(original, 2, method="pseudograph", rng=rng),
        "Matching": lambda rng=None: dk_random_graph(original, 2, method="matching", rng=rng),
        "2K-randomizing": lambda rng=None: dk_random_graph(original, 2, method="rewiring", rng=rng),
        "2K-targeting": lambda rng=None: dk_random_graph(original, 2, method="targeting", rng=rng),
    }


def standard_3k_generators(original: SimpleGraph) -> dict[str, GraphFactory]:
    """The two 3K construction algorithms compared in Table 4 / Figure 5c."""
    return {
        "3K-randomizing": lambda rng=None: dk_random_graph(original, 3, method="rewiring", rng=rng),
        "3K-targeting": lambda rng=None: dk_random_graph(original, 3, method="targeting", rng=rng),
    }


def compare_2k_algorithms(
    original: SimpleGraph,
    *,
    instances: int = 3,
    rng: RngLike = None,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    labels: Sequence[str] | None = None,
    metrics: Sequence[str] | None = None,
) -> AlgorithmComparison:
    """Table 3: scalar metrics of 2K-random graphs from the five algorithms."""
    generators = standard_2k_generators(original)
    if labels is not None:
        generators = {label: generators[label] for label in labels}
    return compare_generators(
        original,
        generators,
        instances=instances,
        rng=rng,
        distance_sources=distance_sources,
        compute_spectrum=compute_spectrum,
        metrics=metrics,
    )


def compare_3k_algorithms(
    original: SimpleGraph,
    *,
    instances: int = 3,
    rng: RngLike = None,
    distance_sources: int | None = None,
    compute_spectrum: bool = True,
    metrics: Sequence[str] | None = None,
) -> AlgorithmComparison:
    """Table 4: scalar metrics of 3K-random graphs (randomizing vs targeting)."""
    return compare_generators(
        original,
        standard_3k_generators(original),
        instances=instances,
        rng=rng,
        distance_sources=distance_sources,
        compute_spectrum=compute_spectrum,
        metrics=metrics,
    )


def comparison_from_experiment(
    result: "ExperimentResult",
    *,
    topology: str | None = None,
    d: int | None = None,
    label_by: Callable[["RunRecord"], str] | None = None,
) -> AlgorithmComparison:
    """Build an :class:`AlgorithmComparison` from Experiment pipeline results.

    The experiment must have been run with ``include_original=True`` and a
    non-empty metric set (the default is the Table-2 battery); replicates of
    each method are averaged exactly like :func:`compare_generators` does.

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
        Column-label function of a record; the default uses the method name,
        suffixed with the dK level when several levels are present.
    """
    from repro.experiment import ORIGINAL_METHOD

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

    grouped: dict[str, list] = {}
    for record in generated:
        grouped.setdefault(label_by(record), []).append(summary_of(record))

    columns = {
        label: average_measurements(summaries) for label, summaries in grouped.items()
    }
    return AlgorithmComparison(original=original_summary, columns=columns)


__all__ = [
    "AlgorithmComparison",
    "compare_generators",
    "standard_2k_generators",
    "standard_3k_generators",
    "compare_2k_algorithms",
    "compare_3k_algorithms",
    "comparison_from_experiment",
]
