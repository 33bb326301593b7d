"""Plain-text table rendering for experiment outputs.

The benchmark harness prints tables shaped like the paper's Tables 3-8; this
module holds the small formatting helpers so that benchmarks, examples and
the CLI all render results the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment import ExperimentResult
    from repro.measure.plan import Measurement

# row order and labels used for the paper-style scalar-metric tables
SCALAR_ROWS: tuple[tuple[str, str], ...] = (
    ("average_degree", "kbar"),
    ("assortativity", "r"),
    ("mean_clustering", "Cbar"),
    ("mean_distance", "dbar"),
    ("distance_std", "sigma_d"),
    ("lambda_1", "lambda_1"),
    ("lambda_n_1", "lambda_n-1"),
)

_MISSING = object()


def format_value(value: float, precision: int = 3) -> str:
    """Format a numeric value compactly (integers stay integers)."""
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3g}"
    return f"{value:.{precision}f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    text_rows = [[str(h) for h in headers]]
    for row in rows:
        text_rows.append(
            [format_value(cell) if isinstance(cell, float) else str(cell) for cell in row]
        )
    widths = [max(len(row[i]) for row in text_rows) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    for index, row in enumerate(text_rows):
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append(separator)
    return "\n".join(lines)


def scalar_metrics_table(
    columns: "Mapping[str, Measurement]",
    *,
    title: str | None = None,
    rows: Sequence[tuple[str, str]] = SCALAR_ROWS,
) -> str:
    """Render a paper-style table: one column per graph, one row per metric.

    Columns are planner :class:`~repro.measure.plan.Measurement` objects;
    rows whose metric none of the columns measured are dropped (so the λ
    rows vanish when the spectrum was off), and a column missing one metric
    shows ``-`` (à-la-carte subsets render cleanly).
    """
    headers = ["Metric", *columns.keys()]
    body = []
    for field_name, label in rows:
        values = [getattr(summary, field_name, _MISSING) for summary in columns.values()]
        if all(value is _MISSING for value in values):
            continue
        body.append([label, *("-" if value is _MISSING else value for value in values)])
    return render_table(headers, body, title=title)


def series_table(
    series: Mapping[str, Mapping],
    *,
    x_label: str = "x",
    title: str | None = None,
    max_rows: int | None = None,
) -> str:
    """Render several ``{x: y}`` series side by side (the figure data dumps)."""
    xs = sorted({x for values in series.values() for x in values})
    if max_rows is not None and len(xs) > max_rows:
        step = max(1, len(xs) // max_rows)
        xs = xs[::step]
    headers = [x_label, *series.keys()]
    rows = []
    for x in xs:
        rows.append([x, *(series[label].get(x, 0.0) for label in series)])
    return render_table(headers, rows, title=title)


#: The metric columns of :func:`experiment_table` by default: (metric, header).
EXPERIMENT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("average_degree", "kbar"),
    ("assortativity", "r"),
    ("mean_distance", "dbar"),
)


def experiment_table(
    result: "ExperimentResult",
    *,
    columns: Sequence[tuple[str, str]] | None = EXPERIMENT_COLUMNS,
    title: str | None = None,
) -> str:
    """Render an Experiment pipeline result: one row per grid cell group.

    Replicates of each (topology, method, d, scenario) group are averaged;
    the ``scenario`` column appears only when some record has a scenario.
    ``columns`` lists the scalar metric columns as ``(metric, header)``
    pairs; ``None`` renders every scalar metric the grid measured (except
    ``nodes`` and ``edges``, which always have their own columns), headed by
    its name.  A metric column is ``-`` when a record did not measure it;
    ``time_s`` is the mean wall time.
    """
    if columns is None:
        from repro.measure.registry import get_metric_def

        columns = [
            (name, name)
            for name in result.spec.metrics
            if get_metric_def(name).kind == "scalar" and name not in ("nodes", "edges")
        ]
    grouped: dict[tuple[str, str, object, object], list] = {}
    for record in result.records:
        key = (record.topology, record.method, record.d, record.scenario)
        grouped.setdefault(key, []).append(record)
    with_scenarios = any(key[3] is not None for key in grouped)

    headers = ["topology", "method", "d", "runs", "nodes", "edges"]
    headers += [header for _, header in columns] + ["time_s"]
    if with_scenarios:
        headers.insert(3, "scenario")
    rows = []
    for (topology, method, d, scenario), records in grouped.items():
        count = len(records)
        mean = lambda values: sum(values) / count  # noqa: E731

        def metric_column(name):
            values = [record.metric_value(name) for record in records]
            if any(value is None for value in values):
                return "-"
            return format_value(mean(values))

        row = [
            topology,
            method,
            "-" if d is None else d,
            count,
            round(mean([record.nodes for record in records])),
            round(mean([record.edges for record in records])),
            *(metric_column(name) for name, _ in columns),
            format_value(mean([record.wall_time for record in records])),
        ]
        if with_scenarios:
            row.insert(3, scenario or "none")
        rows.append(row)
    return render_table(headers, rows, title=title)


__all__ = [
    "SCALAR_ROWS",
    "format_value",
    "render_table",
    "scalar_metrics_table",
    "series_table",
    "EXPERIMENT_COLUMNS",
    "experiment_table",
]
