"""The ``repro`` command-line front-end.

A single entry point (``python -m repro.cli <command> ...``) bundling the
library's analogue of the Orbis tools the paper's authors released, plus the
Experiment pipeline:

* ``dist``    -- analyze a graph: extract its dK-distributions and scalar
  metrics; optionally write the 2K-distribution (JDD) to a file.
  ``--metrics`` selects an à-la-carte subset (including distribution
  metrics like ``distance_distribution`` / ``betweenness_by_degree``)
  evaluated by one measurement-planner run — the same knob exists on
  ``compare``, ``run-experiment`` and ``workload``.
* ``gen``     -- generate a dK-random graph, either from an input graph or
  from a JDD file, with any registered construction algorithm, optionally
  rescaled to a different size; a chain that stops before convergence, and
  a matching construction that leaves edges out, are reported on stderr
  instead of silently returning.
* ``compare`` -- compare two graphs: dK distances and scalar metrics side by
  side.
* ``methods`` -- list the construction algorithms in the generator registry.
* ``run-experiment`` -- execute a topologies × methods × d-levels ×
  scenarios × replicates grid, optionally across parallel worker processes,
  and render / export the results.  ``--scenario hub_degree:0.05`` (etc.)
  degrades every graph of the grid by a failure or attack scenario.
  ``--store DIR`` persists graphs, metrics and per-cell manifests into a
  content-addressed artifact store; ``--resume`` skips cells already
  completed there (so an interrupted grid picks up where it left off, and a
  repeated grid costs nothing).
* ``workload`` -- the same grid command with traffic-workload defaults:
  route uniform shortest-path demand over d=0..3 rewiring reproductions of
  a topology and compare bottleneck load, congestion percentiles and
  effective throughput (the ``WORKLOAD_METRICS`` set), one table column per
  measured scalar.  The two names differ only in their defaults record.
* ``rescale-gen`` -- the million-node pipeline: rescale a measured topology's
  dK-1/dK-2 distribution to a target size (the paper's §6 rescaling
  extension), streaming-generate the rescaled graph into a memory-mapped CSR
  artifact at 10^6+ nodes with bounded memory, and measure it with sampled
  Table-2 metrics through the chunked CSR kernels.
* ``cache`` -- inspect (``info``, with ``--json`` for the machine-readable
  document ``GET /v1/store/info`` also serves, plus this process's store
  hit/miss/write counters), prune (``gc``) or empty (``clear``) an artifact
  store directory.
* ``serve`` -- run the topology-as-a-service HTTP/JSON daemon over an
  artifact store: request coalescing, admission control, background
  experiment jobs (see :mod:`repro.service`).
* ``trace`` -- run any other subcommand with tracing spans enabled and
  write a Chrome trace-event JSON file on exit (load it in
  ``chrome://tracing`` or https://ui.perfetto.dev).  Equivalent to setting
  ``REPRO_TRACE=<path>`` in the environment.

The generation method choices everywhere are derived from
:mod:`repro.generators.registry`, so algorithms added with
``register_generator`` show up automatically.  The historical tool names
(``dkdist``, ``dkgen``, ``dkcompare``) are kept as aliases.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.analysis.comparison import comparison_from_experiment
from repro.analysis.tables import (
    EXPERIMENT_COLUMNS,
    SCALAR_ROWS,
    experiment_table,
    render_table,
    scalar_metrics_table,
    series_table,
)
from repro.core.distance import graph_dk_distance
from repro.core.distributions import JointDegreeDistribution
from repro.core.randomness import dk_random_graph
from repro.core.series import DKSeries
from repro.exceptions import ExperimentError, StoreError
from repro.experiment import ExperimentSpec, run_experiment
from repro.generators.registry import available_generators, get_generator
from repro.graph.io import read_edge_list, read_jdd, write_edge_list, write_jdd
from repro.measure.plan import MeasurementPlan
from repro.measure.registry import available_metrics, get_metric_def
from repro.metrics.summary import summarize
from repro.rescaling.rescale import rescale_jdd
from repro.store.artifact_store import ArtifactStore, temporary_store
from repro.telemetry import (
    enable_tracing,
    event_count,
    maybe_enable_from_env,
    write_chrome_trace,
)
from repro.topologies.registry import available_topologies, build_topology
from repro.workloads import WORKLOAD_METRICS
from repro.workloads.scenarios import SCENARIO_KINDS


def _load_graph(source: str):
    """Load a graph from an edge-list path or a registered topology name."""
    path = Path(source)
    if path.exists():
        return read_edge_list(path)
    if source in available_topologies():
        return build_topology(source)
    raise SystemExit(
        f"'{source}' is neither an existing edge-list file nor a known topology "
        f"({', '.join(available_topologies())})"
    )


def _method_choices() -> tuple[str, ...]:
    """Generation-method names, straight from the generator registry."""
    return tuple(available_generators())


def _add_metrics_argument(
    parser: argparse.ArgumentParser, default: tuple[str, ...] | None = None
) -> None:
    """The shared ``--metrics`` knob: an à-la-carte metric subset instead of
    ``default`` (the Table-2 battery when None)."""
    instead_of = ",".join(default) if default else "the full Table-2 battery"
    parser.add_argument(
        "--metrics",
        default=None,
        help=f"comma-separated metric subset to compute instead of {instead_of} "
        "(e.g. 'mean_distance,distance_std,"
        "betweenness_by_degree'); all selected metrics share one planner "
        "run, so e.g. distances and betweenness cost a single BFS sweep; "
        f"available: {', '.join(available_metrics())}",
    )


def _parse_metric_names(
    value: str | None, parser: argparse.ArgumentParser
) -> tuple[str, ...] | None:
    """Split and validate a ``--metrics`` value (None when not given)."""
    if value is None:
        return None
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    if not names:
        parser.error("--metrics needs at least one metric name")
    try:
        return MeasurementPlan(names).metrics
    except ValueError as error:
        parser.error(str(error))


def _measurement_report(columns: dict, names: tuple[str, ...], *, title: str) -> str:
    """Render planner measurements: scalar table, one series per distribution,
    and min/mean/max summary rows for per-node metrics."""
    parts = []
    scalar_rows = [
        (name, name) for name in names if get_metric_def(name).kind == "scalar"
    ]
    if scalar_rows:
        parts.append(scalar_metrics_table(columns, title=title, rows=scalar_rows))
    for name in names:
        kind = get_metric_def(name).kind
        if kind == "distribution":
            parts.append(
                series_table(
                    {label: column[name] for label, column in columns.items()},
                    x_label="x",
                    title=f"{name} (distribution)",
                )
            )
        elif kind in ("per_node", "per_edge"):
            unit = "nodes" if kind == "per_node" else "edges"
            rows = []
            for label, column in columns.items():
                values = column[name]
                mean = sum(values) / len(values) if values else 0.0
                rows.append(
                    [label, len(values), min(values, default=0.0), mean, max(values, default=0.0)]
                )
            parts.append(
                render_table(
                    ["graph", unit, "min", "mean", "max"],
                    rows,
                    title=f"{name} ({kind.replace('_', '-')} summary)",
                )
            )
    return "\n\n".join(parts)


def _warn_unconverged_chain(stats: dict, *, prefix: str = "") -> None:
    """Print the visible notes for one construction's stats: edges a matching
    construction (or a targeting chain's matching seed) could not place, and
    a chain that stopped before convergence."""
    for key, what in (("missing_edges", "construction"), ("seed_missing_edges", "matching seed")):
        if stats.get(key, 0) > 0:
            print(
                f"WARNING: {prefix}{what} placed {stats[key]} edge(s) fewer than "
                "its distribution asks for",
                file=sys.stderr,
            )
    if stats.get("converged") is not False:
        return
    if "distance" in stats:
        detail = f"distance {stats['distance']:g} from the target distribution"
    else:
        detail = (
            f"attempt budget reached: accepted {stats.get('accepted_moves', '?')} "
            f"of {stats.get('target_moves', '?')} expected rewiring moves"
        )
    print(
        f"WARNING: {prefix}chain stopped before convergence "
        f"({detail} after {stats.get('attempted_moves', '?')} attempts); "
        "the output may be insufficiently randomized",
        file=sys.stderr,
    )


# --------------------------------------------------------------------------- #
# dist (dkdist)
# --------------------------------------------------------------------------- #
def dkdist_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro dist`` analysis tool."""
    parser = argparse.ArgumentParser(
        prog="repro dist",
        description="Extract the dK-distributions and scalar metrics of a graph.",
    )
    parser.add_argument("graph", help="edge-list file or registered topology name")
    parser.add_argument("--jdd-out", help="write the 2K-distribution (JDD) to this file")
    parser.add_argument(
        "--no-spectrum", action="store_true", help="skip the Laplacian eigenvalues (faster)"
    )
    _add_metrics_argument(parser)
    args = parser.parse_args(argv)
    metric_names = _parse_metric_names(args.metrics, parser)
    if metric_names is not None and args.no_spectrum:
        parser.error(
            "--no-spectrum only affects the default metric set; simply leave "
            "lambda_1 / lambda_n_1 out of --metrics instead"
        )

    graph = _load_graph(args.graph)
    series = DKSeries.from_graph(graph)

    rows = [[key, value] for key, value in series.summary().items()]
    print(render_table(["dK-series quantity", "value"], rows, title=f"dK analysis of {args.graph}"))
    print()
    if metric_names is None:
        summary = summarize(graph, compute_spectrum=not args.no_spectrum)
        print(scalar_metrics_table({"graph": summary}, title="Scalar metrics (Table 2 of the paper)"))
    else:
        measurement = MeasurementPlan(metric_names).run(graph)
        print(
            _measurement_report(
                {"graph": measurement}, metric_names, title="Selected metrics"
            )
        )

    if args.jdd_out:
        write_jdd(series.two_k.counts, args.jdd_out)
        print(f"\nJDD written to {args.jdd_out}")
    return 0


# --------------------------------------------------------------------------- #
# gen (dkgen)
# --------------------------------------------------------------------------- #
def dkgen_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro gen`` generation tool."""
    parser = argparse.ArgumentParser(
        prog="repro gen",
        description="Generate a dK-random graph from an input graph or a JDD file.",
    )
    parser.add_argument("--input", help="edge-list file or registered topology name")
    parser.add_argument("--jdd", help="JDD file (k1 k2 count lines) to generate from")
    parser.add_argument("-d", type=int, default=2, choices=(0, 1, 2, 3), help="dK level")
    parser.add_argument(
        "--method",
        default=None,
        choices=_method_choices(),
        help="construction algorithm from the generator registry "
        "(default: rewiring for graph input, pseudograph for JDD input)",
    )
    parser.add_argument("--rescale", type=int, help="rescale to this many nodes (JDD input)")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("-o", "--output", required=True, help="output edge-list file")
    args = parser.parse_args(argv)

    if bool(args.input) == bool(args.jdd):
        parser.error("exactly one of --input or --jdd must be given")

    if args.input:
        method = args.method or "rewiring"
        original = _load_graph(args.input)
        result = dk_random_graph(
            original,
            args.d,
            method=method,
            rng=args.seed,
            return_result=True,
        )
        generated = result.graph
    else:
        method = args.method or "pseudograph"
        spec = get_generator(method)
        if spec.input_kind != "distribution":
            parser.error(
                f"method '{method}' requires an original graph (--input); "
                "a JDD file only supports the distribution-input methods "
                f"({', '.join(n for n, s in available_generators().items() if s.input_kind == 'distribution')})"
            )
        if not spec.supports(2):
            parser.error(f"method '{method}' does not support d=2 (a JDD is a 2K-distribution)")
        jdd = JointDegreeDistribution(read_jdd(args.jdd))
        if args.rescale:
            jdd = rescale_jdd(jdd, args.rescale, rng=args.seed)
        result = spec.build(jdd, 2, rng=args.seed)
        generated = result.graph

    write_edge_list(generated, args.output)
    print(
        f"wrote {generated.number_of_nodes} nodes / {generated.number_of_edges} edges "
        f"to {args.output} ({result.method}, d={result.d}, {result.wall_time:.3f}s)"
    )
    _warn_unconverged_chain(result.stats, prefix=f"the {result.method} ")
    return 0


# --------------------------------------------------------------------------- #
# compare (dkcompare)
# --------------------------------------------------------------------------- #
def dkcompare_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro compare`` comparison tool."""
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description="Compare two graphs: dK distances and scalar metrics.",
    )
    parser.add_argument("graph_a", help="edge-list file or registered topology name")
    parser.add_argument("graph_b", help="edge-list file or registered topology name")
    parser.add_argument(
        "--no-spectrum", action="store_true", help="skip the Laplacian eigenvalues (faster)"
    )
    _add_metrics_argument(parser)
    args = parser.parse_args(argv)
    metric_names = _parse_metric_names(args.metrics, parser)
    if metric_names is not None and args.no_spectrum:
        parser.error(
            "--no-spectrum only affects the default metric set; simply leave "
            "lambda_1 / lambda_n_1 out of --metrics instead"
        )

    graph_a = _load_graph(args.graph_a)
    graph_b = _load_graph(args.graph_b)

    rows = []
    for d in (0, 1, 2, 3):
        rows.append([f"D_{d}", graph_dk_distance(graph_a, graph_b, d)])
    print(render_table(["dK distance", "value"], rows, title="dK distances between the graphs"))
    print()
    if metric_names is None:
        columns = {
            args.graph_a: summarize(graph_a, compute_spectrum=not args.no_spectrum),
            args.graph_b: summarize(graph_b, compute_spectrum=not args.no_spectrum),
        }
        print(scalar_metrics_table(columns, title="Scalar metrics"))
    else:
        plan = MeasurementPlan(metric_names)
        columns = {
            args.graph_a: plan.run(graph_a),
            args.graph_b: plan.run(graph_b),
        }
        print(_measurement_report(columns, metric_names, title="Selected metrics"))
    return 0


# --------------------------------------------------------------------------- #
# methods
# --------------------------------------------------------------------------- #
def methods_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro methods``: list the generator registry."""
    parser = argparse.ArgumentParser(
        prog="repro methods",
        description="List the registered dK-construction algorithms.",
    )
    parser.parse_args(argv)

    rows = []
    for name, spec in available_generators().items():
        rows.append([name, spec.levels_label(), spec.input_kind, spec.description])
    print(
        render_table(
            ["method", "d levels", "input", "description"],
            rows,
            title="Registered construction algorithms",
        )
    )
    return 0


# --------------------------------------------------------------------------- #
# run-experiment and workload: one grid command, two sets of defaults
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _GridDefaults:
    """What tells ``run-experiment`` and ``workload`` apart: default values.

    ``methods=None`` makes ``--method`` required; ``metrics=None`` measures
    the Table-2 battery; ``columns`` are the ``experiment_table`` columns
    (``None``: every scalar metric measured).
    """

    prog: str
    description: str
    title: str
    methods: tuple[str, ...] | None
    d_levels: tuple[int, ...]
    metrics: tuple[str, ...] | None
    columns: tuple[tuple[str, str], ...] | None


_EXPERIMENT = _GridDefaults(
    prog="repro run-experiment",
    description="Run a topologies x methods x d-levels x scenarios x "
    "replicates experiment grid.",
    title="Experiment",
    methods=None,
    d_levels=(2,),
    metrics=None,
    columns=EXPERIMENT_COLUMNS,
)

_WORKLOAD = _GridDefaults(
    prog="repro workload",
    description="Route uniform traffic over d=0..3 rewiring reproductions of "
    "a topology — intact and under failure/attack scenarios — and compare "
    "bottleneck load, congestion percentiles and effective throughput.",
    title="Workload",
    methods=("rewiring",),
    d_levels=(0, 1, 2, 3),
    metrics=WORKLOAD_METRICS,
    columns=None,
)


def _grid_main(defaults: _GridDefaults, argv: list[str] | None = None) -> int:
    """Execute an experiment grid and render it (``run-experiment``, ``workload``)."""
    parser = argparse.ArgumentParser(prog=defaults.prog, description=defaults.description)
    parser.add_argument(
        "--topology",
        action="append",
        required=True,
        help="edge-list file or registered topology name (repeatable)",
    )
    parser.add_argument(
        "--method",
        action="append",
        required=defaults.methods is None,
        choices=_method_choices(),
        help="construction algorithm (repeatable)",
    )
    parser.add_argument(
        "-d",
        action="append",
        type=int,
        choices=(0, 1, 2, 3),
        dest="d_levels",
        help=f"dK level (repeatable; default: {' '.join(map(str, defaults.d_levels))})",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        help="failure/attack scenario as 'kind:fraction' with kind in "
        f"{{{', '.join(SCENARIO_KINDS)}}} (e.g. 'hub_degree:0.05'), or 'none' "
        "for the intact graph (repeatable; default: no scenario dimension)",
    )
    parser.add_argument("--replicates", type=int, default=1, help="runs per grid cell")
    parser.add_argument("--seed", type=int, default=0, help="base experiment seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    parser.add_argument(
        "--spectrum", action="store_true", help="include the Laplacian eigenvalues (slow)"
    )
    parser.add_argument(
        "--distance-sources", type=int, default=None, help="sampled BFS sources for distances and routing"
    )
    parser.add_argument(
        "--dk-distances", action="store_true", help="record D_d(original, generated) per run"
    )
    parser.add_argument(
        "--no-original", action="store_true", help="skip measuring the original topologies"
    )
    _add_metrics_argument(parser, defaults.metrics)
    parser.add_argument("--json", help="write the full results document to this file")
    parser.add_argument(
        "--store",
        help="artifact-store directory: persist generated graphs, metrics and "
        "per-cell manifests (content-addressed, safe across parallel workers)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --store: skip cells already completed in the store and "
        "reuse memoized graphs/metrics (without it, everything is recomputed "
        "and the store refreshed)",
    )
    args = parser.parse_args(argv)
    metric_names = _parse_metric_names(args.metrics, parser) or defaults.metrics

    if args.resume and not args.store:
        parser.error("--resume requires --store DIR")
    if metric_names is not None and args.spectrum:
        parser.error(
            "--spectrum only affects the Table-2 metric set; add lambda_1 and "
            "lambda_n_1 to --metrics instead"
        )

    try:
        spec = ExperimentSpec(
            topologies=tuple(args.topology),
            methods=tuple(args.method or defaults.methods),
            d_levels=tuple(args.d_levels or defaults.d_levels),
            replicates=args.replicates,
            seed=args.seed,
            include_original=not args.no_original,
            metrics=metric_names,
            compute_spectrum=args.spectrum,
            distance_sources=args.distance_sources,
            dk_distances=args.dk_distances,
            scenarios=tuple(args.scenario) if args.scenario else None,
        )
        result = run_experiment(
            spec, workers=args.workers, store=args.store, resume=args.resume
        )

        cached = f", {result.cached_cells} cell(s) from store" if args.store else ""
        print(
            experiment_table(
                result,
                columns=defaults.columns,
                title=f"{defaults.title}: {len(result.records)} runs, "
                f"{result.workers} worker(s), {result.wall_time:.2f}s{cached}",
            )
        )
        for record in result.records:
            _warn_unconverged_chain(
                record.stats,
                prefix=f"{record.topology} / {record.method} "
                f"d={record.d} replicate={record.replicate}: the ",
            )
        # a comparison puts one column per method beside the original: it
        # needs a grid of at most one scenario that measured a paper scalar
        comparable = (spec.scenarios is None or len(spec.scenarios) <= 1) and any(
            name in spec.metrics for name, _ in SCALAR_ROWS
        )
        if spec.include_original and comparable:
            for topology in result.topology_labels():
                generated = [
                    record
                    for record in result.records_for(topology=topology)
                    if record.method != "original"
                ]
                if not generated:
                    continue  # every requested (method, d) cell was unsupported
                print()
                print(
                    scalar_metrics_table(
                        comparison_from_experiment(result, topology=topology).as_columns(
                            original_label="original"
                        ),
                        title=f"Scalar metrics on {topology} (replicates averaged)",
                    )
                )
        if args.json:
            Path(args.json).write_text(result.to_json())
            print(f"\nresults written to {args.json}")
    except (ExperimentError, StoreError) as error:
        raise SystemExit(str(error)) from None
    return 0


def run_experiment_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro run-experiment``: execute an experiment grid."""
    return _grid_main(_EXPERIMENT, argv)


# --------------------------------------------------------------------------- #
# rescale-gen
# --------------------------------------------------------------------------- #
def rescale_gen_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro rescale-gen``: the million-node pipeline.

    Measures a small topology, rescales its dK-1/dK-2 distribution to a
    target size, streaming-generates the rescaled graph straight into an
    on-disk memory-mapped CSR artifact (bounded memory, no SimpleGraph ever
    materialized), then measures it with sampled Table-2 metrics through the
    chunked CSR kernels.
    """
    import time

    import numpy as np

    from repro.core.extraction import dk_distribution
    from repro.generators.streaming import STREAMING_GENERATORS
    from repro.graph.mmap_io import graph_content_hash
    from repro.measure.plan import TABLE2_CORE_METRICS
    from repro.rescaling.rescale import rescale_degree_distribution
    from repro.store.keys import code_version, stable_hash
    from repro.store.memo import memoized_measure
    from repro.telemetry import sample_peak_rss

    parser = argparse.ArgumentParser(
        prog="repro rescale-gen",
        description="Rescale a topology's dK-distribution to a (much) larger "
        "size, streaming-generate the rescaled graph as a memory-mapped CSR "
        "artifact, and measure it with sampled Table-2 metrics.",
    )
    parser.add_argument(
        "--input", required=True, help="edge-list file or registered topology name"
    )
    parser.add_argument(
        "--target-n", type=int, required=True, help="node count of the rescaled graph"
    )
    parser.add_argument(
        "-d", type=int, default=2, choices=(1, 2), help="dK level to rescale (default: 2)"
    )
    parser.add_argument(
        "--method",
        default="pseudograph",
        choices=sorted({name for name, _ in STREAMING_GENERATORS}),
        help="streaming construction family (default: pseudograph)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--distance-sources",
        type=int,
        default=None,
        help="sampled BFS sources for distance metrics (exact when omitted; "
        "strongly recommended at million-node scale)",
    )
    parser.add_argument(
        "--encoding",
        default="raw",
        choices=("raw", "gap"),
        help="on-disk adjacency encoding: 'raw' memory-maps directly, 'gap' "
        "delta-encodes and compresses (smaller, decoded on load)",
    )
    parser.add_argument(
        "--out", help="write the BigGraph artifact directory to this path"
    )
    parser.add_argument(
        "--store",
        help="artifact-store directory: memoize the generated graph (biggraphs "
        "category) and its metric blocks",
    )
    parser.add_argument(
        "--no-measure", action="store_true", help="generate only, skip measurement"
    )
    _add_metrics_argument(parser)
    parser.add_argument("--json", help="write a JSON report to this file")
    args = parser.parse_args(argv)
    metric_names = _parse_metric_names(args.metrics, parser)
    if args.target_n < 1:
        parser.error("--target-n must be positive")

    original = _load_graph(args.input)
    generator = STREAMING_GENERATORS[(args.method, args.d)]

    # without --store the run memoizes into a temporary store, removed at the end
    opened = nullcontext(ArtifactStore(args.store)) if args.store else temporary_store()
    with opened as store:
        graph_key = stable_hash(
            {
                "kind": "rescale-gen",
                "code_version": code_version(),
                "source": graph_content_hash(original),
                "target_n": args.target_n,
                "d": args.d,
                "method": args.method,
                "seed": args.seed,
            }
        )
        graph = store.get_biggraph(graph_key)
        generation_seconds = None
        if graph is None:
            # one rng stream feeds rescale + generation, so the artifact is a
            # pure function of (input, target_n, d, method, seed)
            rng = np.random.default_rng(args.seed)
            started = time.perf_counter()
            if args.d == 1:
                rescaled = rescale_degree_distribution(
                    dk_distribution(original, 1), args.target_n, rng=rng
                )
            else:
                rescaled = rescale_jdd(dk_distribution(original, 2), args.target_n, rng=rng)
            graph = generator(rescaled, rng=rng, path=args.out, encoding=args.encoding)
            generation_seconds = time.perf_counter() - started
            store.put_biggraph(
                graph_key,
                graph,
                encoding=args.encoding,
                metadata={"code_version": code_version()},
            )
        rate = (
            f", {graph.m / generation_seconds:,.0f} edges/s" if generation_seconds else ""
        )
        print(
            f"rescaled {args.input} ({original.number_of_nodes} nodes) to "
            f"{graph.n:,} nodes / {graph.m:,} edges "
            f"({args.method} d={args.d}, {np.dtype(graph.indices.dtype).name} indices"
            f"{rate})"
        )
        if graph.path is not None:
            print(f"artifact: {graph.path}")

        measurement = None
        measure_seconds = None
        names = metric_names if metric_names is not None else TABLE2_CORE_METRICS
        if not args.no_measure:
            started = time.perf_counter()
            # the metric rng is its own stream, so a store-served graph measures
            # identically to a freshly generated one
            measurement = memoized_measure(
                graph,
                store,
                metrics=names,
                distance_sources=args.distance_sources,
                rng=np.random.default_rng((args.seed, 1)),
            )
            measure_seconds = time.perf_counter() - started
            print()
            print(
                _measurement_report(
                    {"rescaled": measurement},
                    names,
                    title=f"Sampled Table-2 metrics (sources="
                    f"{args.distance_sources if args.distance_sources else 'exact'})",
                )
            )

    peak_rss = sample_peak_rss()
    print(f"\npeak RSS: {peak_rss / 2**20:,.0f} MiB")

    if args.json:
        from repro.generators.registry import json_safe

        report = {
            "input": args.input,
            "source_nodes": original.number_of_nodes,
            "target_n": args.target_n,
            "d": args.d,
            "method": args.method,
            "seed": args.seed,
            "nodes": graph.n,
            "edges": graph.m,
            "index_dtype": np.dtype(graph.indices.dtype).name,
            "encoding": args.encoding,
            "content_hash": graph.content_hash,
            "artifact": None if graph.path is None else str(graph.path),
            "generation_seconds": generation_seconds,
            "measure_seconds": measure_seconds,
            "distance_sources": args.distance_sources,
            "peak_rss_bytes": peak_rss,
            "metrics": None
            if measurement is None
            else json_safe(measurement.to_jsonable()),
        }
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"report written to {args.json}")
    return 0


# --------------------------------------------------------------------------- #
# cache
# --------------------------------------------------------------------------- #
def cache_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro cache``: artifact-store maintenance."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or maintain a content-addressed artifact store.",
    )
    parser.add_argument("action", choices=("info", "gc", "clear"))
    parser.add_argument("--store", required=True, help="artifact-store directory")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (the same document GET /v1/store/info "
        "serves) instead of a table",
    )
    args = parser.parse_args(argv)

    if args.action == "clear":
        # no constructor involved, so this also resets schema-mismatched stores
        ArtifactStore.wipe(args.store)
        print(f"store at {args.store} cleared")
        return 0
    try:
        store = ArtifactStore(args.store)
        if args.action == "info":
            info = store.info_dict()
            if args.json:
                print(json.dumps(info, indent=2, sort_keys=True))
                return 0
            # flatten the per-category byte totals into their own rows
            category_bytes = info.pop("category_bytes", {})
            rows = [[key, value] for key, value in info.items()]
            rows.extend(
                [f"bytes[{category}]", total]
                for category, total in sorted(category_bytes.items())
            )
            print(render_table(["property", "value"], rows, title=f"Artifact store at {args.store}"))
        else:
            removed = store.gc()
            rows = [[category, count] for category, count in removed.items()]
            print(render_table(["category", "entries removed"], rows, title="Store garbage collection"))
    except StoreError as error:
        raise SystemExit(str(error)) from None
    return 0


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #
def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro serve``: the topology-service daemon."""
    from repro.service.app import serve_main as _serve_main

    return _serve_main(argv)


# --------------------------------------------------------------------------- #
# trace
# --------------------------------------------------------------------------- #
def trace_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro trace``: run a subcommand with tracing on."""
    import os

    from repro.telemetry.core import TRACE_ENV_VAR

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run any repro subcommand with tracing spans enabled and "
        "write a Chrome trace-event JSON file on exit.",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="trace-file destination (default: trace.json)",
    )
    parser.add_argument(
        "command",
        choices=sorted(name for name in _COMMANDS if name != "trace"),
        help="the subcommand to run under tracing",
    )
    parser.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="arguments passed through to the subcommand",
    )
    args = parser.parse_args(argv)

    enable_tracing()
    # spawned worker processes see the environment, not our module globals
    os.environ.setdefault(TRACE_ENV_VAR, "1")
    try:
        status = _COMMANDS[args.command](args.args)
    finally:
        count = write_chrome_trace(args.output)
        print(f"trace: {count} span(s) written to {args.output}", file=sys.stderr)
    return status


_COMMANDS = {
    "dist": dkdist_main,
    "dkdist": dkdist_main,
    "gen": dkgen_main,
    "dkgen": dkgen_main,
    "compare": dkcompare_main,
    "dkcompare": dkcompare_main,
    "methods": methods_main,
    "run-experiment": run_experiment_main,
    "workload": partial(_grid_main, _WORKLOAD),
    "rescale-gen": rescale_gen_main,
    "cache": cache_main,
    "serve": serve_main,
    "trace": trace_main,
}


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro.cli <command> ...``.

    A reader that closes standard output early (``| head``, ``| grep -q``)
    ends the command's output, not the command with a traceback: the
    ``BrokenPipeError`` is caught, standard output is pointed at
    ``os.devnull`` so the interpreter's shutdown flush cannot raise again,
    and the status is 0, as for a command whose whole output was read.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: python -m repro.cli "
        "{dist,gen,compare,methods,run-experiment,workload,rescale-gen,"
        "cache,serve,trace} ..."
    )
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    command, *rest = argv
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown command {command!r}\n{usage}", file=sys.stderr)
        return 2
    trace_path = maybe_enable_from_env()
    try:
        status = handler(rest)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 0
    if trace_path and command != "trace" and event_count():
        count = write_chrome_trace(trace_path)
        print(f"trace: {count} span(s) written to {trace_path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = [
    "dkdist_main",
    "dkgen_main",
    "dkcompare_main",
    "methods_main",
    "run_experiment_main",
    "rescale_gen_main",
    "cache_main",
    "trace_main",
    "main",
]
