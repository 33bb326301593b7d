"""Declarative Experiment pipeline: topologies × methods × d-levels × replicates.

The paper's evaluation protocol runs every construction algorithm over every
topology at every dK level, several times, and averages the scalar metrics.
This module makes that protocol a first-class, batch-oriented API:

* :class:`ExperimentSpec` declares the grid — topology names (or graphs, or
  edge-list paths), generator-registry method names, dK levels and a
  replicate count — plus the measurement options: an à-la-carte metric set
  (``metrics=``, evaluated by one measurement-planner run per graph; the
  default is the paper's Table-2 battery), spectrum, dK distances, keeping
  the generated graphs.
* :func:`run_experiment` (or ``spec.run()``) executes every cell of the grid,
  optionally in parallel over ``workers`` processes.  Per-cell seeds are
  derived deterministically from the spec seed and the cell coordinates, so
  the results are bit-identical regardless of worker count or scheduling.
* :class:`ExperimentResult` holds one :class:`RunRecord` per cell and renders
  to plain rows (:meth:`~ExperimentResult.to_rows`) or JSON
  (:meth:`~ExperimentResult.to_json`); ``repro.analysis.comparison`` and
  ``repro.analysis.tables`` consume it to rebuild the paper's tables.
* ``run_experiment(spec, store=...)`` persists every generated graph, metric
  block and finished cell into a content-addressed
  :class:`~repro.store.artifact_store.ArtifactStore`; with ``resume=True``
  (the default) an interrupted or repeated grid skips completed cells
  entirely — including across worker processes — and reuses memoized graphs
  and metrics for cells whose measurement options changed.

Quickstart::

    from repro.experiment import ExperimentSpec

    spec = ExperimentSpec(
        topologies=("hot_small", "skitter_like_small"),
        methods=("rewiring", "pseudograph", "matching"),
        d_levels=(2,),
        replicates=2,
        seed=1,
        include_original=True,
    )
    result = spec.run(workers=2)
    print(result.to_json())
"""

from __future__ import annotations

import itertools
import json
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.core.distance import graph_dk_distance
from repro.exceptions import ExperimentError, ExperimentInterrupted
from repro.generators.registry import get_generator, json_safe
from repro.graph.io import read_edge_list
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import bfs_histogram
from repro.measure.plan import Measurement, MeasurementPlan, is_scalar_battery
from repro.measure.registry import available_metrics
from repro.metrics.summary import ScalarMetrics
from repro.store.artifact_store import ArtifactStore
from repro.store.keys import code_version, generation_key, stable_hash
from repro.store.memo import memoized_build, memoized_measure
from repro.store.serialize import graph_content_hash
from repro.topologies.registry import available_topologies, build_topology
from repro.workloads.scenarios import Scenario, apply_scenario, scenario_label

#: Method label reserved for the un-randomized input topology itself.
ORIGINAL_METHOD = "original"


@dataclass(frozen=True)
class ExperimentCell:
    """One unit of work: (topology, method, d, replicate) plus its seed.

    ``scenario`` is the optional fault/attack transform applied to the
    generated graph before measurement (``None`` = measure it intact).
    """

    topology_index: int
    topology: str
    method: str
    d: int | None
    replicate: int
    seed: int
    scenario: Scenario | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of a generation/measurement experiment.

    Attributes
    ----------
    topologies:
        Registered topology names, edge-list file paths, or in-memory
        :class:`SimpleGraph` instances.
    methods:
        Names of construction algorithms from the generator registry.
    d_levels:
        dK levels to generate at (0..3).
    replicates:
        Independent runs per (topology, method, d) cell.
    seed:
        Base seed; every cell derives its own deterministic seed from it.
    name:
        Free-form experiment label (carried into the JSON output).
    include_original:
        Also measure each input topology itself (method ``"original"``).
    skip_unsupported:
        Silently drop (method, d) combinations the method does not support
        (e.g. ``matching`` at d = 3); when false, such combinations raise.
    metrics:
        Which metrics to measure per generated graph, à la carte (names from
        :func:`repro.measure.registry.available_metrics`; distribution
        metrics like ``distance_distribution`` and ``betweenness_by_degree``
        are allowed).  ``None`` — the default — selects the paper's full
        Table-2 scalar battery (with the Laplacian extremes iff
        ``compute_spectrum``).  An explicit empty tuple measures nothing.
        All requested metrics are evaluated by one measurement-planner run
        per graph, so shared intermediates (in particular the BFS sweep) are
        computed once regardless of how many metrics consume them.
    compute_spectrum:
        Include the Laplacian eigenvalues in the default metric set (slowest
        metric).  Ignored when an explicit ``metrics=`` is given.
    distance_sources:
        Number of sampled BFS sources for distance metrics (exact when None).
    dk_distances:
        Record ``D_d(original, generated)`` for every generated graph
        (always of the intact graph, before any scenario is applied).
    scenarios:
        Optional fault/attack scenarios applied to each generated graph
        before measurement, as a grid dimension: every entry — ``None`` (or
        ``"none"``) for the intact baseline, a ``"kind:fraction"`` label
        like ``"hub_degree:0.01"``, a ``{"kind", "fraction"}`` dict or a
        :class:`~repro.workloads.scenarios.Scenario` — multiplies the grid.
        ``None`` (the default) adds no scenario dimension at all and keeps
        cell seeds and store keys identical to a scenario-free spec.
    keep_graphs:
        Keep the generated graphs on the records (never serialized).
    generator_options:
        Per-method extra keyword arguments, e.g.
        ``{"rewiring": {"multiplier": 5.0}}``.
    shard_sources:
        Maximum BFS-source block size per worker task for the million-node
        tier.  When set together with ``workers > 1``, cells execute inline
        in the parent process while their distance sweeps fan source blocks
        of (at most) this size out across the worker pool — bounded-memory
        sharded measurement of one huge graph, instead of cell-level
        parallelism over many small ones.  The distance histogram is an
        order-independent integer sum over sources, so sharded and unsharded
        runs produce bit-identical records, so this execution knob is
        deliberately **not** part of any store cache key.
    """

    topologies: Sequence[Any]
    methods: Sequence[str]
    d_levels: Sequence[int] = (2,)
    replicates: int = 1
    seed: int = 0
    name: str = "experiment"
    include_original: bool = False
    skip_unsupported: bool = True
    metrics: Sequence[str] | None = None
    compute_spectrum: bool = False
    distance_sources: int | None = None
    dk_distances: bool = False
    scenarios: Sequence[Any] | None = None
    keep_graphs: bool = False
    generator_options: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    shard_sources: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "d_levels", tuple(self.d_levels))
        object.__setattr__(
            self,
            "generator_options",
            {method: dict(options) for method, options in self.generator_options.items()},
        )
        if not self.topologies:
            raise ExperimentError("an experiment needs at least one topology")
        if not self.methods and not self.include_original:
            raise ExperimentError("an experiment needs at least one method")
        if self.replicates < 1:
            raise ExperimentError(f"replicates must be >= 1, got {self.replicates}")
        for d in self.d_levels:
            if d not in (0, 1, 2, 3):
                raise ExperimentError(f"d levels must be in 0..3, got {d}")
        if self.include_original and ORIGINAL_METHOD in self.methods:
            raise ExperimentError(
                f"method name {ORIGINAL_METHOD!r} is reserved for include_original"
            )
        if self.metrics is None:
            resolved = MeasurementPlan.table2(
                compute_spectrum=self.compute_spectrum
            ).metrics
        else:
            resolved = tuple(dict.fromkeys(self.metrics))
            known = available_metrics()
            unknown = [name for name in resolved if name not in known]
            if unknown:
                raise ExperimentError(
                    f"unknown metric(s) {', '.join(map(repr, unknown))}; "
                    f"available: {', '.join(known)}"
                )
        object.__setattr__(self, "metrics", resolved)
        if self.scenarios is not None:
            try:
                parsed = tuple(
                    dict.fromkeys(Scenario.parse(entry) for entry in self.scenarios)
                )
            except (ValueError, TypeError, KeyError) as error:
                raise ExperimentError(f"bad scenario: {error}") from error
            if not parsed:
                raise ExperimentError(
                    "scenarios=() is empty; use scenarios=None for no scenario dimension"
                )
            object.__setattr__(self, "scenarios", parsed)
        if self.shard_sources is not None and self.shard_sources < 1:
            raise ExperimentError(
                f"shard_sources must be >= 1, got {self.shard_sources}"
            )

    def topology_label(self, index: int) -> str:
        """Stable label of the ``index``-th topology entry."""
        entry = self.topologies[index]
        if isinstance(entry, SimpleGraph) or getattr(entry, "is_biggraph", False):
            return f"graph-{index}"
        return str(entry)

    def cells(self) -> list[ExperimentCell]:
        """Expand the grid into the deterministic list of work cells.

        Scenario cells deliberately share the seed of their baseline cell:
        every scenario of one (topology, method, d, replicate) coordinate
        degrades the *same* generated graph, so a scenario sweep compares
        like with like — and generation is memoized once per coordinate, not
        once per scenario.
        """
        scenario_axis: tuple[Scenario | None, ...] = (
            (None,) if self.scenarios is None else tuple(self.scenarios)
        )
        cells: list[ExperimentCell] = []
        for index in range(len(self.topologies)):
            label = self.topology_label(index)
            if self.include_original:
                for scenario in scenario_axis:
                    cells.append(
                        ExperimentCell(
                            topology_index=index,
                            topology=label,
                            method=ORIGINAL_METHOD,
                            d=None,
                            replicate=0,
                            seed=_derive_seed(self.seed, index, ORIGINAL_METHOD, None, 0),
                            scenario=scenario,
                        )
                    )
            for method in self.methods:
                spec = get_generator(method)
                for d in self.d_levels:
                    if not spec.supports(d):
                        if self.skip_unsupported:
                            continue
                        spec.check_supports(d)
                    for scenario in scenario_axis:
                        for replicate in range(self.replicates):
                            cells.append(
                                ExperimentCell(
                                    topology_index=index,
                                    topology=label,
                                    method=method,
                                    d=d,
                                    replicate=replicate,
                                    seed=_derive_seed(self.seed, index, method, d, replicate),
                                    scenario=scenario,
                                )
                            )
        return cells

    def run(
        self,
        *,
        workers: int = 1,
        store: "ArtifactStore | str | Path | None" = None,
        resume: bool = True,
        cancel: Any | None = None,
        on_cell: Callable[[int, int], None] | None = None,
    ) -> "ExperimentResult":
        """Execute the experiment; see :func:`run_experiment`."""
        return run_experiment(
            self, workers=workers, store=store, resume=resume, cancel=cancel, on_cell=on_cell
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description of the spec (graphs become labels)."""
        return {
            "name": self.name,
            "topologies": [self.topology_label(i) for i in range(len(self.topologies))],
            "methods": list(self.methods),
            "d_levels": list(self.d_levels),
            "replicates": self.replicates,
            "seed": self.seed,
            "include_original": self.include_original,
            "metrics": list(self.metrics),
            "compute_spectrum": self.compute_spectrum,
            "distance_sources": self.distance_sources,
            "dk_distances": self.dk_distances,
            "scenarios": None
            if self.scenarios is None
            else [scenario_label(scenario) for scenario in self.scenarios],
            "generator_options": {m: dict(o) for m, o in self.generator_options.items()},
            "shard_sources": self.shard_sources,
        }


@dataclass
class RunRecord:
    """Measured outcome of one experiment cell.

    ``metrics`` carries the classic :class:`ScalarMetrics` block when the
    cell was measured with the full Table-2 battery (the default);
    ``measured`` carries the :class:`~repro.measure.plan.Measurement` of a
    custom ``ExperimentSpec.metrics=`` subset (which may include
    distribution metrics).  At most one of the two is set.
    """

    topology: str
    method: str
    d: int | None
    replicate: int
    seed: int
    nodes: int
    edges: int
    wall_time: float
    metrics: ScalarMetrics | None = None
    measured: Measurement | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    dk_distance: float | None = None
    scenario: str | None = None
    graph: SimpleGraph | None = None
    #: Worker-side telemetry shipped back with the record (span events +
    #: metric snapshot); absorbed into the parent process by
    #: :func:`run_experiment` and nulled out.  Never serialized to rows.
    telemetry: dict[str, Any] | None = None

    def metric_value(self, name: str, default: Any = None) -> Any:
        """The measured value of one metric, whichever block holds it."""
        if self.metrics is not None:
            return getattr(self.metrics, name, default)
        if self.measured is not None:
            return self.measured.get(name, default)
        return default

    def to_row(self, *, include_timing: bool = True) -> dict[str, Any]:
        """Flat, JSON-serializable view of the record (drops the graph).

        ``include_timing=False`` omits the wall time, leaving only the
        deterministic fields — convenient for reproducibility checks.
        """
        row = {
            "topology": self.topology,
            "method": self.method,
            "d": self.d,
            "replicate": self.replicate,
            "seed": self.seed,
            "nodes": self.nodes,
            "edges": self.edges,
            "dk_distance": None if self.dk_distance is None else float(self.dk_distance),
            "stats": json_safe(self.stats),
            "metrics": None if self.metrics is None else json_safe(self.metrics.as_dict()),
        }
        if self.scenario is not None:
            row["scenario"] = self.scenario
        if self.measured is not None:
            row["measured"] = json_safe(self.measured.to_jsonable())
        if include_timing:
            row["wall_time"] = float(self.wall_time)
        return row


@dataclass
class ExperimentResult:
    """All records of an executed experiment plus execution metadata."""

    spec: ExperimentSpec
    records: list[RunRecord]
    workers: int
    wall_time: float
    cached_cells: int = 0

    def records_for(
        self,
        *,
        topology: str | None = None,
        method: str | None = None,
        d: int | None = None,
    ) -> list[RunRecord]:
        """Records matching every given coordinate."""
        return [
            record
            for record in self.records
            if (topology is None or record.topology == topology)
            and (method is None or record.method == method)
            and (d is None or record.d == d)
        ]

    def topology_labels(self) -> list[str]:
        """Distinct topology labels, in grid order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.topology, None)
        return list(seen)

    def original_record(self, topology: str) -> RunRecord:
        """The ``method="original"`` record of ``topology``."""
        for record in self.records:
            if record.topology == topology and record.method == ORIGINAL_METHOD:
                return record
        raise ExperimentError(
            f"no original record for topology {topology!r} "
            "(run the experiment with include_original=True)"
        )

    def to_rows(self, *, include_timing: bool = True) -> list[dict[str, Any]]:
        """One flat JSON-serializable dict per record."""
        return [record.to_row(include_timing=include_timing) for record in self.records]

    def to_json(self, *, indent: int | None = 2) -> str:
        """Full JSON document: spec, execution metadata and all records."""
        return json.dumps(
            {
                "spec": self.spec.to_dict(),
                "workers": self.workers,
                "wall_time": float(self.wall_time),
                "cached_cells": self.cached_cells,
                "records": self.to_rows(),
            },
            indent=indent,
        )


def _derive_seed(
    base: int, topology_index: int, method: str, d: int | None, replicate: int
) -> int:
    """Deterministic per-cell seed, independent of worker count and order."""
    entropy = (
        int(base),
        topology_index,
        zlib.crc32(method.encode("utf-8")),
        0 if d is None else d + 1,
        replicate,
    )
    state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0]
    return int(state >> 1)  # keep it in the positive int64 range


#: Per-process cache of topologies resolved from registered names or paths.
_TOPOLOGY_CACHE: dict[str, SimpleGraph] = {}


def _topology_content_hash(graph: Any) -> str:
    """Content hash of a topology: text canonicalization for SimpleGraph,
    the streamed CSR hash for a (possibly out-of-core) BigGraph."""
    if getattr(graph, "is_biggraph", False):
        from repro.graph.mmap_io import biggraph_content_hash

        return graph.content_hash or biggraph_content_hash(graph.indptr, graph.indices)
    return graph_content_hash(graph)


def _resolve_topology(entry: Any) -> SimpleGraph:
    """Materialize a topology entry: graph, registered name, or edge-list path."""
    if isinstance(entry, SimpleGraph) or getattr(entry, "is_biggraph", False):
        return entry
    key = str(entry)
    cached = _TOPOLOGY_CACHE.get(key)
    if cached is not None:
        return cached
    if key in available_topologies():
        graph = build_topology(key)
    elif Path(key).exists():
        graph = read_edge_list(key)
    else:
        raise ExperimentError(
            f"{key!r} is neither a registered topology "
            f"({', '.join(available_topologies())}) nor an existing edge-list file"
        )
    _TOPOLOGY_CACHE[key] = graph
    return graph


#: Spec and store installed into each worker process once (see
#: ``_init_worker``), so neither is re-pickled for every cell.
_WORKER_SPEC: ExperimentSpec | None = None
_WORKER_STORE: ArtifactStore | None = None
_WORKER_READ_CACHE: bool = True


def _init_worker(
    spec: ExperimentSpec,
    store: ArtifactStore | None,
    read_cache: bool,
    trace: bool = False,
) -> None:
    global _WORKER_SPEC, _WORKER_STORE, _WORKER_READ_CACHE
    _WORKER_SPEC = spec
    _WORKER_STORE = store
    _WORKER_READ_CACHE = read_cache
    if trace:
        telemetry.enable_tracing()
    # On fork start methods the worker inherits the parent's span buffer and
    # metric counts; both must be dropped or they would be shipped back and
    # double-counted when the parent absorbs this worker's telemetry.
    telemetry.take_events()
    telemetry.reset_metrics()


def _execute_cell_in_worker(
    task: tuple[ExperimentCell, str | None, str | None],
) -> RunRecord:
    cell, cell_key, topology_hash = task
    record = _execute_cell(
        _WORKER_SPEC,
        cell,
        store=_WORKER_STORE,
        cell_key=cell_key,
        topology_hash=topology_hash,
        read_cache=_WORKER_READ_CACHE,
    )
    # ship this cell's telemetry to the parent and reset, so the next cell
    # on this worker starts from zero (each record carries only its own)
    record.telemetry = {
        "events": telemetry.take_events() if telemetry.tracing_enabled() else [],
        "metrics": telemetry.metrics_snapshot(reset=True),
    }
    return record


def _absorb_worker_telemetry(record: RunRecord) -> None:
    """Fold a worker record's shipped telemetry into this process's buffers."""
    payload = record.telemetry
    if payload:
        telemetry.add_events(payload.get("events") or [])
        metrics = payload.get("metrics")
        if metrics:
            telemetry.merge_metrics(metrics)
    record.telemetry = None


#: Worker-side cache of materialized sweep targets, keyed by the parent's
#: per-graph token (see :func:`_make_sweep_executor`); bounded so a grid of
#: many distinct big graphs cannot pile memory-maps up in every worker.
_SWEEP_TARGET_CACHE: dict[int, Any] = {}
_SWEEP_TARGET_CACHE_MAX = 4


def _sweep_payload(graph: Any) -> tuple | None:
    """A picklable recipe from which a worker rebuilds the sweep target.

    BigGraphs ship as their on-disk artifact path (the worker memory-maps the
    same bytes; a giant-component view ships its *source* path and is
    re-derived deterministically), in-memory :class:`SimpleGraph` targets ship
    as their canonical edge list.  ``None`` means the target is not shippable
    (a BigGraph that was never persisted) and the sweep runs in-process.
    """
    if getattr(graph, "is_biggraph", False):
        if graph.path is not None:
            return ("biggraph", str(graph.path))
        if graph.derived == "gcc" and graph.source_path is not None:
            return ("biggraph_gcc", str(graph.source_path))
        return None
    return ("edges", graph.number_of_nodes, tuple(graph.edges()))


def _materialize_sweep_target(payload: tuple) -> Any:
    kind = payload[0]
    if kind == "edges":
        return SimpleGraph(payload[1], edges=payload[2])
    from repro.kernels.biggraph import BigGraph, biggraph_giant_component

    if kind == "biggraph":
        return BigGraph.load(payload[1])
    if kind == "biggraph_gcc":
        return biggraph_giant_component(BigGraph.load(payload[1]))
    raise ExperimentError(f"unknown sweep payload kind {kind!r}")


def _sweep_block_in_worker(
    task: tuple[int, tuple, tuple[int, ...]],
) -> tuple[dict[int, int], dict[str, Any]]:
    """Worker task of a sharded sweep: BFS one block of sources.

    Returns the block's distance histogram plus this worker's telemetry
    delta, which the parent folds in (mirroring ``_execute_cell_in_worker``).
    """
    token, payload, sources = task
    graph = _SWEEP_TARGET_CACHE.get(token)
    if graph is None:
        if len(_SWEEP_TARGET_CACHE) >= _SWEEP_TARGET_CACHE_MAX:
            _SWEEP_TARGET_CACHE.clear()
        graph = _materialize_sweep_target(payload)
        _SWEEP_TARGET_CACHE[token] = graph
    histogram = bfs_histogram(graph, list(sources))
    return histogram, {
        "events": telemetry.take_events() if telemetry.tracing_enabled() else [],
        "metrics": telemetry.metrics_snapshot(reset=True),
    }


def _make_sweep_executor(
    pool: ProcessPoolExecutor, block: int
) -> Callable[[Any, Sequence[int]], dict[int, int] | None]:
    """A :func:`~repro.measure.intermediates.shared_sweep` executor that fans
    source blocks of (at most) ``block`` sources out across ``pool``.

    Each distinct sweep target gets a token stashed on its measure cache, so
    every worker materializes it once and serves later blocks from its local
    cache.  Block histograms merge by integer addition, which is
    bit-identical to the unsharded sweep for any block size or worker count.
    """
    tokens = itertools.count(1)

    def executor(graph: Any, source_nodes: Sequence[int]) -> dict[int, int] | None:
        if len(source_nodes) <= block:
            return None  # one block: not worth the shipping overhead
        payload = _sweep_payload(graph)
        if payload is None:
            return None
        cache = graph._measure_cache
        if cache is None:
            cache = {}
            graph._measure_cache = cache
        token = cache.get("sweep-shard-token")
        if token is None:
            token = next(tokens)
            cache["sweep-shard-token"] = token
        futures = [
            pool.submit(
                _sweep_block_in_worker,
                (token, payload, tuple(source_nodes[start : start + block])),
            )
            for start in range(0, len(source_nodes), block)
        ]
        merged: dict[int, int] = {}
        for future in futures:
            histogram, shipped = future.result()
            for distance, count in histogram.items():
                merged[distance] = merged.get(distance, 0) + count
            telemetry.add_events(shipped.get("events") or [])
            metrics = shipped.get("metrics")
            if metrics:
                telemetry.merge_metrics(metrics)
        telemetry.counter_inc("repro_sweep_shards_total", len(futures))
        return merged

    return executor


def _cell_cache_key(spec: ExperimentSpec, cell: ExperimentCell, topology_hash: str) -> str:
    """Store key of one finished cell.

    Content-addressed: the topology enters through its content hash (not its
    label), and every option that changes the cell's measured output is part
    of the key — so is the code version, which invalidates old entries.
    """
    return stable_hash(
        {
            "kind": "experiment-cell",
            "code_version": code_version(),
            "topology": topology_hash,
            "method": cell.method,
            "d": cell.d,
            "replicate": cell.replicate,
            "seed": cell.seed,
            "options": spec.generator_options.get(cell.method, {}),
            "metrics": sorted(spec.metrics),
            "distance_sources": spec.distance_sources,
            "dk_distances": spec.dk_distances,
            # folded in only when set, so scenario-free keys stay unchanged
            **(
                {"scenario": cell.scenario.to_jsonable()}
                if cell.scenario is not None
                else {}
            ),
        }
    )


def _record_from_cell_manifest(
    spec: ExperimentSpec,
    cell: ExperimentCell,
    payload: dict[str, Any],
    store: ArtifactStore,
    original: SimpleGraph,
) -> RunRecord | None:
    """Rebuild a :class:`RunRecord` from a stored cell manifest.

    Returns ``None`` when the manifest cannot satisfy the spec (e.g.
    ``keep_graphs=True`` but the graph artifact was garbage-collected); the
    caller then recomputes the cell.
    """
    row = payload.get("row")
    if not isinstance(row, dict):
        return None
    metrics_row = row.get("metrics")
    measured_row = row.get("measured")
    if spec.metrics:
        if is_scalar_battery(spec.metrics):
            if metrics_row is None:
                return None
        elif measured_row is None:
            return None
    graph = None
    if spec.keep_graphs:
        if cell.method == ORIGINAL_METHOD:
            graph = original
        else:
            graph_key = payload.get("graph_key")
            cached = store.get_graph(graph_key) if graph_key else None
            if cached is None:
                return None
            graph = cached[0]
        if cell.scenario is not None:
            # the store holds the intact generated graph; the degraded copy
            # is re-derived deterministically (same rng stream as execution)
            graph, _ = apply_scenario(
                graph, cell.scenario, rng=np.random.default_rng((cell.seed, 2))
            )
    measured = None
    if measured_row is not None:
        restored = Measurement.from_jsonable(measured_row)
        # the cell key canonicalizes the metric set by sorting, so a spec
        # listing the same metrics in another order matches this manifest:
        # re-order to the *requesting* spec so restored and freshly computed
        # records agree (e.g. for averaging)
        if spec.metrics and set(restored.metrics) == set(spec.metrics):
            restored = Measurement({name: restored[name] for name in spec.metrics})
        measured = restored
    return RunRecord(
        topology=cell.topology,
        method=cell.method,
        d=cell.d,
        replicate=cell.replicate,
        seed=cell.seed,
        nodes=int(row["nodes"]),
        edges=int(row["edges"]),
        wall_time=float(row.get("wall_time", 0.0)),
        metrics=None if metrics_row is None else ScalarMetrics(**metrics_row),
        measured=measured,
        stats=dict(row.get("stats", {})),
        dk_distance=row.get("dk_distance"),
        scenario=row.get("scenario", scenario_label(cell.scenario) if cell.scenario else None),
        graph=graph,
    )


def _execute_cell(
    spec: ExperimentSpec,
    cell: ExperimentCell,
    *,
    store: ArtifactStore | None = None,
    cell_key: str | None = None,
    topology_hash: str | None = None,
    read_cache: bool = True,
    sweep_executor: Callable[[Any, Sequence[int]], dict[int, int] | None] | None = None,
) -> RunRecord:
    """Run one cell: build the graph, measure it, return the record.

    With a ``store``, generation and metrics are memoized at their own
    content keys and the finished record is written as a cell manifest, so
    another process (or a later run) can skip this cell entirely.
    """
    with telemetry.span(
        "experiment.cell",
        topology=cell.topology,
        method=cell.method,
        d=cell.d,
        replicate=cell.replicate,
        cache="miss",
    ) as sp:
        telemetry.counter_inc("repro_experiment_cells_total", outcome="computed")
        record = _execute_cell_impl(
            spec,
            cell,
            store=store,
            cell_key=cell_key,
            topology_hash=topology_hash,
            read_cache=read_cache,
            sweep_executor=sweep_executor,
        )
        # lifetime high-water mark of this process, sampled after every cell
        # so the repro_peak_rss_bytes gauge tracks the heaviest cell so far
        sp.set(n=record.nodes, m=record.edges, peak_rss=telemetry.sample_peak_rss())
        return record


def _execute_cell_impl(
    spec: ExperimentSpec,
    cell: ExperimentCell,
    *,
    store: ArtifactStore | None = None,
    cell_key: str | None = None,
    topology_hash: str | None = None,
    read_cache: bool = True,
    sweep_executor: Callable[[Any, Sequence[int]], dict[int, int] | None] | None = None,
) -> RunRecord:
    original = _resolve_topology(spec.topologies[cell.topology_index])
    if store is not None and topology_hash is None:
        topology_hash = _topology_content_hash(original)

    graph_key = None
    if cell.method == ORIGINAL_METHOD:
        graph = original
        graph_hash = topology_hash
        stats: dict[str, Any] = {}
        wall_time = 0.0
    else:
        generator = get_generator(cell.method)
        options = spec.generator_options.get(cell.method, {})
        if store is not None:
            generated = memoized_build(
                generator,
                original,
                cell.d,
                seed=cell.seed,
                store=store,
                options=options,
                source_hash=topology_hash,
                read=read_cache,
            )
            graph_key = generation_key(cell.method, options, cell.seed, topology_hash, d=cell.d)
        else:
            with telemetry.span(
                "generate", method=cell.method, d=cell.d, seed=cell.seed
            ):
                generated = generator.build(
                    original,
                    cell.d,
                    rng=np.random.default_rng(cell.seed),
                    **options,
                )
        graph = generated.graph
        graph_hash = generated.content_hash  # set iff a store was involved
        stats = generated.stats
        wall_time = generated.wall_time

    intact = graph  # pre-scenario graph (dK distances are measured on this)
    if cell.scenario is not None:
        # degrade a copy; the intact graph (and its store entry) is untouched,
        # so every scenario of this coordinate shares one generation.  The
        # degraded graph gets its own content hash, so its metric entries
        # memoize independently of the baseline's.
        graph, scenario_stats = apply_scenario(
            graph, cell.scenario, rng=np.random.default_rng((cell.seed, 2))
        )
        stats = {**stats, "scenario": scenario_stats}
        graph_hash = graph_content_hash(graph) if store is not None else None

    metrics = None
    measured = None
    if spec.metrics:
        # metrics draw from their own seed-derived stream, so a cell whose
        # generation step was served from the store measures identically to
        # one that generated from scratch
        measurement = memoized_measure(
            graph,
            store,
            metrics=spec.metrics,
            graph_hash=graph_hash,
            distance_sources=spec.distance_sources,
            rng=np.random.default_rng((cell.seed, 1)),
            read=read_cache,
            sweep_executor=sweep_executor,
        )
        if is_scalar_battery(spec.metrics):
            metrics = measurement.scalar_metrics()
        else:
            measured = measurement
    dk_dist = None
    if spec.dk_distances and cell.method != ORIGINAL_METHOD:
        dk_dist = float(graph_dk_distance(original, intact, cell.d))

    record = RunRecord(
        topology=cell.topology,
        method=cell.method,
        d=cell.d,
        replicate=cell.replicate,
        seed=cell.seed,
        nodes=graph.number_of_nodes,
        edges=graph.number_of_edges,
        wall_time=wall_time,
        metrics=metrics,
        measured=measured,
        stats=stats,
        dk_distance=dk_dist,
        scenario=scenario_label(cell.scenario) if cell.scenario is not None else None,
        graph=graph if spec.keep_graphs else None,
    )
    if store is not None and cell_key is not None:
        store.put_cell(
            cell_key,
            {"code_version": code_version(), "graph_key": graph_key, "row": record.to_row()},
        )
    return record


def run_experiment(
    spec: ExperimentSpec,
    *,
    workers: int = 1,
    store: ArtifactStore | str | Path | None = None,
    resume: bool = True,
    cancel: Any | None = None,
    on_cell: Callable[[int, int], None] | None = None,
) -> ExperimentResult:
    """Execute every cell of ``spec``, optionally across worker processes.

    ``workers=1`` runs inline; ``workers>1`` fans the cells out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` (the spec is shipped to
    each worker once, at pool start-up).  Results are returned in grid order
    and are deterministic for a fixed spec regardless of the worker count.
    With ``spec.shard_sources`` set, ``workers>1`` parallelizes *within* each
    cell instead: cells execute inline while the pool BFS-sweeps blocks of
    sources of one (possibly huge, memory-mapped) graph — the million-node
    sharding mode, bit-identical to the unsharded run.

    ``store`` (an :class:`~repro.store.artifact_store.ArtifactStore` or a
    directory path) persists generated graphs, metric blocks and per-cell
    manifests.  With ``resume=True`` (the default) completed cells are
    loaded from the store instead of re-executed — a repeated identical grid
    performs zero generator calls — and partially matching work (the same
    generated graph under different measurement options, the same graph
    measured in another grid) is reused at the graph/metric level.
    ``resume=False`` recomputes everything and refreshes the store.

    ``cancel`` is an optional :class:`threading.Event`-like object (anything
    with ``is_set()``) polled between cells: when it becomes set, no further
    cells start, in-flight worker cells *finish* (and write their manifests),
    queued ones are abandoned cleanly, and
    :class:`~repro.exceptions.ExperimentInterrupted` is raised carrying the
    partial :class:`ExperimentResult`.  A :class:`KeyboardInterrupt` is
    handled the same way (``reason="interrupt"``) instead of leaving pool
    workers mid-cell; either way a store-backed grid stays resumable.
    ``on_cell(done, total)`` is invoked after the resume scan and after each
    completed cell — the progress feed of the topology service's job manager.

    .. note::
       Worker processes see generators registered at import time.  On
       platforms whose multiprocessing start method is ``spawn`` or
       ``forkserver``, a custom generator registered dynamically in the
       parent process is not visible to workers — put the
       ``register_generator`` call in an imported module, or run with
       ``workers=1``.
    """
    with telemetry.span(
        "experiment.run", name=spec.name, workers=max(1, workers)
    ) as sp:
        result = _run_experiment(
            spec,
            workers=workers,
            store=store,
            resume=resume,
            cancel=cancel,
            on_cell=on_cell,
        )
        sp.set(cells=len(result.records), cached_cells=result.cached_cells)
        return result


def _run_experiment(
    spec: ExperimentSpec,
    *,
    workers: int,
    store: ArtifactStore | str | Path | None,
    resume: bool,
    cancel: Any | None,
    on_cell: Callable[[int, int], None] | None,
) -> ExperimentResult:
    for method in spec.methods:
        get_generator(method)  # fail fast on unknown methods
    cells = spec.cells()
    if not cells:
        raise ExperimentError(
            "the experiment grid is empty (no method supports the requested d levels)"
        )
    store = ArtifactStore.coerce(store)
    start = time.perf_counter()

    records: list[RunRecord | None] = [None] * len(cells)
    pending: list[tuple[int, tuple[ExperimentCell, str | None, str | None]]] = []
    if store is None:
        pending = [(index, (cell, None, None)) for index, cell in enumerate(cells)]
    else:
        topology_hashes: dict[int, str] = {}
        originals: dict[int, SimpleGraph] = {}
        for index, cell in enumerate(cells):
            topo_hash = topology_hashes.get(cell.topology_index)
            if topo_hash is None:
                originals[cell.topology_index] = _resolve_topology(
                    spec.topologies[cell.topology_index]
                )
                topo_hash = _topology_content_hash(originals[cell.topology_index])
                topology_hashes[cell.topology_index] = topo_hash
            cell_key = _cell_cache_key(spec, cell, topo_hash)
            if resume:
                manifest = store.get_cell(cell_key)
                if manifest is not None:
                    # a cached cell still gets its span (with cache="hit"), so
                    # a warm rerun's trace shows where every cell came from
                    with telemetry.span(
                        "experiment.cell",
                        topology=cell.topology,
                        method=cell.method,
                        d=cell.d,
                        replicate=cell.replicate,
                        cache="hit",
                    ) as cell_span:
                        record = _record_from_cell_manifest(
                            spec, cell, manifest, store, originals[cell.topology_index]
                        )
                        if record is not None:
                            records[index] = record
                            telemetry.counter_inc(
                                "repro_experiment_cells_total", outcome="cached"
                            )
                            continue
                        cell_span.set(cache="stale")
            pending.append((index, (cell, cell_key, topo_hash)))

    cached_cells = len(cells) - len(pending)
    completed = cached_cells
    if on_cell is not None:
        on_cell(completed, len(cells))

    def _interrupted(reason: str) -> ExperimentInterrupted:
        finished = [record for record in records if record is not None]
        partial = ExperimentResult(
            spec=spec,
            records=finished,
            workers=max(1, workers),
            wall_time=time.perf_counter() - start,
            cached_cells=cached_cells,
        )
        hint = (
            "; completed cells are in the store, re-run with resume=True to continue"
            if store is not None
            else ""
        )
        return ExperimentInterrupted(
            f"experiment {reason} after {len(finished)} of {len(cells)} cells{hint}",
            result=partial,
            reason=reason,
        )

    if pending:
        if workers <= 1:
            try:
                for index, (cell, cell_key, topo_hash) in pending:
                    if cancel is not None and cancel.is_set():
                        raise _interrupted("cancelled")
                    records[index] = _execute_cell(
                        spec,
                        cell,
                        store=store,
                        cell_key=cell_key,
                        topology_hash=topo_hash,
                        read_cache=resume,
                    )
                    completed += 1
                    if on_cell is not None:
                        on_cell(completed, len(cells))
            except KeyboardInterrupt:
                # the in-flight cell is abandoned (no manifest written), but
                # everything it memoized at the graph/metric level is kept
                raise _interrupted("interrupt") from None
        elif spec.shard_sources is not None:
            # million-node mode: cells run inline (one huge graph rarely fits
            # in several workers at once), and the pool parallelizes *within*
            # each cell by sharding the BFS sweep's source blocks
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(spec, store, resume, telemetry.tracing_enabled()),
            ) as pool:
                sweep_executor = _make_sweep_executor(pool, spec.shard_sources)
                try:
                    for index, (cell, cell_key, topo_hash) in pending:
                        if cancel is not None and cancel.is_set():
                            raise _interrupted("cancelled")
                        records[index] = _execute_cell(
                            spec,
                            cell,
                            store=store,
                            cell_key=cell_key,
                            topology_hash=topo_hash,
                            read_cache=resume,
                            sweep_executor=sweep_executor,
                        )
                        completed += 1
                        if on_cell is not None:
                            on_cell(completed, len(cells))
                except KeyboardInterrupt:
                    raise _interrupted("interrupt") from None
        else:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(spec, store, resume, telemetry.tracing_enabled()),
            ) as executor:
                future_map = {
                    executor.submit(_execute_cell_in_worker, task): index
                    for index, task in pending
                }
                reason = None
                try:
                    not_done = set(future_map)
                    while not_done:
                        done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                        for future in done:
                            record = future.result()
                            _absorb_worker_telemetry(record)
                            records[future_map[future]] = record
                            completed += 1
                            if on_cell is not None:
                                on_cell(completed, len(cells))
                        if cancel is not None and cancel.is_set() and not_done:
                            reason = "cancelled"
                            break
                except KeyboardInterrupt:
                    reason = "interrupt"
                if reason is not None:
                    _drain_after_interrupt(future_map, records)
                    raise _interrupted(reason) from None

    wall_time = time.perf_counter() - start
    return ExperimentResult(
        spec=spec,
        records=records,  # type: ignore[arg-type]  # every slot is filled above
        workers=max(1, workers),
        wall_time=wall_time,
        cached_cells=cached_cells,
    )


def _drain_after_interrupt(future_map: Mapping[Any, int], records: list) -> None:
    """Wind the pool down cleanly after a cancel/interrupt.

    Queued cells are cancelled before they start; cells already running in a
    worker are allowed to *finish* — they write their store manifests, so the
    grid resumes past them — and their records are kept.
    """
    for future in future_map:
        future.cancel()  # only queued futures can be cancelled; that is the point
    for future, index in future_map.items():
        if future.cancelled():
            continue
        try:
            record = future.result()  # blocks until the running cell finishes
        except BaseException:
            continue  # the worker died mid-cell: that cell stays incomplete
        _absorb_worker_telemetry(record)
        if records[index] is None:
            records[index] = record


__all__ = [
    "ORIGINAL_METHOD",
    "ExperimentCell",
    "ExperimentSpec",
    "RunRecord",
    "ExperimentResult",
    "run_experiment",
]
