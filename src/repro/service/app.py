"""Topology-as-a-service: the asyncio HTTP/JSON daemon.

A long-running server in front of the content-addressed artifact store —
the swh-graph pattern of a compressed graph plus a thin always-on server,
except ours *computes*: generation and measurement requests run through the
same :func:`~repro.store.memo.memoized_build` / ``memoized_measure``
facades the batch pipeline uses, so the store is a shared cache between the
CLI, experiment grids and every service client.

Endpoints (all JSON):

* ``POST /v1/graphs`` — generate a dK-graph via the generator registry.
* ``POST /v1/measure`` — measure a metric subset via the measurement
  planner, optionally after degrading the graph with a failure/attack
  scenario (``"scenario": "hub_degree:0.05"``); degraded graphs are kept in
  a small in-process cache so repeated scenario requests skip the
  transform.
* ``POST /v1/workload`` — the same handler, whose metric set defaults to
  the routing-load/congestion battery (``WORKLOAD_METRICS``).
* ``POST /v1/experiments`` / ``GET /v1/experiments[/{id}]`` /
  ``POST /v1/experiments/{id}/cancel`` — background experiment-grid jobs
  with progress and cooperative cancellation (see
  :mod:`repro.service.jobs`).
* ``GET /v1/store/info`` — :meth:`ArtifactStore.info_dict` passthrough.
* ``GET /v1/healthz`` / ``GET /v1/stats`` — liveness and in-process
  telemetry (request counts, cache hit ratio, latency percentiles).
* ``GET /v1/metrics`` — the Prometheus text exposition: the process-global
  families (store, memo, experiment cells, peak RSS) followed by this
  service's own.

Each :class:`TopologyService` counts its requests, cache outcomes,
admission rejections, deadline expiries and coalescer leaders/joiners
once, in its own :class:`~repro.telemetry.metrics.MetricsRegistry`
(``repro_requests_total{route,status}``,
``repro_request_latency_seconds{route}``,
``repro_service_cache_total{outcome}``, ``repro_service_rejected_total``,
``repro_service_timeouts_total``, ``repro_coalescer_started_total`` and
``repro_coalescer_joined_total``); ``GET /v1/stats`` and ``GET /v1/metrics``
both render from it, so two services in one process never read each
other's counts.  An unmatched request is labelled ``"<METHOD> <unmatched>"``
rather than with its path, so clients cannot grow the label set.

Resource discipline (the paper-adjacent server-side management): compute
requests funnel through a **single-flight coalescing layer**
(:mod:`repro.service.coalesce`) — concurrent requests for the same
``(spec, seed, metrics)`` key await one computation — then a bounded worker
pool with queue-depth **admission control** (saturation answers ``503``
with ``Retry-After`` instead of queueing unboundedly), and a per-request
deadline (``504`` on expiry; the computation still completes and warms the
store).  Every request is logged as one structured JSON line on the
``repro.service`` logger.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import ExperimentError, ServiceError, StoreError
from repro.generators.registry import json_safe
from repro.graph.mmap_io import graph_content_hash
from repro.graph.simple_graph import SimpleGraph
from repro.measure.plan import MeasurementPlan
from repro.service.coalesce import SingleFlight
from repro.service.httputil import (
    HTTPError,
    Request,
    TextResponse,
    encode_response,
    read_request,
)
from repro.service.jobs import JobManager
from repro.store.artifact_store import ArtifactStore, temporary_store
from repro.store.keys import generation_key, stable_hash
from repro.store.memo import measure_entry_keys, memoized_build, memoized_measure
from repro.telemetry import counter_value, render_prometheus, span
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.workloads import WORKLOAD_METRICS
from repro.workloads.scenarios import Scenario, apply_scenario, scenario_label

log = logging.getLogger("repro.service")

#: seconds a 503 asks the client to wait (the ``Retry-After`` header)
RETRY_AFTER_S = 1.0
#: upper bound on an experiment job's per-grid worker processes
JOB_GRID_WORKERS = 4


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one daemon instance.

    ``workers`` compute threads serve generate/measure requests; at most
    ``queue_depth`` additional computations may be queued behind them before
    admission control starts answering ``503 Retry-After`` — the graceful
    degradation point under overload.  Without a ``store`` the daemon runs
    on a temporary one that lives until :meth:`TopologyService.stop`.  Experiment grids run on their own
    ``max_jobs``-bounded job threads so long sweeps never starve the
    interactive pool.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    store: str | Path | None = None
    workers: int = 4
    queue_depth: int = 32
    request_timeout: float = 300.0
    max_jobs: int = 4


class TopologyService:
    """The daemon: routes, the coalescing layer, the worker pool, the jobs."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.started = time.time()
        # this service's counts: every reader (/v1/stats, /v1/metrics) renders them
        self.metrics = MetricsRegistry()
        self.flights = SingleFlight(self.metrics)
        # owns the temporary store of a daemon started without one
        self._resources = ExitStack()
        self.store = (
            ArtifactStore.coerce(self.config.store)
            if self.config.store
            else self._resources.enter_context(temporary_store())
        )
        self.jobs = JobManager(self.store, max_active=self.config.max_jobs)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-compute"
        )
        self._active = 0  # computations admitted and not yet finished
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        # degraded-graph cache of scenario measurements: (source, scenario, seed) ->
        # (graph, stats, content_hash); bounded FIFO
        self._degraded: dict[tuple, tuple[SimpleGraph, dict, str]] = {}
        self._routes = self._build_routes()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel jobs, drain the pool, drop a temporary store."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.jobs.shutdown)
        # running computations finish (and write) before a temporary store goes
        await loop.run_in_executor(
            None, lambda: self._pool.shutdown(wait=True, cancel_futures=True)
        )
        self._resources.close()

    # ------------------------------------------------------------------ #
    # admission + coalescing + timeout: the request execution spine
    # ------------------------------------------------------------------ #
    def _admission_limit(self) -> int:
        return self.config.workers + self.config.queue_depth

    def _launch(self, fn: Callable[[], Any]) -> asyncio.Future:
        """Admit one computation into the worker pool (or 503)."""
        if self._active >= self._admission_limit():
            self.metrics.counter_inc("repro_service_rejected_total")
            raise HTTPError(
                503,
                f"worker pool saturated ({self._active} computations in flight, "
                f"limit {self._admission_limit()}); retry later",
                headers={"Retry-After": str(RETRY_AFTER_S)},
            )
        loop = asyncio.get_running_loop()
        self._active += 1
        future = loop.run_in_executor(self._pool, fn)

        def _done(_future: asyncio.Future) -> None:
            self._active -= 1

        future.add_done_callback(_done)
        return future

    async def _keyed_compute(
        self, key: str, warm: bool, fn: Callable[[], Any], timeout: float | None
    ) -> tuple[Any, str]:
        """Run ``fn`` under single-flight coalescing; returns ``(value, cache)``.

        ``cache`` is ``"coalesced"`` (joined an in-flight computation),
        ``"hit"`` (the store already held every needed entry) or ``"miss"``.
        """
        try:
            value, coalesced = await asyncio.wait_for(
                self.flights.run(key, lambda: self._launch(fn)), timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.counter_inc("repro_service_timeouts_total")
            raise HTTPError(
                504,
                f"computation for key {key[:16]}… exceeded the "
                f"{timeout:g}s deadline (it continues in the background "
                "and will warm the store)",
            ) from None
        outcome = "coalesced" if coalesced else ("hit" if warm else "miss")
        self.metrics.counter_inc("repro_service_cache_total", outcome=outcome)
        return value, outcome

    def _timeout(self, body: dict[str, Any]) -> float:
        """Per-request deadline: optional body override, capped by config."""
        ceiling = self.config.request_timeout
        raw = body.get("timeout")
        if raw is None:
            return ceiling
        try:
            requested = float(raw)
        except (TypeError, ValueError):
            raise HTTPError(400, f"'timeout' must be a number, got {raw!r}") from None
        if requested <= 0:
            raise HTTPError(400, f"'timeout' must be positive, got {requested!r}")
        return min(requested, ceiling)

    # ------------------------------------------------------------------ #
    # request sources: registered topologies, paths, inline edge lists
    # ------------------------------------------------------------------ #
    def _resolve_source(self, body: dict[str, Any]) -> SimpleGraph:
        """The graph a request operates on (a topology or an inline edge list)."""
        edges = body.get("edges")
        topology = body.get("topology")
        if (edges is None) == (topology is None):
            raise HTTPError(400, "exactly one of 'topology' or 'edges' is required")
        if edges is not None:
            if not isinstance(edges, list):
                raise HTTPError(400, "'edges' must be a list of [u, v] pairs")
            try:
                graph = SimpleGraph.from_edges(
                    (int(edge[0]), int(edge[1])) for edge in edges
                )
            except (TypeError, ValueError, IndexError) as error:
                raise HTTPError(400, f"malformed 'edges': {error}") from None
            nodes = self._body_int(body, "nodes")
            if nodes is not None:
                while graph.number_of_nodes < nodes:
                    graph.add_node()
            return graph
        if not isinstance(topology, str):
            raise HTTPError(400, "'topology' must be a string")
        from repro.experiment import _resolve_topology

        try:
            return _resolve_topology(topology)
        except ExperimentError as error:
            raise HTTPError(400, str(error)) from None

    def _metrics_warm(
        self,
        graph_hash: str,
        metrics: tuple[str, ...],
        use_giant_component: bool,
        distance_sources: int | None,
    ) -> bool:
        """Whether the store already holds every requested metric of the graph."""
        entry_keys = measure_entry_keys(
            graph_hash,
            metrics,
            use_giant_component=use_giant_component,
            distance_sources=distance_sources,
        )
        return all(self.store.get_metric(k) is not None for k in entry_keys.values())

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    async def _handle_healthz(self, request: Request) -> tuple[int, Any]:
        import repro

        return 200, {
            "status": "ok",
            "version": repro.__version__,
            "store": str(self.store.root),
            "uptime_s": round(time.time() - self.started, 3),
        }

    async def _handle_stats(self, request: Request) -> tuple[int, Any]:
        return 200, stats_document(
            self.metrics,
            uptime_s=round(time.time() - self.started, 3),
            inflight_keys=self.flights.inflight,
            active_computations=self._active,
            admission={
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "limit": self._admission_limit(),
            },
            jobs=self.jobs.counts(),
        )

    async def _handle_metrics(self, request: Request) -> tuple[int, Any]:
        """``GET /v1/metrics``: the process exposition, then this service's."""
        return 200, TextResponse(render_prometheus() + self.metrics.render_prometheus())

    async def _handle_store_info(self, request: Request) -> tuple[int, Any]:
        loop = asyncio.get_running_loop()
        info = await loop.run_in_executor(None, self.store.info_dict)
        return 200, info

    async def _handle_generate(self, request: Request) -> tuple[int, Any]:
        body = request.json()
        from repro.generators.registry import (
            GeneratorInputError,
            UnknownGeneratorError,
            UnsupportedLevelError,
            get_generator,
        )

        method = body.get("method")
        if not isinstance(method, str):
            raise HTTPError(400, "'method' is required (a generator-registry name)")
        d = body.get("d", 2)
        if d not in (0, 1, 2, 3):
            raise HTTPError(400, f"'d' must be in 0..3, got {d!r}")
        seed = self._body_int(body, "seed", default=0)
        options = body.get("options") or {}
        if not isinstance(options, dict):
            raise HTTPError(400, "'options' must be an object")
        include_edges = bool(body.get("include_edges", False))
        try:
            spec = get_generator(method)
            spec.check_supports(d)
            spec.check_options(options)
        except (UnknownGeneratorError, UnsupportedLevelError, GeneratorInputError) as error:
            raise HTTPError(400, str(error)) from None

        graph = self._resolve_source(body)
        source_hash = graph_content_hash(graph)
        key = generation_key(method, options, seed, source_hash, d=d)
        warm = self.store.has_biggraph(key)

        def compute():
            return memoized_build(
                spec,
                graph,
                d,
                seed=seed,
                store=self.store,
                options=options,
                source_hash=source_hash,
            )

        result, cache = await self._keyed_compute(key, warm, compute, self._timeout(body))
        payload = {
            "key": key,
            "cache": cache,
            "method": result.method,
            "d": result.d,
            "seed": result.seed,
            "nodes": result.graph.number_of_nodes,
            "edges_count": result.graph.number_of_edges,
            "wall_time": float(result.wall_time),
            "stats": json_safe(result.stats),
            "content_hash": result.content_hash,
        }
        if include_edges:
            payload["edges"] = sorted(result.graph.edges())
        return 200, payload

    async def _handle_measure(
        self, request: Request, default_metrics: tuple[str, ...] = ()
    ) -> tuple[int, Any]:
        """``POST /v1/measure`` and ``POST /v1/workload``: degrade the graph
        by an optional scenario, then measure a metric subset of it.

        The two routes differ only in ``default_metrics``, the metric set of
        a body without ``metrics``.
        """
        body = request.json()
        metrics = body.get("metrics")
        if metrics is None:
            metrics = list(default_metrics)
        if not isinstance(metrics, list) or not metrics:
            raise HTTPError(400, "'metrics' is required (a non-empty list of names)")
        try:
            metrics = MeasurementPlan(tuple(metrics)).metrics
        except ValueError as error:
            raise HTTPError(400, str(error)) from None
        try:
            scenario = Scenario.parse(body.get("scenario"))
        except (ValueError, TypeError, KeyError) as error:
            raise HTTPError(400, f"invalid 'scenario': {error}") from None
        scenario_seed = self._body_int(body, "scenario_seed", default=0)
        use_giant_component = bool(body.get("use_giant_component", True))
        distance_sources = self._body_int(body, "distance_sources", minimum=1)
        seed = self._body_int(body, "seed", default=0)

        graph = self._resolve_source(body)
        source_id = graph_content_hash(graph)
        degraded_key = (source_id, scenario_label(scenario), scenario_seed)

        def transform() -> tuple[SimpleGraph, dict | None, str]:
            """The graph to measure: ``(graph, scenario_stats, content_hash)``.

            Degraded graphs are cached in-process so repeated scenario
            requests (polling clients, metric-set widening) skip both the
            transform and — for ``hub_load`` — its ranking sweep.
            """
            if scenario is None:
                return graph, None, source_id
            entry = self._degraded.get(degraded_key)
            if entry is None:
                degraded, stats = apply_scenario(graph, scenario, rng=scenario_seed)
                if len(self._degraded) >= 32:
                    self._degraded.pop(next(iter(self._degraded)))
                entry = (degraded, stats, graph_content_hash(degraded))
                self._degraded[degraded_key] = entry
            return entry

        cached_entry = (
            (graph, None, source_id) if scenario is None else self._degraded.get(degraded_key)
        )
        warm = cached_entry is not None and self._metrics_warm(
            cached_entry[2], metrics, use_giant_component, distance_sources
        )

        def compute():
            start = time.perf_counter()
            work, stats, work_hash = transform()
            measurement = memoized_measure(
                work,
                self.store,
                metrics=metrics,
                graph_hash=work_hash,
                use_giant_component=use_giant_component,
                distance_sources=distance_sources,
                rng=seed,
            )
            return work, stats, measurement, time.perf_counter() - start

        key = stable_hash(
            {
                "kind": "service-measure",
                "source": source_id,
                "scenario": scenario_label(scenario),
                "scenario_seed": scenario_seed,
                "metrics": sorted(metrics),
                "use_giant_component": use_giant_component,
                "distance_sources": distance_sources,
                "seed": seed,
            }
        )
        (work, stats, measurement, wall), cache = await self._keyed_compute(
            key, warm, compute, self._timeout(body)
        )
        return 200, {
            "key": key,
            "cache": cache,
            "scenario": scenario_label(scenario),
            "scenario_stats": json_safe(stats),
            "nodes": work.number_of_nodes,
            "edges_count": work.number_of_edges,
            "metrics": json_safe(measurement.to_jsonable()),
            "wall_time": float(wall),
        }

    #: ExperimentSpec fields a service client may set.
    _SPEC_FIELDS = frozenset(
        {
            "topologies",
            "methods",
            "d_levels",
            "replicates",
            "seed",
            "name",
            "include_original",
            "skip_unsupported",
            "metrics",
            "compute_spectrum",
            "distance_sources",
            "dk_distances",
            "generator_options",
            "scenarios",
        }
    )
    #: retired spec fields, still accepted from older clients and ignored
    _RETIRED_SPEC_FIELDS = frozenset({"backend"})

    async def _handle_submit_experiment(self, request: Request) -> tuple[int, Any]:
        body = request.json()
        from repro.experiment import ExperimentSpec

        spec_body = body.get("spec")
        if not isinstance(spec_body, dict):
            raise HTTPError(400, "'spec' is required (an ExperimentSpec object)")
        spec_body = {
            name: value
            for name, value in spec_body.items()
            if name not in self._RETIRED_SPEC_FIELDS
        }
        unknown = set(spec_body) - self._SPEC_FIELDS
        if unknown:
            raise HTTPError(
                400,
                f"unknown spec field(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"allowed: {', '.join(sorted(self._SPEC_FIELDS))}",
            )
        if "metrics" in spec_body and spec_body["metrics"] is not None:
            spec_body = {**spec_body, "metrics": tuple(spec_body["metrics"])}
        try:
            spec = ExperimentSpec(**spec_body)
        except (ExperimentError, TypeError, ValueError) as error:
            raise HTTPError(400, f"invalid experiment spec: {error}") from None

        workers = self._body_int(body, "workers", default=1, minimum=1)
        workers = min(workers, JOB_GRID_WORKERS)
        resume = bool(body.get("resume", True))
        try:
            job = self.jobs.submit(spec, workers=workers, resume=resume)
        except ServiceError as error:
            raise HTTPError(
                503, str(error), headers={"Retry-After": str(RETRY_AFTER_S)}
            ) from None
        return 202, job.summary()

    async def _handle_list_experiments(self, request: Request) -> tuple[int, Any]:
        return 200, {"jobs": [job.summary() for job in self.jobs.jobs()]}

    def _job_or_404(self, request: Request):
        job = self.jobs.get(request.params["id"])
        if job is None:
            raise HTTPError(404, f"no experiment job {request.params['id']!r}")
        return job

    @staticmethod
    def _query_int(request: Request, name: str, *, minimum: int) -> int | None:
        """An optional non-negative integer query parameter (400 on junk)."""
        raw = request.query.get(name)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise HTTPError(400, f"query parameter {name!r} must be an integer, got {raw!r}") from None
        if value < minimum:
            raise HTTPError(400, f"query parameter {name!r} must be >= {minimum}, got {value}")
        return value

    @staticmethod
    def _body_int(
        body: dict[str, Any], name: str, *, default: int | None = None, minimum: int | None = None
    ) -> int | None:
        """An optional integer body field, ``default`` when absent or null
        (400 on junk)."""
        raw = body.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise HTTPError(400, f"{name!r} must be an integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise HTTPError(400, f"{name!r} must be >= {minimum}, got {value}")
        return value

    async def _handle_experiment_status(self, request: Request) -> tuple[int, Any]:
        offset = self._query_int(request, "offset", minimum=0)
        limit = self._query_int(request, "limit", minimum=1)
        return 200, self._job_or_404(request).detail(offset=offset, limit=limit)

    async def _handle_cancel_experiment(self, request: Request) -> tuple[int, Any]:
        job = self._job_or_404(request)
        cancelling = job.cancel()
        return 202 if cancelling else 200, {
            "id": job.id,
            "status": job.status,
            "cancelling": cancelling,
        }

    # ------------------------------------------------------------------ #
    # routing and the connection loop
    # ------------------------------------------------------------------ #
    def _build_routes(self):
        return [
            ("GET", re.compile(r"^/v1/healthz$"), self._handle_healthz, "GET /v1/healthz"),
            ("GET", re.compile(r"^/v1/stats$"), self._handle_stats, "GET /v1/stats"),
            ("GET", re.compile(r"^/v1/metrics$"), self._handle_metrics, "GET /v1/metrics"),
            (
                "GET",
                re.compile(r"^/v1/store/info$"),
                self._handle_store_info,
                "GET /v1/store/info",
            ),
            ("POST", re.compile(r"^/v1/graphs$"), self._handle_generate, "POST /v1/graphs"),
            ("POST", re.compile(r"^/v1/measure$"), self._handle_measure, "POST /v1/measure"),
            (
                "POST",
                re.compile(r"^/v1/workload$"),
                partial(self._handle_measure, default_metrics=WORKLOAD_METRICS),
                "POST /v1/workload",
            ),
            (
                "POST",
                re.compile(r"^/v1/experiments$"),
                self._handle_submit_experiment,
                "POST /v1/experiments",
            ),
            (
                "GET",
                re.compile(r"^/v1/experiments$"),
                self._handle_list_experiments,
                "GET /v1/experiments",
            ),
            (
                "GET",
                re.compile(r"^/v1/experiments/(?P<id>[0-9a-f]+)$"),
                self._handle_experiment_status,
                "GET /v1/experiments/{id}",
            ),
            (
                "POST",
                re.compile(r"^/v1/experiments/(?P<id>[0-9a-f]+)/cancel$"),
                self._handle_cancel_experiment,
                "POST /v1/experiments/{id}/cancel",
            ),
            (
                "DELETE",
                re.compile(r"^/v1/experiments/(?P<id>[0-9a-f]+)$"),
                self._handle_cancel_experiment,
                "DELETE /v1/experiments/{id}",
            ),
        ]

    def _match(self, request: Request) -> tuple[Callable, str]:
        allowed: list[str] = []
        for method, pattern, handler, template in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method == request.method:
                request.params = match.groupdict()
                return handler, template
            allowed.append(method)
        if allowed:
            raise HTTPError(
                405,
                f"{request.method} not allowed on {request.path}",
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        raise HTTPError(404, f"no route for {request.path}")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPError as error:
                    writer.write(
                        encode_response(
                            error.status, {"error": str(error)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer vanished or server shutting down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        start = time.perf_counter()
        # one label per known method for every request no route matches
        known = request.method in {method for method, *_ in self._routes}
        template = f"{request.method if known else 'OTHER'} <unmatched>"
        headers: dict[str, str] = {}
        with span("service.request", method=request.method, path=request.path) as sp:
            try:
                handler, template = self._match(request)
                status, payload = await handler(request)
            except HTTPError as error:
                status, payload = error.status, {"error": str(error)}
                headers = error.headers
            except (ServiceError, StoreError, ExperimentError) as error:
                status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
            except Exception as error:  # noqa: BLE001 - connection isolation boundary
                log.exception(
                    "unhandled error serving %s %s", request.method, request.path
                )
                status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
            sp.set(route=template, status=status)
        elapsed = time.perf_counter() - start

        self.metrics.counter_inc("repro_requests_total", route=template, status=str(status))
        self.metrics.observe("repro_request_latency_seconds", elapsed, route=template)
        log.info(
            "%s",
            json.dumps(
                {
                    "event": "request",
                    "method": request.method,
                    "path": request.path,
                    "status": status,
                    "ms": round(elapsed * 1000.0, 3),
                    "cache": payload.get("cache") if isinstance(payload, dict) else None,
                },
                sort_keys=True,
            ),
        )
        writer.write(
            encode_response(
                status, payload, headers=headers, keep_alive=request.keep_alive
            )
        )
        await writer.drain()
        return request.keep_alive


def _store_overview() -> dict[str, Any]:
    """Process-global store, memo and experiment-cell counters for ``/v1/stats``.

    These count the whole process — the service's own store traffic plus
    any in-process experiment jobs — because the store and the experiment
    runner write to the process-global registry.
    """
    store = {
        category: {
            "hit": int(
                counter_value("repro_store_reads_total", category=category, outcome="hit")
            ),
            "miss": int(
                counter_value("repro_store_reads_total", category=category, outcome="miss")
            ),
            "writes": int(counter_value("repro_store_writes_total", category=category)),
            "write_bytes": int(
                counter_value("repro_store_write_bytes_total", category=category)
            ),
        }
        for category in ("biggraphs", "metrics", "cells")
    }
    return {
        "store": store,
        "memo_metric_hits": int(counter_value("repro_memo_metric_hits_total")),
        "memo_metric_misses": int(counter_value("repro_memo_metric_misses_total")),
        "experiment_cells": {
            "computed": int(counter_value("repro_experiment_cells_total", outcome="computed")),
            "cached": int(counter_value("repro_experiment_cells_total", outcome="cached")),
        },
    }


def stats_document(metrics: MetricsRegistry, **extra: Any) -> dict[str, Any]:
    """The ``GET /v1/stats`` document of a service registry ``metrics``.

    Per-route request/error counts with mean and p50/p95/p99 latencies (in
    milliseconds, over each route's recent window), the single-flight cache
    outcomes (``hit``: served warm from the store, ``coalesced``: joined an
    in-flight computation, ``miss``: computed fresh) and their warm share,
    admission 503s, deadline 504s and the coalescer's leaders/joiners — all
    read from ``metrics`` — plus, under ``telemetry``, the process-global
    store/memo/experiment-cell counters.  ``extra`` is merged in (uptime,
    admission, jobs...).
    """
    snapshot = metrics.snapshot()
    counters = [(name, dict(labels), int(value)) for name, labels, value in snapshot["counters"]]

    def count(family: str, **labels: str) -> int:
        return sum(
            value for name, have, value in counters
            if name == family and labels.items() <= have.items()
        )

    requests: dict[str, dict[str, Any]] = {}
    for name, labels, window in snapshot["histograms"]:
        if name != "repro_request_latency_seconds":
            continue
        route = dict(labels)["route"]
        latency = Histogram()
        latency.merge(window)
        requests[route] = {
            "count": count("repro_requests_total", route=route),
            "errors": sum(
                value for name, have, value in counters
                if name == "repro_requests_total"
                and have["route"] == route
                and int(have["status"]) >= 400
            ),
            "mean_ms": round(latency.mean * 1000.0, 3),
            **{
                f"p{q}_ms": round(latency.percentile(q) * 1000.0, 3)
                for q in (50, 95, 99)
            },
        }
    cache = {
        outcome: count("repro_service_cache_total", outcome=outcome)
        for outcome in ("hit", "miss", "coalesced")
    }
    keyed = sum(cache.values())
    warm = (cache["hit"] + cache["coalesced"]) / keyed if keyed else 0.0
    coalescing = {
        "started": count("repro_coalescer_started_total"),
        "joined": count("repro_coalescer_joined_total"),
    }
    return {
        "requests": dict(sorted(requests.items())),
        "cache": {**cache, "hit_ratio": round(warm, 4)},
        "rejected": count("repro_service_rejected_total"),
        "timeouts": count("repro_service_timeouts_total"),
        "coalescing": coalescing,
        "telemetry": {
            **_store_overview(),
            "coalescer_started": coalescing["started"],
            "coalescer_joined": coalescing["joined"],
        },
        **extra,
    }


class ServiceThread:
    """A daemon running on its own event loop in a background thread.

    The in-process harness the tests and the load-test bench use::

        with ServiceThread(ServiceConfig(port=0, store=tmp)) as handle:
            ...  # drive handle.port with the async client

    ``port=0`` binds an ephemeral port; the actual one is ``handle.port``
    after ``start()`` returns.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig(port=0)
        self.service: TopologyService | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            self.service = TopologyService(self.config)
            await self.service.start()
            self.port = self.service.port
        except BaseException as error:  # noqa: BLE001 - reported to start()
            self._error = error
            if self.service is not None:
                await self.service.stop()  # drops a temporary store
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.service.stop()

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError("service failed to start within the timeout")
        if self._error is not None:
            raise self._error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# --------------------------------------------------------------------------- #
# `repro serve` / `python -m repro.service`
# --------------------------------------------------------------------------- #
def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro serve`` daemon command."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the topology-as-a-service HTTP/JSON daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8642, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--store",
        default=None,
        help="artifact-store directory: requests are memoized through it, so "
        "identical (spec, seed, metrics) keys are served warm across "
        "restarts and shared with the CLI/experiment pipeline",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="compute threads for generate/measure"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="computations that may queue behind the busy workers before "
        "admission control answers 503 + Retry-After",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        help="per-request compute deadline in seconds (504 on expiry)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=4, help="concurrently running experiment jobs"
    )
    parser.add_argument(
        "--log-level", default="INFO", help="logging level of the repro.service logger"
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=args.log_level.upper(), format="%(message)s")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.store,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        max_jobs=args.max_jobs,
    )

    async def _serve() -> None:
        service = TopologyService(config)
        try:
            await service.start()
            print(
                f"repro service listening on http://{config.host}:{service.port}"
                f", store {service.store.root}"
                f" ({config.workers} workers, queue {config.queue_depth})",
                flush=True,
            )
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro service stopped", flush=True)
    except (StoreError, OSError) as error:
        raise SystemExit(str(error)) from None
    return 0


__all__ = [
    "ServiceConfig",
    "TopologyService",
    "ServiceThread",
    "serve_main",
]
