"""Async client for the topology service.

A thin typed wrapper over the daemon's HTTP/JSON API with a small keep-alive
connection pool, so one client object can drive many concurrent requests
(the load-test harness runs dozens of coroutines over a single
:class:`ServiceClient`).  Pure stdlib — the same :mod:`repro.service.httputil`
framing the server uses.

    async with ServiceClient(port=8642) as client:
        out = await client.generate(method="rewiring", topology="hot_small", d=2)
        print(out["cache"], out["key"])

Every helper raises :class:`RemoteServiceError` (carrying ``.status``) on an
HTTP error response; use :meth:`ServiceClient.request` directly when the
status code itself is the datum (e.g. probing ``503`` under saturation).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.exceptions import ServiceError
from repro.service.httputil import encode_request, read_response


class RemoteServiceError(ServiceError):
    """An HTTP error answer from the daemon (``.status`` holds the code)."""

    def __init__(self, status: int, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServiceClient:
    """Asyncio client with a keep-alive connection pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        timeout: float = 300.0,
        max_idle: int = 32,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._max_idle = max_idle
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    async def _acquire(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._idle:
            return self._idle.pop()
        return await asyncio.open_connection(self.host, self.port)

    def _release(self, conn: tuple[asyncio.StreamReader, asyncio.StreamWriter]) -> None:
        if len(self._idle) < self._max_idle:
            self._idle.append(conn)
        else:
            conn[1].close()

    async def request(
        self, method: str, path: str, payload: Any | None = None
    ) -> tuple[int, Any]:
        """One round-trip; returns ``(status, decoded_json)`` without raising."""
        reader, writer = await self._acquire()
        try:
            writer.write(
                encode_request(method, path, payload, host=f"{self.host}:{self.port}")
            )
            await writer.drain()
            status, headers, body = await asyncio.wait_for(
                read_response(reader), self.timeout
            )
        except BaseException:
            writer.close()
            raise
        data = json.loads(body) if body else {}
        if headers.get("connection", "keep-alive").lower() == "close":
            writer.close()
        else:
            self._release((reader, writer))
        if status >= 400:
            data = dict(data) if isinstance(data, dict) else {"error": repr(data)}
            data.setdefault("retry_after", headers.get("retry-after"))
        return status, data

    async def _call(self, method: str, path: str, payload: Any | None = None) -> Any:
        status, data = await self.request(method, path, payload)
        if status >= 400:
            message = data.get("error") or f"HTTP {status}"
            retry_after = data.get("retry_after")
            raise RemoteServiceError(
                status,
                f"HTTP {status}: {message}",
                retry_after=float(retry_after) if retry_after else None,
            )
        return data

    async def close(self) -> None:
        """Close every pooled connection."""
        while self._idle:
            _, writer = self._idle.pop()
            writer.close()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    async def healthz(self) -> dict[str, Any]:
        return await self._call("GET", "/v1/healthz")

    async def stats(self) -> dict[str, Any]:
        return await self._call("GET", "/v1/stats")

    async def store_info(self) -> dict[str, Any]:
        return await self._call("GET", "/v1/store/info")

    @staticmethod
    def _source(body: dict[str, Any], topology: str | None, edges: Any | None) -> None:
        if topology is not None:
            body["topology"] = topology
        if edges is not None:
            body["edges"] = [list(edge) for edge in edges]

    async def generate(
        self,
        *,
        method: str,
        topology: str | None = None,
        edges: Any | None = None,
        d: int = 2,
        seed: int = 0,
        options: dict[str, Any] | None = None,
        include_edges: bool = False,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """``POST /v1/graphs``: generate a dK-graph through the store."""
        body: dict[str, Any] = {"method": method, "d": d, "seed": seed}
        self._source(body, topology, edges)
        if options:
            body["options"] = options
        if include_edges:
            body["include_edges"] = True
        if timeout is not None:
            body["timeout"] = timeout
        return await self._call("POST", "/v1/graphs", body)

    def _measure_body(
        self,
        *,
        metrics: Any | None,
        topology: str | None = None,
        edges: Any | None = None,
        scenario: Any | None = None,
        scenario_seed: int = 0,
        use_giant_component: bool = True,
        distance_sources: int | None = None,
        seed: int = 0,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """The body of a measure request (``metrics=None`` leaves the route's
        default metric set)."""
        body: dict[str, Any] = {"seed": seed}
        self._source(body, topology, edges)
        if metrics is not None:
            body["metrics"] = list(metrics)
        if scenario is not None:
            body["scenario"] = (
                scenario.label if hasattr(scenario, "label") else scenario
            )
        if scenario_seed:
            body["scenario_seed"] = scenario_seed
        if not use_giant_component:
            body["use_giant_component"] = False
        if distance_sources is not None:
            body["distance_sources"] = distance_sources
        if timeout is not None:
            body["timeout"] = timeout
        return body

    async def measure(self, *, metrics: Any, **request: Any) -> dict[str, Any]:
        """``POST /v1/measure``: measure a metric subset through the store.

        Keywords: ``topology`` or ``edges`` (the source), ``scenario`` (a
        ``"kind:fraction"`` label such as ``"hub_degree:0.05"``, a
        ``{"kind": ..., "fraction": ...}`` dict, or ``None`` for the intact
        graph), ``scenario_seed``, ``use_giant_component``,
        ``distance_sources``, ``seed`` and ``timeout``.
        """
        return await self._call(
            "POST", "/v1/measure", self._measure_body(metrics=metrics, **request)
        )

    async def workload(
        self, *, metrics: Any | None = None, **request: Any
    ) -> dict[str, Any]:
        """``POST /v1/workload``: :meth:`measure` whose ``metrics`` default to
        the server's workload battery."""
        return await self._call(
            "POST", "/v1/workload", self._measure_body(metrics=metrics, **request)
        )

    async def submit_experiment(
        self, spec: Any, *, workers: int = 1, resume: bool = True
    ) -> dict[str, Any]:
        """``POST /v1/experiments``: submit a grid as a background job.

        ``spec`` is a plain dict of :class:`~repro.experiment.ExperimentSpec`
        fields, or an ``ExperimentSpec`` (serialized via ``to_dict()``).
        """
        if hasattr(spec, "to_dict"):
            spec = spec.to_dict()
        return await self._call(
            "POST",
            "/v1/experiments",
            {"spec": spec, "workers": workers, "resume": resume},
        )

    async def list_experiments(self) -> list[dict[str, Any]]:
        return (await self._call("GET", "/v1/experiments"))["jobs"]

    async def experiment(
        self, job_id: str, *, offset: int | None = None, limit: int | None = None
    ) -> dict[str, Any]:
        """``GET /v1/experiments/{id}``; ``offset``/``limit`` page the records."""
        query = "&".join(
            f"{name}={value}"
            for name, value in (("offset", offset), ("limit", limit))
            if value is not None
        )
        path = f"/v1/experiments/{job_id}"
        return await self._call("GET", f"{path}?{query}" if query else path)

    async def cancel_experiment(self, job_id: str) -> dict[str, Any]:
        return await self._call("POST", f"/v1/experiments/{job_id}/cancel")

    async def wait_for_experiment(
        self, job_id: str, *, poll: float = 0.2, timeout: float = 600.0
    ) -> dict[str, Any]:
        """Poll until the job leaves the active states; returns its detail."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            detail = await self.experiment(job_id)
            if detail["status"] not in ("queued", "running"):
                return detail
            if asyncio.get_running_loop().time() >= deadline:
                raise ServiceError(
                    f"experiment job {job_id} still {detail['status']} after {timeout:g}s"
                )
            await asyncio.sleep(poll)


__all__ = ["ServiceClient", "RemoteServiceError"]
