"""Topology-as-a-service: an asyncio HTTP/JSON daemon over the artifact store.

Run it with ``repro serve`` (or ``python -m repro.service``, which skips
importing the CLI) and drive it with
:class:`~repro.service.client.ServiceClient`.  See :mod:`repro.service.app`
for the endpoint reference and the server-side resource discipline
(single-flight coalescing, admission control, per-request deadlines).
"""

from repro.service.app import (
    ServiceConfig,
    ServiceThread,
    TopologyService,
    serve_main,
)
from repro.service.client import RemoteServiceError, ServiceClient
from repro.service.coalesce import SingleFlight
from repro.service.httputil import HTTPError
from repro.service.jobs import Job, JobManager

__all__ = [
    "ServiceConfig",
    "ServiceThread",
    "TopologyService",
    "serve_main",
    "ServiceClient",
    "RemoteServiceError",
    "SingleFlight",
    "HTTPError",
    "Job",
    "JobManager",
]
