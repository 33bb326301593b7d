"""Single-flight request coalescing for the topology service.

The daemon's core economy: many concurrent clients asking for the same
``(spec, seed, metrics)`` key should cost ONE computation.  The first
request for a key starts the work and becomes its *leader*; every request
arriving while it is in flight *joins* the same future instead of entering
the worker pool.  Once the computation finishes the key leaves the table —
subsequent identical requests are served warm by the artifact store (the
cross-process, cross-restart half of the cache).

The joined future is wrapped in :func:`asyncio.shield`, so one waiter
timing out (or disconnecting) never cancels the shared computation for the
others — and a computation that outlives every waiter still completes and
warms the store.

Leaders and joiners are counted once, in the registry the table is built
with (the service's own): ``repro_coalescer_started_total`` and
``repro_coalescer_joined_total``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.telemetry.metrics import MetricsRegistry


class SingleFlight:
    """Keyed coalescing table: one in-flight computation per key."""

    def __init__(self, metrics: MetricsRegistry):
        self._inflight: dict[str, asyncio.Future] = {}
        self._metrics = metrics

    @property
    def inflight(self) -> int:
        """Number of keys currently being computed."""
        return len(self._inflight)

    async def run(
        self, key: str, start: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """Await the result for ``key``; returns ``(value, coalesced)``.

        ``start`` is only invoked — and only admitted to the worker pool —
        when no computation for ``key`` is in flight.  It may raise
        *synchronously* (e.g. admission control rejecting the enqueue), in
        which case nothing is registered and the error propagates to this
        caller alone; an exception raised by the computation itself is
        delivered to the leader and every joined waiter alike.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self._metrics.counter_inc("repro_coalescer_joined_total")
            return await asyncio.shield(existing), True
        task = asyncio.ensure_future(start())
        self._metrics.counter_inc("repro_coalescer_started_total")
        self._inflight[key] = task
        task.add_done_callback(lambda _task: self._inflight.pop(key, None))
        return await asyncio.shield(task), False


__all__ = ["SingleFlight"]
