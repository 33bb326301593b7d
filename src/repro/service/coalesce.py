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
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.telemetry.metrics import counter_inc


class SingleFlight:
    """Keyed coalescing table: one in-flight computation per key."""

    def __init__(self):
        self._inflight: dict[str, asyncio.Future] = {}
        self.started = 0  # computations actually launched (leaders)
        self.joined = 0  # requests that coalesced onto an in-flight leader

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
            self.joined += 1
            counter_inc("repro_coalescer_joined_total")
            return await asyncio.shield(existing), True
        task = asyncio.ensure_future(start())
        self.started += 1
        counter_inc("repro_coalescer_started_total")
        self._inflight[key] = task
        task.add_done_callback(lambda _task: self._inflight.pop(key, None))
        return await asyncio.shield(task), False


__all__ = ["SingleFlight"]
