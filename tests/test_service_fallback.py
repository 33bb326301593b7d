"""Service tests without a store: HTTP framing, single-flight, stats, measure.

The store-less daemon must start and serve ``/v1/measure`` and
``/v1/workload`` through the measurement planner, coalescing
identical concurrent requests without a store to key them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient
from repro.service.coalesce import SingleFlight
from repro.service.httputil import (
    HTTPError,
    encode_request,
    encode_response,
    read_request,
    read_response,
)
from repro.service.stats import LatencyHistogram, ServiceStats

EDGES = [[i, (i + 1) % 12] for i in range(12)] + [[i, (i + 3) % 12] for i in range(12)]


# --------------------------------------------------------------------------- #
# single-flight coalescing (pure asyncio, no HTTP)
# --------------------------------------------------------------------------- #
def test_single_flight_coalesces_concurrent_waiters():
    flights = SingleFlight()
    calls = {"count": 0}

    async def main():
        release = asyncio.Event()

        async def compute():
            calls["count"] += 1
            await release.wait()
            return "value"

        waiters = [
            asyncio.create_task(flights.run("k", lambda: compute())) for _ in range(16)
        ]
        await asyncio.sleep(0)  # let every waiter reach the table
        assert flights.inflight == 1
        release.set()
        return await asyncio.gather(*waiters)

    results = asyncio.run(main())
    assert calls["count"] == 1
    assert [value for value, _ in results] == ["value"] * 16
    assert sum(1 for _, coalesced in results if coalesced) == 15
    assert flights.started == 1
    assert flights.joined == 15
    assert flights.inflight == 0  # the key left the table on completion


def test_single_flight_distinct_keys_run_independently():
    flights = SingleFlight()

    async def main():
        async def compute(value):
            await asyncio.sleep(0.01)
            return value

        return await asyncio.gather(
            flights.run("a", lambda: compute(1)), flights.run("b", lambda: compute(2))
        )

    results = asyncio.run(main())
    assert results == [(1, False), (2, False)]
    assert flights.started == 2
    assert flights.joined == 0


def test_single_flight_synchronous_start_error_hits_caller_alone():
    flights = SingleFlight()

    def rejected():
        raise HTTPError(503, "saturated")

    async def main():
        with pytest.raises(HTTPError):
            await flights.run("k", rejected)
        assert flights.inflight == 0  # nothing was registered

        async def compute():
            return "ok"

        return await flights.run("k", lambda: compute())

    value, coalesced = asyncio.run(main())
    assert (value, coalesced) == ("ok", False)


def test_single_flight_waiter_timeout_does_not_cancel_leader():
    flights = SingleFlight()
    finished = {"value": None}

    async def main():
        async def compute():
            await asyncio.sleep(0.2)
            finished["value"] = "done"
            return "done"

        with pytest.raises((asyncio.TimeoutError, TimeoutError)):
            await asyncio.wait_for(flights.run("k", lambda: compute()), 0.02)
        assert flights.inflight == 1  # shielded computation still running
        value, coalesced = await flights.run("k", lambda: compute())
        return value, coalesced

    value, coalesced = asyncio.run(main())
    assert value == "done"
    assert coalesced is True  # the second request joined the surviving leader
    assert finished["value"] == "done"
    assert flights.started == 1


# --------------------------------------------------------------------------- #
# latency histograms and service stats
# --------------------------------------------------------------------------- #
def test_latency_histogram_percentiles():
    hist = LatencyHistogram()
    for ms in range(1, 101):  # 1..100 ms
        hist.observe(ms / 1000.0)
    summary = hist.summary_ms()
    assert summary["count"] == 100
    assert summary["p50_ms"] == pytest.approx(50.0, abs=1.0)
    assert summary["p95_ms"] == pytest.approx(95.0, abs=1.0)
    assert summary["p99_ms"] == pytest.approx(99.0, abs=1.0)
    assert summary["mean_ms"] == pytest.approx(50.5, abs=0.1)


def test_latency_histogram_window_is_bounded():
    hist = LatencyHistogram(maxlen=8)
    for _ in range(100):
        hist.observe(1.0)
    for _ in range(8):
        hist.observe(0.001)  # the window now only holds recent traffic
    assert hist.count == 108
    assert hist.percentile(99) == pytest.approx(0.001)


def test_service_stats_cache_accounting():
    stats = ServiceStats()
    stats.record_cache("miss")
    stats.record_cache("hit")
    stats.record_cache("coalesced")
    stats.record_cache("coalesced")
    assert stats.hit_ratio() == pytest.approx(0.75)
    stats.observe_request("POST /v1/measure", 200, 0.01)
    stats.observe_request("POST /v1/measure", 503, 0.001)
    snapshot = stats.to_dict(extra_field=7)
    assert snapshot["requests"]["POST /v1/measure"]["count"] == 2
    assert snapshot["requests"]["POST /v1/measure"]["errors"] == 1
    assert snapshot["cache"]["hit_ratio"] == 0.75
    assert snapshot["extra_field"] == 7


# --------------------------------------------------------------------------- #
# HTTP framing round-trips
# --------------------------------------------------------------------------- #
def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_request_roundtrip():
    async def main():
        wire = encode_request(
            "post", "/v1/measure?x=1", {"metrics": ["average_degree"]}, host="h:1"
        )
        return await read_request(feed(wire))

    request = asyncio.run(main())
    assert request.method == "POST"
    assert request.path == "/v1/measure"
    assert request.query == {"x": "1"}
    assert request.json() == {"metrics": ["average_degree"]}
    assert request.keep_alive is True


def test_response_roundtrip_and_headers():
    async def main():
        wire = encode_response(
            503, {"error": "saturated"}, headers={"Retry-After": "1"}, keep_alive=False
        )
        return await read_response(feed(wire))

    status, headers, body = asyncio.run(main())
    assert status == 503
    assert headers["retry-after"] == "1"
    assert headers["connection"] == "close"
    assert b"saturated" in body


def test_connection_close_and_http10_semantics():
    async def main():
        explicit = await read_request(
            feed(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        )
        legacy = await read_request(feed(b"GET /v1/healthz HTTP/1.0\r\n\r\n"))
        closed = await read_request(feed(b""))
        return explicit, legacy, closed

    explicit, legacy, closed = asyncio.run(main())
    assert explicit.keep_alive is False
    assert legacy.keep_alive is False
    assert closed is None


def test_malformed_requests_raise_http_400():
    async def run_one(wire):
        return await read_request(feed(wire))

    with pytest.raises(HTTPError):
        asyncio.run(run_one(b"NONSENSE\r\n\r\n"))
    with pytest.raises(HTTPError):
        asyncio.run(
            run_one(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
        )
    with pytest.raises(HTTPError):
        asyncio.run(
            run_one(b"POST /x HTTP/1.1\r\nContent-Length: -3\r\n\r\n")
        )


def test_bad_json_body_is_http_400():
    async def main():
        request = await read_request(
            feed(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nnotjs")
        )
        with pytest.raises(HTTPError) as err:
            request.json()
        return err.value.status

    assert asyncio.run(main()) == 400


# --------------------------------------------------------------------------- #
# the store-less daemon on the pure-Python measurement path
# --------------------------------------------------------------------------- #
@pytest.fixture
def bare_service():
    with ServiceThread(ServiceConfig(port=0, store=None, workers=2)) as handle:
        yield handle


def scenario(handle, coro_fn):
    async def main():
        async with ServiceClient(port=handle.port, timeout=60) as client:
            return await coro_fn(client)

    return asyncio.run(main())


def test_healthz_reports_store_state(bare_service):
    health = scenario(bare_service, lambda client: client.healthz())
    assert health["status"] == "ok"
    assert health["store"] is None


def test_measure_inline_edges_without_store(bare_service):
    async def run_measure(client):
        return await client.measure(
            metrics=["average_degree", "mean_distance", "distance_distribution"],
            edges=EDGES,
        )

    out = scenario(bare_service, run_measure)
    assert out["cache"] == "miss"
    assert out["nodes"] == 12
    assert out["metrics"]["average_degree"] == pytest.approx(4.0)
    distribution = dict(map(tuple, out["metrics"]["distance_distribution"]))
    assert sum(distribution.values()) == pytest.approx(1.0)


def test_workload_inline_edges_without_store(bare_service):
    # the workload route (scenario transform + congestion metrics) runs
    # end-to-end on the planner path without a store
    async def run_workload(client):
        baseline = await client.workload(edges=EDGES)
        attacked = await client.workload(edges=EDGES, scenario="hub_degree:0.1")
        return baseline, attacked

    baseline, attacked = scenario(bare_service, run_workload)
    assert baseline["scenario"] == "none"
    assert baseline["metrics"]["max_edge_load"] > 0
    assert attacked["scenario_stats"]["removed_edges"] > 0
    assert (
        attacked["metrics"]["effective_throughput"]
        <= baseline["metrics"]["effective_throughput"]
    )


def test_store_less_identical_requests_coalesce(bare_service, hold_sweep):
    # the leader's sweep is held until the rest of the burst has joined it;
    # otherwise the key could leave the table and nothing would coalesce
    hold_sweep(bare_service, joiners=7)
    big = [[i, (i + 1) % 400] for i in range(400)] + [
        [i, (i + 7) % 400] for i in range(400)
    ]

    async def wave(client):
        return await asyncio.gather(
            *[
                client.measure(
                    metrics=["mean_distance", "node_betweenness"],
                    edges=big,
                    seed=4,
                )
                for _ in range(8)
            ]
        )

    outs = scenario(bare_service, wave)
    caches = [out["cache"] for out in outs]
    # no store: nothing can be "hit", but identical concurrent requests
    # still collapse onto one planner run
    assert caches.count("miss") == 1
    assert caches.count("coalesced") == 7


def test_store_info_without_store(bare_service):
    info = scenario(bare_service, lambda client: client.store_info())
    assert info["store"] is None
