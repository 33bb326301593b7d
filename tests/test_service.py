"""Topology-service tests: coalescing, admission, timeouts, jobs, cancellation.

Each test runs a real daemon (:class:`ServiceThread` on an ephemeral port)
and drives it with the async client — the full HTTP round-trip, not handler
calls.  The counting-stub generator makes the central economy observable:
its call counter proves that N concurrent identical requests cost exactly
one construction (single-flight) and that a store-warm re-request costs
zero (memoization).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.exceptions import ExperimentInterrupted
from repro.experiment import ExperimentSpec, run_experiment
from repro.generators.registry import (
    GeneratorSpec,
    register_generator,
    unregister_generator,
)
from repro.graph.simple_graph import SimpleGraph
from repro.service import ServiceConfig, ServiceThread
from repro.service.client import RemoteServiceError, ServiceClient
from repro.store.artifact_store import ArtifactStore

#: The source graph of every stub request: a 24-ring with chords.
EDGES = [[i, (i + 1) % 24] for i in range(24)] + [[i, (i + 5) % 24] for i in range(24)]

COUNTING = "counting-stub"


@pytest.fixture
def counting_generator():
    """Register a generator whose only job is counting its invocations."""
    calls = {"count": 0}
    lock = threading.Lock()

    def builder(source, d, rng, delay=0.0, interrupt_at=None, **_options):
        with lock:
            calls["count"] += 1
            count = calls["count"]
        if interrupt_at is not None and count >= int(interrupt_at):
            raise KeyboardInterrupt
        if delay:
            time.sleep(float(delay))
        graph = SimpleGraph(source.number_of_nodes, edges=list(source.edges()))
        return graph, {"call": count}

    register_generator(
        GeneratorSpec(
            name=COUNTING,
            description="invocation-counting stub",
            supported_d=frozenset({0, 1, 2, 3}),
            input_kind="graph",
            builder=builder,
        ),
        overwrite=True,
    )
    yield calls
    unregister_generator(COUNTING)


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(port=0, store=tmp_path / "store", workers=4, queue_depth=40)
    with ServiceThread(config) as handle:
        yield handle


def drive(handle, scenario, *, timeout=60.0):
    """Run one async client scenario against a service handle."""

    async def main():
        async with ServiceClient(port=handle.port, timeout=timeout) as client:
            return await scenario(client)

    return asyncio.run(main())


# --------------------------------------------------------------------------- #
# single-flight coalescing
# --------------------------------------------------------------------------- #
def test_32_concurrent_identical_requests_cost_one_generator_call(
    service, counting_generator
):
    async def wave(client):
        return await asyncio.gather(
            *[
                client.generate(
                    method=COUNTING, edges=EDGES, d=1, seed=5, options={"delay": 0.3}
                )
                for _ in range(32)
            ]
        )

    outs = drive(service, wave)
    assert counting_generator["count"] == 1  # zero duplicate construction calls
    caches = [out["cache"] for out in outs]
    assert caches.count("miss") == 1
    assert caches.count("coalesced") == 31
    assert len({out["key"] for out in outs}) == 1
    assert len({out["content_hash"] for out in outs}) == 1

    # store-warm wave: still zero additional calls, nothing is a miss
    outs2 = drive(service, wave)
    assert counting_generator["count"] == 1
    assert "miss" not in {out["cache"] for out in outs2}
    assert {out["cache"] for out in outs2} <= {"hit", "coalesced"}


def test_measure_coalesces_and_then_serves_warm(service, hold_sweep):
    # the leader's sweep is held until the rest of the burst has joined it
    hold_sweep(service, joiners=7)
    big = [[i, (i + 1) % 500] for i in range(500)] + [
        [i, (i + 9) % 500] for i in range(500)
    ]

    async def wave(client):
        return await asyncio.gather(
            *[
                client.measure(
                    metrics=["average_degree", "mean_distance", "node_betweenness"],
                    edges=big,
                    seed=2,
                )
                for _ in range(8)
            ]
        )

    outs = drive(service, wave)
    caches = [out["cache"] for out in outs]
    assert caches.count("miss") == 1
    assert caches.count("coalesced") == 7
    values = {json.dumps(out["metrics"], sort_keys=True) for out in outs}
    assert len(values) == 1  # every waiter got the leader's result

    outs2 = drive(service, wave)
    assert "miss" not in {out["cache"] for out in outs2}


def test_distinct_keys_do_not_coalesce(service, counting_generator):
    async def scenario(client):
        return await asyncio.gather(
            *[
                client.generate(method=COUNTING, edges=EDGES, d=0, seed=seed)
                for seed in range(4)
            ]
        )

    outs = drive(service, scenario)
    assert counting_generator["count"] == 4
    assert [out["cache"] for out in outs] == ["miss"] * 4
    assert len({out["key"] for out in outs}) == 4


# --------------------------------------------------------------------------- #
# admission control and deadlines
# --------------------------------------------------------------------------- #
def test_saturated_pool_answers_503_with_retry_after(tmp_path, counting_generator):
    config = ServiceConfig(port=0, store=tmp_path / "store", workers=1, queue_depth=0)
    with ServiceThread(config) as handle:

        async def scenario(client):
            slow = asyncio.create_task(
                client.generate(
                    method=COUNTING, edges=EDGES, d=0, seed=1, options={"delay": 1.0}
                )
            )
            await asyncio.sleep(0.25)  # let the slow request occupy the only slot
            with pytest.raises(RemoteServiceError) as err:
                await client.generate(method=COUNTING, edges=EDGES, d=0, seed=2)
            out = await slow
            return err.value, out

        error, out = drive(handle, scenario)
        assert error.status == 503
        assert error.retry_after is not None
        assert out["cache"] == "miss"  # the admitted request still completed
        assert counting_generator["count"] == 1  # the rejected one never ran


def test_deadline_expiry_answers_504_but_still_warms_the_store(
    service, counting_generator
):
    async def scenario(client):
        with pytest.raises(RemoteServiceError) as err:
            await client.generate(
                method=COUNTING,
                edges=EDGES,
                d=1,
                seed=77,
                options={"delay": 0.6},
                timeout=0.05,
            )
        assert err.value.status == 504
        await asyncio.sleep(1.0)  # the shielded computation finishes meanwhile
        return await client.generate(
            method=COUNTING, edges=EDGES, d=1, seed=77, options={"delay": 0.6}
        )

    out = drive(service, scenario)
    assert out["cache"] == "hit"
    assert counting_generator["count"] == 1


# --------------------------------------------------------------------------- #
# background experiment jobs
# --------------------------------------------------------------------------- #
JOB_SPEC = {
    "topologies": ["hot_small"],
    "methods": [COUNTING],
    "d_levels": [0, 1],
    "replicates": 2,
    "seed": 3,
    "metrics": ["average_degree"],
}


def test_experiment_job_lifecycle_and_store_resume(service, counting_generator):
    async def scenario(client):
        job = await client.submit_experiment(JOB_SPEC, workers=1)
        assert job["status"] in ("queued", "running")
        detail = await client.wait_for_experiment(job["id"], poll=0.05, timeout=60)
        listing = await client.list_experiments()
        return job, detail, listing

    job, detail, listing = drive(service, scenario)
    assert detail["status"] == "done"
    assert detail["progress"] == {"done": 4, "total": 4, "cached": 0}
    assert len(detail["records"]) == 4
    assert detail["spec"]["methods"] == [COUNTING]
    assert job["id"] in {entry["id"] for entry in listing}
    calls_after_first = counting_generator["count"]
    assert calls_after_first == 4

    # the identical grid re-submitted is served wholly from the store
    _, detail2, _ = drive(service, scenario)
    assert detail2["status"] == "done"
    assert detail2["progress"]["cached"] == 4
    assert counting_generator["count"] == calls_after_first


def test_experiment_job_cancel_is_cooperative_and_resumable(
    service, counting_generator
):
    spec = {**JOB_SPEC, "generator_options": {COUNTING: {"delay": 0.5}}}

    async def cancel_scenario(client):
        job = await client.submit_experiment(spec, workers=1)
        while True:
            detail = await client.experiment(job["id"])
            if detail["progress"]["done"] >= 1 or detail["status"] not in (
                "queued",
                "running",
            ):
                break
            await asyncio.sleep(0.05)
        cancelled = await client.cancel_experiment(job["id"])
        detail = await client.wait_for_experiment(job["id"], poll=0.05, timeout=60)
        again = await client.cancel_experiment(job["id"])
        return cancelled, detail, again

    cancelled, detail, again = drive(service, cancel_scenario)
    assert cancelled["cancelling"] is True
    assert detail["status"] == "cancelled"
    assert 1 <= len(detail["records"]) < 4  # partial grid, clean cell boundary
    assert again["cancelling"] is False  # already final

    async def resume_scenario(client):
        job = await client.submit_experiment(spec, workers=1)
        return await client.wait_for_experiment(job["id"], poll=0.05, timeout=60)

    calls_before = counting_generator["count"]
    detail2 = drive(service, resume_scenario)
    assert detail2["status"] == "done"
    assert detail2["progress"]["done"] == 4
    assert detail2["progress"]["cached"] >= len(detail["records"])
    # only the cells the cancelled run did not finish were constructed
    assert counting_generator["count"] == calls_before + (4 - detail2["progress"]["cached"])


def test_legacy_backend_field_is_accepted_and_ignored(service, counting_generator):
    # older clients may still name a metric backend; there is one kernel
    # set, so measure, workload and experiment bodies ignore the field
    body = {"metrics": ["mean_distance", "assortativity"], "edges": EDGES, "seed": 1}

    async def scenario(client):
        legacy = await client.request("POST", "/v1/measure", {**body, "backend": "python"})
        plain = await client.request("POST", "/v1/measure", body)
        workload = await client.request(
            "POST", "/v1/workload", {"edges": EDGES, "backend": "python"}
        )
        status, job = await client.request(
            "POST", "/v1/experiments", {"spec": {**JOB_SPEC, "backend": "python"}}
        )
        detail = await client.wait_for_experiment(job["id"], poll=0.05, timeout=60)
        return legacy, plain, workload, status, detail

    legacy, plain, workload, status, detail = drive(service, scenario)
    assert legacy[0] == plain[0] == 200
    assert legacy[1]["metrics"] == plain[1]["metrics"]
    assert workload[0] == 200
    assert status == 202
    assert detail["status"] == "done"
    assert "backend" not in detail["spec"]


def test_unknown_job_is_404(service):
    async def scenario(client):
        with pytest.raises(RemoteServiceError) as err:
            await client.experiment("deadbeef0000")
        return err.value

    assert drive(service, scenario).status == 404


def test_experiment_records_paginate_server_side(service, counting_generator):
    async def scenario(client):
        job = await client.submit_experiment(JOB_SPEC, workers=1)
        full = await client.wait_for_experiment(job["id"], poll=0.05, timeout=60)
        first = await client.experiment(job["id"], limit=3)
        rest = await client.experiment(job["id"], offset=3, limit=3)
        beyond = await client.experiment(job["id"], offset=100)
        return full, first, rest, beyond

    full, first, rest, beyond = drive(service, scenario)
    assert full["records_total"] == len(full["records"]) == 4
    assert full["records_offset"] == 0
    assert [len(p["records"]) for p in (first, rest, beyond)] == [3, 1, 0]
    assert first["records"] + rest["records"] == full["records"]
    assert rest["records_offset"] == 3
    assert beyond["records_total"] == 4  # total is always the unpaginated count


def test_experiment_pagination_rejects_junk(service):
    async def scenario(client):
        statuses = []
        for query in ("offset=-1", "limit=0", "offset=abc"):
            status, _ = await client.request("GET", f"/v1/experiments/feedf00d?{query}")
            statuses.append(status)
        return statuses

    # validated before the job lookup: junk is 400 even for unknown ids
    assert drive(service, scenario) == [400, 400, 400]


# --------------------------------------------------------------------------- #
# the workload endpoint
# --------------------------------------------------------------------------- #
def test_workload_endpoint_applies_scenario_and_serves_warm(service):
    async def scenario(client):
        baseline = await client.workload(edges=EDGES)
        attacked = await client.workload(edges=EDGES, scenario="hub_degree:0.1")
        again = await client.workload(edges=EDGES, scenario="hub_degree:0.1")
        return baseline, attacked, again

    baseline, attacked, again = drive(service, scenario)
    assert baseline["scenario"] == "none"
    assert baseline["scenario_stats"] is None
    assert set(baseline["metrics"]) == {
        "max_edge_load",
        "edge_load_p99",
        "effective_throughput",
        "max_node_load",
    }
    assert attacked["scenario"] == "hub_degree:0.1"
    assert attacked["scenario_stats"]["removed_nodes"] >= 1
    assert attacked["edges_count"] < baseline["edges_count"]
    assert (
        attacked["metrics"]["effective_throughput"]
        < baseline["metrics"]["effective_throughput"]
    )
    # the repeated request is a store hit (degraded graph from the cache)
    assert again["cache"] == "hit"
    assert again["metrics"] == attacked["metrics"]


def test_workload_endpoint_custom_metrics_and_random_scenario_seed(service):
    async def scenario(client):
        a = await client.workload(
            edges=EDGES,
            metrics=["max_edge_load", "mean_distance"],
            scenario={"kind": "random_edge", "fraction": 0.2},
            scenario_seed=7,
        )
        b = await client.workload(
            edges=EDGES,
            metrics=["max_edge_load", "mean_distance"],
            scenario="random_edge:0.2",
            scenario_seed=8,
        )
        return a, b

    a, b = drive(service, scenario)
    assert set(a["metrics"]) == {"max_edge_load", "mean_distance"}
    assert a["scenario"] == b["scenario"] == "random_edge:0.2"
    # different scenario seeds degrade different edges -> different keys
    assert a["key"] != b["key"]


def test_workload_endpoint_rejects_bad_input(service):
    async def scenario(client):
        statuses = {}
        status, body = await client.request(
            "POST", "/v1/workload", {"edges": EDGES, "scenario": "bogus:0.5"}
        )
        statuses["bad_kind"] = (status, body["error"])
        status, _ = await client.request(
            "POST", "/v1/workload", {"edges": EDGES, "scenario": "hub_degree:2.0"}
        )
        statuses["bad_fraction"] = (status, None)
        status, _ = await client.request(
            "POST", "/v1/workload", {"edges": EDGES, "metrics": []}
        )
        statuses["empty_metrics"] = (status, None)
        status, _ = await client.request(
            "POST", "/v1/workload", {"edges": EDGES, "metrics": ["no_such"]}
        )
        statuses["unknown_metric"] = (status, None)
        return statuses

    statuses = drive(service, scenario)
    assert statuses["bad_kind"][0] == 400
    assert "scenario" in statuses["bad_kind"][1]
    assert statuses["bad_fraction"][0] == 400
    assert statuses["empty_metrics"][0] == 400
    assert statuses["unknown_metric"][0] == 400


def test_experiment_job_accepts_scenarios_dimension(service, counting_generator):
    spec = {**JOB_SPEC, "d_levels": [1], "scenarios": ["none", "hub_degree:0.1"]}

    async def scenario(client):
        job = await client.submit_experiment(spec, workers=1)
        return await client.wait_for_experiment(job["id"], poll=0.05, timeout=60)

    detail = drive(service, scenario)
    assert detail["status"] == "done"
    assert detail["spec"]["scenarios"] == ["none", "hub_degree:0.1"]
    scenarios = [record.get("scenario") for record in detail["records"]]
    assert scenarios.count("hub_degree:0.1") == 2  # one per replicate
    # scenario cells degrade the same generated graph: 2 builds, not 4
    assert counting_generator["count"] == 2


# --------------------------------------------------------------------------- #
# introspection endpoints
# --------------------------------------------------------------------------- #
def test_store_info_endpoint_matches_info_dict(service, tmp_path):
    async def scenario(client):
        await client.measure(metrics=["average_degree"], edges=EDGES)
        return await client.store_info()

    info = drive(service, scenario)
    expected = ArtifactStore(tmp_path / "store").info_dict()
    assert info == expected
    assert info["metrics"] >= 1


def test_stats_reports_routes_cache_and_admission(service, counting_generator):
    async def scenario(client):
        await client.generate(method=COUNTING, edges=EDGES, d=0, seed=9)
        await client.generate(method=COUNTING, edges=EDGES, d=0, seed=9)
        await client.healthz()
        return await client.stats()

    stats = drive(service, scenario)
    assert stats["requests"]["POST /v1/graphs"]["count"] == 2
    assert stats["requests"]["POST /v1/graphs"]["p95_ms"] >= 0
    assert stats["cache"]["miss"] == 1
    assert stats["cache"]["hit"] == 1
    assert stats["cache"]["hit_ratio"] == 0.5
    assert stats["admission"]["limit"] == 44  # 4 workers + 40 queue depth
    assert stats["coalescing"]["started"] == 2


def test_metrics_endpoint_serves_prometheus_exposition(service, counting_generator):
    from repro.service.httputil import encode_request, read_response

    async def scenario(client):
        # generate twice: one miss, one store-warm hit — then scrape raw
        # (the JSON client can't parse the text exposition)
        await client.generate(method=COUNTING, edges=EDGES, d=0, seed=4)
        await client.generate(method=COUNTING, edges=EDGES, d=0, seed=4)
        reader, writer = await asyncio.open_connection("127.0.0.1", client.port)
        writer.write(encode_request("GET", "/v1/metrics", keep_alive=False))
        await writer.drain()
        status, headers, body = await read_response(reader)
        writer.close()
        stats = await client.stats()
        return status, headers, body.decode("utf-8"), stats

    status, headers, text, stats = drive(service, scenario)
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    assert "version=0.0.4" in headers["content-type"]

    assert "# TYPE repro_requests_total counter" in text
    assert "# TYPE repro_request_latency_seconds summary" in text
    assert 'repro_requests_total{route="POST /v1/graphs",status="200"}' in text
    assert 'repro_service_cache_total{outcome="hit"}' in text
    assert 'repro_service_cache_total{outcome="miss"}' in text
    assert "repro_coalescer_started_total" in text
    assert 'repro_request_latency_seconds_count{route="POST /v1/graphs"}' in text

    # /v1/stats carries the process-global counter overview alongside
    telemetry = stats["telemetry"]
    assert telemetry["coalescer_started"] >= 2
    assert telemetry["store"]["graphs"]["writes"] >= 1


def test_http_error_statuses(service):
    async def scenario(client):
        results = {}
        with pytest.raises(RemoteServiceError) as err:
            await client._call("GET", "/v1/nope")
        results["unknown_route"] = err.value.status
        with pytest.raises(RemoteServiceError) as err:
            await client._call("GET", "/v1/graphs")
        results["wrong_method"] = err.value.status
        with pytest.raises(RemoteServiceError) as err:
            await client.generate(method="no-such-method", edges=EDGES)
        results["unknown_method"] = err.value.status
        with pytest.raises(RemoteServiceError) as err:
            await client.measure(metrics=["no_such_metric"], edges=EDGES)
        results["unknown_metric"] = err.value.status
        with pytest.raises(RemoteServiceError) as err:
            await client._call(
                "POST", "/v1/measure", {"metrics": ["average_degree"]}
            )  # no topology and no edges
        results["no_source"] = err.value.status
        with pytest.raises(RemoteServiceError) as err:
            await client._call(
                "POST", "/v1/experiments", {"spec": {"bogus_field": 1}}
            )
        results["bad_spec"] = err.value.status
        reader, writer = await asyncio.open_connection("127.0.0.1", client.port)
        writer.write(
            b"POST /v1/graphs HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n\r\nnotjs"
        )
        from repro.service.httputil import read_response

        status, _, _ = await read_response(reader)
        writer.close()
        results["bad_json"] = status
        return results

    results = drive(service, scenario)
    assert results == {
        "unknown_route": 404,
        "wrong_method": 405,
        "unknown_method": 400,
        "unknown_metric": 400,
        "no_source": 400,
        "bad_spec": 400,
        "bad_json": 400,
    }


# --------------------------------------------------------------------------- #
# cooperative cancellation in run_experiment (the machinery under the jobs)
# --------------------------------------------------------------------------- #
def ring_graph(n=20):
    return SimpleGraph.from_edges([(i, (i + 1) % n) for i in range(n)])


def test_run_experiment_cancel_inline_is_resumable(tmp_path, counting_generator):
    spec = ExperimentSpec(
        topologies=[ring_graph()],
        methods=[COUNTING],
        d_levels=[0, 1],
        replicates=2,
        metrics=["average_degree"],
    )
    cancel = threading.Event()

    def on_cell(done, total):
        assert total == 4
        if done >= 1:
            cancel.set()

    with pytest.raises(ExperimentInterrupted) as err:
        run_experiment(spec, store=tmp_path / "store", cancel=cancel, on_cell=on_cell)
    assert err.value.reason == "cancelled"
    partial = err.value.result
    assert partial is not None
    assert len(partial.records) == 1  # stopped at the first cell boundary

    result = run_experiment(spec, store=tmp_path / "store")
    assert len(result.records) == 4
    assert result.cached_cells == 1
    assert counting_generator["count"] == 4  # no cell was ever built twice


def test_run_experiment_keyboard_interrupt_inline(tmp_path, counting_generator):
    spec = ExperimentSpec(
        topologies=[ring_graph()],
        methods=[COUNTING],
        d_levels=[0, 1],
        replicates=2,
        metrics=["average_degree"],
        generator_options={COUNTING: {"interrupt_at": 3}},
    )
    with pytest.raises(ExperimentInterrupted) as err:
        run_experiment(spec, store=tmp_path / "store")
    assert err.value.reason == "interrupt"
    assert len(err.value.result.records) == 2  # the two cells before the interrupt


def test_run_experiment_cancel_pool_drains_and_resumes(tmp_path, hot_small):
    # enough cells that most are still queued when the first one completes:
    # the break happens at a cell boundary, in-flight cells drain, queued
    # ones are abandoned before starting
    spec = ExperimentSpec(
        topologies=[hot_small],
        methods=["pseudograph"],
        d_levels=[1, 2],
        replicates=8,
        metrics=["average_degree"],
    )
    total = len(spec.cells())
    cancel = threading.Event()

    def on_cell(done, _total):
        if done >= 1:
            cancel.set()

    store = tmp_path / "store"
    with pytest.raises(ExperimentInterrupted) as err:
        run_experiment(spec, workers=2, store=store, cancel=cancel, on_cell=on_cell)
    assert err.value.reason == "cancelled"
    partial = err.value.result
    assert 1 <= len(partial.records) < total

    result = run_experiment(spec, workers=2, store=store)
    assert len(result.records) == total
    assert result.cached_cells >= len(partial.records)


def test_run_experiment_without_cancel_unchanged(tmp_path, counting_generator):
    spec = ExperimentSpec(
        topologies=[ring_graph()],
        methods=[COUNTING],
        d_levels=[0],
        replicates=2,
        metrics=["average_degree"],
    )
    result = run_experiment(spec, store=tmp_path / "store")
    assert len(result.records) == 2
    assert counting_generator["count"] == 2
