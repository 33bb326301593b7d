"""Telemetry quickstart: trace an experiment and read the counters.

Walks the observability surface end to end:

1. enable tracing and run a small experiment grid (two worker processes —
   the workers' spans ship back and land in the same trace),
2. write the Chrome trace-event file (open it in ``chrome://tracing`` or
   https://ui.perfetto.dev) and inspect the span tree,
3. read the process-global counters that are always on — store traffic,
   memoization hits, rewiring moves — and print the same Prometheus text
   the service's ``GET /v1/metrics`` endpoint serves.

Usage::

    python examples/telemetry_quickstart.py

The CLI equivalent of steps 1–2 is::

    repro trace -o trace.json run-experiment --topology hot_small \
        --method rewiring -d 0 -d 2 --store /tmp/store --resume
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

from repro import ExperimentSpec, run_experiment, telemetry


def main() -> None:
    # 1. enable tracing (off by default; one truthiness check per span when
    # disabled) and run a grid with an artifact store
    telemetry.enable_tracing()
    workdir = Path(tempfile.mkdtemp(prefix="repro-telemetry-"))

    spec = ExperimentSpec(
        topologies=("hot_small",),
        methods=("rewiring",),
        d_levels=(0, 1, 2),
        replicates=1,
        seed=1,
        metrics=("average_degree", "assortativity", "mean_distance"),
    )
    run_experiment(spec, workers=2, store=workdir / "store", resume=True)

    # 2. export the Chrome trace and summarize the span tree
    trace_path = workdir / "trace.json"
    events = telemetry.take_events()
    telemetry.write_chrome_trace(str(trace_path), events)
    print(f"trace with {len(events)} spans written to {trace_path}")

    by_name = Counter(event["name"] for event in events)
    pids = {event["pid"] for event in events}
    print(f"spans from {len(pids)} processes (parent + pool workers):")
    for name, count in sorted(by_name.items()):
        total_ms = sum(e["dur"] for e in events if e["name"] == name) / 1000.0
        print(f"  {name:28s} x{count:<3d} {total_ms:8.1f} ms total")

    # 3. counters are always on — no enable step needed
    print("\nstore traffic this process (parent + merged worker deltas):")
    # every graph, SimpleGraph or BigGraph, is one CSR artifact in `biggraphs`
    for category in ("biggraphs", "metrics", "cells"):
        hits = telemetry.counter_value(
            "repro_store_reads_total", category=category, outcome="hit"
        )
        misses = telemetry.counter_value(
            "repro_store_reads_total", category=category, outcome="miss"
        )
        writes = telemetry.counter_value("repro_store_writes_total", category=category)
        print(f"  {category:9s} hits={hits:<4g} misses={misses:<4g} writes={writes:g}")

    # a warm re-run: every cell comes back from the store
    result = run_experiment(spec, store=workdir / "store", resume=True)
    print(f"\nwarm re-run: {result.cached_cells}/{len(result.records)} cells cached")
    cells = [e for e in telemetry.take_events() if e["name"] == "experiment.cell"]
    print(f"cache attributes: {[e['args'].get('cache') for e in cells]}")

    # the process part of the text GET /v1/metrics serves (first lines)
    exposition = telemetry.render_prometheus()
    print("\nPrometheus exposition (excerpt):")
    for line in exposition.splitlines()[:12]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
