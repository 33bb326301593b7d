"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on the synthetic
evaluation topologies.  Sizes are scaled down (see DESIGN.md §3) so the whole
harness runs on a laptop in minutes; set ``REPRO_BENCH_SCALE=full`` to use the
paper-scale topologies instead.

Each benchmark prints its paper-style table to stdout (run pytest with ``-s``
or read the captured output blocks; the output of the final run is recorded
in EXPERIMENTS.md / bench_output.txt).
"""

from __future__ import annotations

import pytest

from benchmarks._common import AS_SEED, FULL_SCALE, HOT_SEED, write_results


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable BENCH_results.json document."""
    path = write_results()
    if path is not None:
        print(f"\nbenchmark results written to {path}")


@pytest.fixture(scope="session")
def hot_graph():
    """HOT-like router topology (939 nodes at full scale, 400 for benchmarks)."""
    from repro.topologies.hot import synthetic_hot_topology

    size = 939 if FULL_SCALE else 400
    return synthetic_hot_topology(size, rng=HOT_SEED)


@pytest.fixture(scope="session")
def skitter_graph():
    """Skitter-like AS topology (9204 nodes at full scale, 800 for benchmarks)."""
    from repro.topologies.as_level import synthetic_as_topology

    size = 9204 if FULL_SCALE else 800
    return synthetic_as_topology(size, rng=AS_SEED)
