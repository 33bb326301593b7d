"""Million-node tier benchmark: streaming generation + sampled measurement.

Rescales the 500-node HOT topology (the paper's §5.2 rescaling extension) to
n ∈ {10^5, 10^6} — and 10^7 when FULL_SCALE is on and the machine has the
RAM — generates each size with the streaming 2K pseudograph pipeline straight
into an on-disk memory-mapped CSR artifact, and records into
BENCH_results.json:

* generation throughput (wall time + edges/sec) per size,
* the sampled Table-2 core battery wall time on the CSR kernels per
  size — these are the n >= 10^6 rows behind ``"full_scale": true``.

The acceptance bar of the tier runs in clean subprocesses (so each path's
peak RSS is its own): at n = 10^5 the streaming path must be >= 5x faster
and allocate >= 10x less peak memory than the ``SimpleGraph`` path fed the
same rescaled JDD.  Both paths run the one 2K pseudograph construction and
are measured end-to-end to the same state — a persisted,
content-addressed, measurement-ready artifact: the streaming side
generates straight into an on-disk BigGraph; the ``SimpleGraph`` side
(``pseudograph_2k``) builds the same construction in memory, materializes
it as a ``SimpleGraph``, content-hashes it and stores it through the
artifact store, as the experiment pipeline does.  Each child resets its peak-RSS
counter (``/proc/self/clear_refs``) after setup, so the reported peak is
the generation phase alone — ``ru_maxrss`` would inherit the forked
parent's resident set and swamp the signal.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from benchmarks._common import FULL_SCALE, GENERATION_SEED, HOT_SEED, record_result
from repro.core.extraction import dk_distribution
from repro.measure.plan import TABLE2_CORE_METRICS, MeasurementPlan
from repro.rescaling.rescale import rescale_jdd
from repro.topologies.hot import synthetic_hot_topology

#: size of the measured "small" topology every run rescales from
SOURCE_NODES = 500


def _available_ram_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


SIZES = [100_000, 1_000_000]
if FULL_SCALE and _available_ram_bytes() >= 32 * 2**30:
    SIZES.append(10_000_000)

#: n -> sampled BFS sources for the Table-2 battery (exact would take hours)
DISTANCE_SOURCES = {100_000: 256, 1_000_000: 128, 10_000_000: 64}

#: generated BigGraphs shared between the generation and measurement benches
_STATE: dict[int, object] = {}


def _source_jdd():
    if "jdd" not in _STATE:
        small = synthetic_hot_topology(SOURCE_NODES, rng=HOT_SEED)
        _STATE["jdd"] = dk_distribution(small, 2)
    return _STATE["jdd"]


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bigscale")


@pytest.mark.parametrize("n", SIZES)
def test_bigscale_generation_throughput(n, artifact_dir):
    from repro.generators.streaming import streaming_pseudograph_2k

    rng = np.random.default_rng(GENERATION_SEED)
    jdd = rescale_jdd(_source_jdd(), n, rng=rng)
    start = time.perf_counter()
    graph = streaming_pseudograph_2k(jdd, rng=rng, path=artifact_dir / f"big{n}")
    wall = time.perf_counter() - start
    _STATE[n] = graph
    record_result(f"bigscale_generate_n{n}", wall, n=graph.n, m=graph.m)
    record_result(
        f"bigscale_generate_edges_per_sec_n{n}", graph.m / wall, n=graph.n, m=graph.m
    )
    print(f"\nstreaming 2K at n={n:,}: {graph.m:,} edges in {wall:.2f}s "
          f"({graph.m / wall:,.0f} edges/s)")


@pytest.mark.parametrize("n", SIZES)
def test_bigscale_table2_sampled(n):
    graph = _STATE.get(n)
    if graph is None:
        pytest.skip("the generation bench for this size did not run")
    plan = MeasurementPlan(TABLE2_CORE_METRICS, distance_sources=DISTANCE_SOURCES[n])
    start = time.perf_counter()
    measurement = plan.run(graph, rng=np.random.default_rng(GENERATION_SEED))
    wall = time.perf_counter() - start
    record_result(
        f"bigscale_table2_n{n}",
        wall,
        n=graph.n,
        m=graph.m,
        distance_sources=DISTANCE_SOURCES[n],
    )
    print(f"\nsampled Table-2 at n={n:,}: {wall:.2f}s "
          f"(mean distance {measurement['mean_distance']:.3f})")


# --------------------------------------------------------------------------- #
# acceptance bar: streaming vs the SimpleGraph path at n = 10^5
# --------------------------------------------------------------------------- #

#: One run in a clean interpreter: rebuild the rescaled JDD (setup, outside
#: the window), reset the kernel's peak-RSS counter, then drive the requested
#: path to a persisted content-addressed artifact and report wall time + the
#: peak-RSS bytes the window itself touched.
_CHILD = r"""
import json, sys, time

mode, n, gen_seed, hot_seed, out_dir = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
)

import numpy as np
from repro.core.extraction import dk_distribution
from repro.generators.pseudograph import pseudograph_2k
from repro.generators.streaming import streaming_pseudograph_2k
from repro.graph.mmap_io import graph_content_hash
from repro.rescaling.rescale import rescale_jdd
from repro.store.artifact_store import ArtifactStore
from repro.topologies.hot import synthetic_hot_topology

small = synthetic_hot_topology(500, rng=hot_seed)
rng = np.random.default_rng(gen_seed)
jdd = rescale_jdd(dk_distribution(small, 2), n, rng=rng)
store = ArtifactStore(out_dir + "/store-" + mode)


def rss():
    values = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(("VmRSS:", "VmHWM:")):
                values[line.split(":")[0]] = int(line.split()[1]) * 1024
    return values


# Reset the peak-RSS high-water mark so VmHWM tracks this window only;
# without it a child forked from a large parent inherits its peak.
with open("/proc/self/clear_refs", "w") as fh:
    fh.write("5")
base = rss()["VmRSS"]
start = time.perf_counter()
if mode == "streaming":
    graph = streaming_pseudograph_2k(jdd, rng=rng, path=out_dir + "/big")
    content = graph.content_hash
    nodes, edges = graph.n, graph.m
else:
    graph = pseudograph_2k(jdd, rng=rng)
    content = graph_content_hash(graph)
    store.put_graph(content, graph)
    nodes, edges = graph.number_of_nodes, graph.number_of_edges
wall = time.perf_counter() - start
peak = rss()["VmHWM"]
print(json.dumps(
    {"wall": wall, "peak_delta": max(peak - base, 1), "n": nodes, "m": edges}
))
"""


def _generate_in_subprocess(mode: str, n: int, out_dir, *, rounds: int = 2) -> dict:
    """Best-of-``rounds`` wall time and peak RSS for one generation path."""
    best = None
    for round_index in range(rounds):
        # fresh directory per round so the store cannot dedup a repeat run
        completed = subprocess.run(
            [sys.executable, "-c", _CHILD, mode, str(n), str(GENERATION_SEED),
             str(HOT_SEED), f"{out_dir}-r{round_index}"],
            capture_output=True,
            text=True,
            check=True,
            env=os.environ.copy(),
        )
        sample = json.loads(completed.stdout.strip().splitlines()[-1])
        if best is None:
            best = sample
        else:
            best["wall"] = min(best["wall"], sample["wall"])
            best["peak_delta"] = min(best["peak_delta"], sample["peak_delta"])
    return best


def test_bigscale_streaming_vs_simplegraph_path(artifact_dir):
    """Streaming >= 5x faster and >= 10x smaller peak RSS at n = 10^5."""
    n = 100_000
    streaming = _generate_in_subprocess("streaming", n, artifact_dir / "cmp")
    eager = _generate_in_subprocess("simplegraph", n, artifact_dir / "cmp")

    speedup = eager["wall"] / streaming["wall"]
    rss_ratio = eager["peak_delta"] / streaming["peak_delta"]
    record_result(f"bigscale_streaming_wall_n{n}", streaming["wall"],
                  n=streaming["n"], m=streaming["m"])
    record_result(f"bigscale_simplegraph_wall_n{n}", eager["wall"],
                  n=eager["n"], m=eager["m"])
    record_result(f"bigscale_streaming_speedup_n{n}", speedup,
                  n=n, m=streaming["m"],
                  streaming_peak_rss=streaming["peak_delta"],
                  simplegraph_peak_rss=eager["peak_delta"],
                  peak_rss_ratio=rss_ratio)
    print(f"\nstreaming vs SimpleGraph at n={n:,}: {speedup:.1f}x faster, "
          f"{rss_ratio:.1f}x smaller peak RSS "
          f"({streaming['peak_delta'] / 2**20:.0f} vs "
          f"{eager['peak_delta'] / 2**20:.0f} MiB)")
    assert speedup >= 5.0, (streaming, eager)
    assert rss_ratio >= 10.0, (streaming, eager)
