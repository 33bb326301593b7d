"""The workloads of the dK-pipeline benchmark.

Four parts each follow one of the paper's own pipelines, and ``WORKLOADS``
joins them, two to a workload.  Each part exposes:

* ``setup()`` -- topology construction and target-distribution extraction
  (the inputs every op starts from);
* ``op(i)`` -- one closed-loop operation; every random stream it draws is
  derived from ``(seed, i)``, so a seed repeats the same work;
* ``check(outputs)`` -- correctness checks that hold for any random stream
  (dK invariants, sum identities, hash round trips), so they keep passing
  when a later change alters the chains' streams.

The topologies are built from fixed seeds, so run-to-run spread measures the
code rather than the draw of one input graph; ``--seed`` drives every random
stream of the ops.  Sizes are chosen so that one part takes about a second
on a 2-core machine: a run then holds enough ops for a median and a tail
percentile.

Layer boundaries are marked with ``repro.telemetry.span`` around each call
into a layer's public function.  The spans cost one check per call while
tracing is off, which is how every end-to-end figure is measured.  The
measurement intermediates (sweep, triangles, moments, spectrum) come from
the spans the library already emits inside ``MeasurementPlan.run``.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from pathlib import Path

import numpy as np

from repro.core.distance import distance_3k
from repro.core.extraction import dk_distribution
from repro.core.randomness import dk_random_graph
from repro.generators.exploration import explore_2k
from repro.generators.registry import get_generator
from repro.generators.streaming import streaming_pseudograph_2k
from repro.graph.mmap_io import biggraph_content_hash
from repro.kernels.backend import AUTO_THRESHOLD, resolve_backend
from repro.measure.intermediates import shared_target
from repro.measure.plan import TABLE2_CORE_METRICS, MeasurementPlan
from repro.metrics.spectrum import DENSE_LIMIT
from repro.rescaling.rescale import rescale_jdd
from repro.store.artifact_store import ArtifactStore
from repro.telemetry import counter_value, span
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.hot import synthetic_hot_topology
from repro.workloads import WORKLOAD_METRICS, Scenario, apply_scenario

#: seed of every topology; fixed so that a run's spread is not the input draw
TOPOLOGY_SEED = 2006

#: intermediate kinds whose cache outcomes the isolation check watches
CACHE_KINDS = ("sweep", "triangles", "edge_moments", "second_order", "spectrum")


def op_rng(seed: int, op: int, stream: int) -> np.random.Generator:
    """The random stream ``stream`` of op ``op`` under workload seed ``seed``."""
    return np.random.default_rng((seed, op, stream))


def measure(graph, plan: MeasurementPlan, rng, *, brandes: bool = False):
    """``plan.run`` with the giant component extracted under its own span.

    ``shared_target`` caches the component on the graph, so ``plan.run``
    does the same total work it would do alone.
    """
    with span("measure.plan", brandes=brandes):
        with span("measure.gcc"):
            shared_target(graph, use_giant_component=plan.use_giant_component)
        return plan.run(graph, rng=rng)


def finite_values(measurement) -> bool:
    return all(
        math.isfinite(value)
        for value in measurement.as_dict().values()
        if isinstance(value, (int, float))
    )


class Workload:
    """Base class of a part: a named pipeline with setup, op and check."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.params: dict = {"seed": seed}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError

    def cleanup(self, outputs) -> None:
        """Release what one op left on disk (untimed)."""


class AsDkSeries(Workload):
    """Table 6: skitter-like AS → dK-random graphs d=0..3 → Table 2."""

    name = "as_dk_series"

    NODES = 2600  # above DENSE_LIMIT (2500) and AUTO_THRESHOLD (1024)
    REWIRING_MULTIPLIER = 1.0  # accepted moves per edge (the paper uses 10)
    DISTANCE_SOURCES = 300

    def setup(self) -> None:
        with span("topologies.build"):
            self.graph = synthetic_as_topology(self.NODES, rng=TOPOLOGY_SEED)
        with span("core.extract"):
            self.targets = {d: dk_distribution(self.graph, d) for d in range(4)}
        # The spectrum runs on the 3K graph only: four shift-invert solves
        # would make one op about 2.5 s here, too few ops per run for a tail.
        self.plain_plan = MeasurementPlan.table2(
            compute_spectrum=False, distance_sources=self.DISTANCE_SOURCES
        )
        self.spectrum_plan = MeasurementPlan.table2(
            compute_spectrum=True, distance_sources=self.DISTANCE_SOURCES
        )
        self.params.update(
            n=self.graph.number_of_nodes,
            m=self.graph.number_of_edges,
            topology="synthetic_as_topology",
            topology_seed=TOPOLOGY_SEED,
            rewiring_multiplier=self.REWIRING_MULTIPLIER,
            distance_sources=self.DISTANCE_SOURCES,
            spectrum_on="d=3 graph",
            auto_threshold=AUTO_THRESHOLD,
            dense_limit=DENSE_LIMIT,
        )

    def op(self, i: int):
        outputs = []
        for d in range(4):
            with span("generators.rewire", d=d) as sp:
                result = dk_random_graph(
                    self.graph,
                    d,
                    rng=op_rng(self.seed, i, d),
                    rewiring_multiplier=self.REWIRING_MULTIPLIER,
                    return_result=True,
                )
                sp.set(
                    accepted=result.stats["accepted_moves"],
                    attempted=result.stats["attempted_moves"],
                )
            plan = self.spectrum_plan if d == 3 else self.plain_plan
            measurement = measure(result.graph, plan, op_rng(self.seed, i, 10 + d))
            outputs.append((d, result, measurement))
        return outputs

    def check(self, outputs) -> list[str]:
        problems = []
        for d, result, measurement in outputs:
            self.params[f"engine_rewire_d{d}"] = result.stats.get("engine")
            self.params[f"attempted_d{d}"] = result.stats["attempted_moves"]
            if dk_distribution(result.graph, d) != self.targets[d]:
                problems.append(f"d={d}: rewired graph lost P_{d}")
            if not finite_values(measurement):
                problems.append(f"d={d}: non-finite Table-2 value")
            if d == 3 and not 0.0 < measurement["lambda_1"] <= 2.0:
                problems.append(f"d=3: lambda_1={measurement['lambda_1']} outside (0, 2]")
        self.params["measure_backend"] = resolve_backend(shared_target(outputs[0][1].graph))
        return problems


class DkSpaceSearch(Workload):
    """Tables 4 and 7: 3K targeting on HOT, 2K explorations on skitter-like."""

    name = "dk_space_search"

    HOT_NODES = 939  # the paper's HOT size; below AUTO_THRESHOLD -> python engine
    TARGET_ATTEMPTS_PER_EDGE = 4
    EXPLORE_NODES = 400
    EXPLORE_ATTEMPTS_PER_EDGE = 1
    DISTANCE_SOURCES = 100
    OBJECTIVES = (("clustering", "min"), ("clustering", "max"), ("s2", "min"), ("s2", "max"))

    def setup(self) -> None:
        with span("topologies.build"):
            self.hot = synthetic_hot_topology(self.HOT_NODES, rng=TOPOLOGY_SEED)
            self.as_graph = synthetic_as_topology(self.EXPLORE_NODES, rng=TOPOLOGY_SEED)
        with span("core.extract"):
            self.hot_3k = dk_distribution(self.hot, 3)
            self.as_jdd = dk_distribution(self.as_graph, 2)
        self.target_attempts = self.TARGET_ATTEMPTS_PER_EDGE * self.hot.number_of_edges
        self.explore_attempts = self.EXPLORE_ATTEMPTS_PER_EDGE * self.as_graph.number_of_edges
        # the attempt budget is fixed: 3K targeting on HOT does not reliably
        # reach distance 0, and a fixed budget keeps every op the same work
        self.targeting = get_generator("targeting")
        self.plan = MeasurementPlan.table2(distance_sources=self.DISTANCE_SOURCES)
        self.whole_graph_plan = MeasurementPlan(
            ("mean_clustering", "second_order_likelihood"), use_giant_component=False
        )
        self.params.update(
            hot_n=self.hot.number_of_nodes,
            hot_m=self.hot.number_of_edges,
            explore_n=self.as_graph.number_of_nodes,
            explore_m=self.as_graph.number_of_edges,
            topology_seed=TOPOLOGY_SEED,
            target3k_attempt_budget=self.target_attempts,
            explore_attempt_budget=self.explore_attempts,
            distance_sources=self.DISTANCE_SOURCES,
            engine_target3k=resolve_backend(self.hot),
            engine_explore="python (no engine selection)",
            measure_backend=resolve_backend(self.hot),
            dense_limit=DENSE_LIMIT,
        )

    def op(self, i: int):
        with span("generators.target3k") as sp:
            targeted = self.targeting.build(
                self.hot_3k,
                3,
                rng=op_rng(self.seed, i, 0),
                max_attempts=self.target_attempts,
            )
            sp.set(
                accepted=targeted.stats["accepted_moves"],
                attempted=targeted.stats["attempted_moves"],
            )
        measurements = [measure(targeted.graph, self.plan, op_rng(self.seed, i, 1))]
        explorations = []
        for k, (metric, mode) in enumerate(self.OBJECTIVES):
            with span("generators.explore", metric=metric, mode=mode) as sp:
                run = explore_2k(
                    self.as_graph,
                    metric,
                    mode,
                    rng=op_rng(self.seed, i, 2 + k),
                    max_attempts=self.explore_attempts,
                )
                sp.set(accepted=run.accepted_moves, attempted=run.attempted_moves)
            explorations.append((metric, mode, run))
            measurements.append(measure(run.graph, self.plan, op_rng(self.seed, i, 6 + k)))
        return targeted, explorations, measurements

    def check(self, outputs) -> list[str]:
        targeted, explorations, measurements = outputs
        problems = []
        # Under a fixed budget the chain stops short of P_3, and its matching
        # seed may already miss the JDD by an edge, so the check is that the
        # chain's incremental distance agrees with a fresh extraction.
        distance = distance_3k(dk_distribution(targeted.graph, 3), self.hot_3k)
        if distance != targeted.stats["distance"]:
            problems.append(
                f"targeting: reported 3K distance {targeted.stats['distance']} "
                f"!= recomputed {distance}"
            )
        for metric, mode, run in explorations:
            label = f"explore {metric} {mode}"
            if dk_distribution(run.graph, 2) != self.as_jdd:
                problems.append(f"{label}: output lost the JDD")
            start = run.metric_trace[0]
            if (mode == "max" and run.metric_value < start) or (
                mode == "min" and run.metric_value > start
            ):
                problems.append(f"{label}: ended at {run.metric_value} past start {start}")
            # the tracked objective covers the whole graph, which a run may
            # split into several components; Table 2 sees only the GCC
            name = "mean_clustering" if metric == "clustering" else "second_order_likelihood"
            measured = self.whole_graph_plan.run(run.graph)[name]
            if not math.isclose(measured, run.metric_value, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{label}: tracked {run.metric_value} != measured {measured}")
        for measurement in measurements:
            if not finite_values(measurement) or not 0.0 < measurement["lambda_1"] <= 2.0:
                problems.append("non-finite Table-2 value or lambda_1 outside (0, 2]")
        return problems


class AsRouting(Workload):
    """Traffic workload: routing load before and after removing the top hubs."""

    name = "as_routing"

    NODES = 1100  # above AUTO_THRESHOLD -> csr Brandes
    DISTANCE_SOURCES = 256
    SCENARIO = Scenario("hub_degree", 0.01)
    METRICS = WORKLOAD_METRICS + ("edge_load", "mean_distance")

    def setup(self) -> None:
        with span("topologies.build"):
            self.graph = synthetic_as_topology(self.NODES, rng=TOPOLOGY_SEED)
        # sampled sources: an exact sweep at this n takes about 1 s per graph
        self.plan = MeasurementPlan(self.METRICS, distance_sources=self.DISTANCE_SOURCES)
        self.params.update(
            n=self.graph.number_of_nodes,
            m=self.graph.number_of_edges,
            topology_seed=TOPOLOGY_SEED,
            distance_sources=self.DISTANCE_SOURCES,
            scenario=self.SCENARIO.label,
            metrics=list(self.METRICS),
            measure_backend=resolve_backend(self.graph),
            auto_threshold=AUTO_THRESHOLD,
        )

    def op(self, i: int):
        with span("graph.copy"):
            intact = self.graph.copy()
        before = measure(intact, self.plan, op_rng(self.seed, i, 0), brandes=True)
        with span("workloads.scenario"):
            attacked, info = apply_scenario(intact, self.SCENARIO)
        after = measure(attacked, self.plan, op_rng(self.seed, i, 1), brandes=True)
        return before, info, after

    def check(self, outputs) -> list[str]:
        before, info, after = outputs
        problems = []
        # Σ_e load(e) over n(n-1)/2 demand pairs is the mean path length.  The
        # sampled distance histogram is rounded to whole pair counts, which
        # moves the mean by about D²/(4·n²·d̄) ≈ 1e-6 (D the diameter).
        for label, measurement in (("intact", before), ("attacked", after)):
            total = math.fsum(measurement["edge_load"])
            if not math.isclose(total, measurement["mean_distance"], rel_tol=1e-5):
                problems.append(
                    f"{label}: edge-load sum {total} != mean distance "
                    f"{measurement['mean_distance']}"
                )
        expected = math.ceil(self.SCENARIO.fraction * self.graph.number_of_nodes)
        if info["removed_nodes"] != expected:
            problems.append(f"scenario removed {info['removed_nodes']} hubs, not {expected}")
        return problems


class RescaleGen(Workload):
    """§5.2 rescaling: P_2 → rescaled JDD → streamed BigGraph → store → Table 2."""

    name = "rescale_2e5"

    SOURCE_NODES = 2000
    TARGET_NODES = 200_000
    DISTANCE_SOURCES = 64

    def setup(self) -> None:
        with span("topologies.build"):
            source = synthetic_as_topology(self.SOURCE_NODES, rng=TOPOLOGY_SEED)
        with span("core.extract"):
            self.jdd = dk_distribution(source, 2)
        shutil.rmtree(self.workdir / "store", ignore_errors=True)
        self.store = ArtifactStore(self.workdir / "store")
        self.plan = MeasurementPlan(TABLE2_CORE_METRICS, distance_sources=self.DISTANCE_SOURCES)
        self.params.update(
            source_n=source.number_of_nodes,
            source_m=source.number_of_edges,
            topology_seed=TOPOLOGY_SEED,
            target_n=self.TARGET_NODES,
            distance_sources=self.DISTANCE_SOURCES,
            generator="streaming_pseudograph_2k",
            measure_backend="biggraph",
        )

    def op(self, i: int):
        rng = op_rng(self.seed, i, 0)
        key = hashlib.sha256(f"perfbench:{self.seed}:{i}".encode()).hexdigest()
        with span("rescaling.rescale"):
            jdd = rescale_jdd(self.jdd, self.TARGET_NODES, rng=rng)
        with span("generators.stream") as sp:
            generated = streaming_pseudograph_2k(jdd, rng=rng, path=self.workdir / f"gen-{i}")
            sp.set(edges=generated.m)
        written = counter_value("repro_store_write_bytes_total", category="biggraphs")
        with span("store.put") as sp:
            self.store.put_biggraph(key, generated)
            sp.set(
                bytes=counter_value("repro_store_write_bytes_total", category="biggraphs")
                - written
            )
        with span("store.get"):
            loaded = self.store.get_biggraph(key)
        measurement = measure(loaded, self.plan, op_rng(self.seed, i, 1))
        return i, key, generated, loaded, measurement

    def check(self, outputs) -> list[str]:
        _i, _key, generated, loaded, measurement = outputs
        problems = []
        self.params["n"], self.params["m"] = generated.n, generated.m
        self.params["index_dtype"] = np.dtype(loaded.indices.dtype).name
        recomputed = biggraph_content_hash(loaded.indptr, loaded.indices)
        if not generated.content_hash or recomputed != generated.content_hash:
            problems.append("store round trip changed the content hash")
        gcc = shared_target(loaded)
        if (measurement["nodes"], measurement["edges"]) != (gcc.n, gcc.m):
            problems.append(
                f"measured {measurement['nodes']}/{measurement['edges']} "
                f"!= GCC {gcc.n}/{gcc.m}"
            )
        if not 0 < gcc.n <= generated.n or not finite_values(measurement):
            problems.append("GCC size or Table-2 values out of range")
        return problems

    def cleanup(self, outputs) -> None:
        i, key, *_rest = outputs
        shutil.rmtree(self.workdir / f"gen-{i}", ignore_errors=True)
        stored = self.store.biggraph_path(key)
        if stored is not None:
            shutil.rmtree(stored, ignore_errors=True)


class Pipeline:
    """A benchmark workload: its parts run back to back as one op.

    Each part is one of the paper's pipelines above.  The two workloads
    split the layers between them, so that every layer is exercised by one
    workload and bypassed by the other.  Joining parts into one op, rather
    than running each part as a workload of its own, gives each run twice
    the measured time within the same total benchmark time; on a shared
    host whose speed drifts by tens of percent over seconds to minutes,
    longer runs are what keep the run-to-run spread inside the bounds.
    """

    def __init__(self, name: str, parts, seed: int, workdir: Path):
        self.name = name
        self.parts = [cls(seed, workdir) for cls in parts]
        self.params: dict = {"seed": seed}

    def setup(self) -> None:
        for part in self.parts:
            part.setup()
            self.params[part.name] = part.params

    def op(self, i: int):
        return [part.op(i) for part in self.parts]

    def check(self, outputs) -> list[str]:
        return [
            f"{part.name}: {problem}"
            for part, part_outputs in zip(self.parts, outputs)
            for problem in part.check(part_outputs)
        ]

    def cleanup(self, outputs) -> None:
        for part, part_outputs in zip(self.parts, outputs):
            part.cleanup(part_outputs)


#: workload name -> its parts; rewiring, exploration and the spectrum run
#: only in the first, Brandes, streaming generation and the store only in
#: the second, and both run the Table-2 sweep
WORKLOADS = {
    "dk_series_search": (AsDkSeries, DkSpaceSearch),
    "routing_rescale": (AsRouting, RescaleGen),
}
