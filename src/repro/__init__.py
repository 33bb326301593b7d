"""repro -- dK-series topology analysis and generation.

A pure-Python reproduction of "Systematic Topology Analysis and Generation
Using Degree Correlations" (Mahadevan, Krioukov, Fall, Vahdat -- SIGCOMM
2006): the dK-series of degree-correlation distributions, graph construction
algorithms for d = 0..3 (stochastic, pseudograph, matching, rewiring,
targeting), dK-space explorations, a topology-metric suite, synthetic
evaluation topologies, and the analysis harness that regenerates the paper's
tables and figures.

The construction algorithms live in a plugin registry
(:mod:`repro.generators.registry`): ``available_generators()`` lists them,
``register_generator`` adds new families, and every build can return a
:class:`GenerationResult` provenance envelope.  Batch evaluation is
declarative: an :class:`ExperimentSpec` names topologies × methods ×
d-levels × replicates and runs them — in parallel worker processes if asked
— into structured, JSON-serializable results.

Quickstart::

    from repro import SimpleGraph, dk_distribution, dk_random_graph, summarize
    from repro.topologies import build_topology

    original = build_topology("hot")
    jdd = dk_distribution(original, 2)          # analyze
    random_2k = dk_random_graph(original, 2)    # generate
    print(summarize(random_2k))                 # compare

Batch pipeline::

    from repro import ExperimentSpec

    spec = ExperimentSpec(
        topologies=("hot", "skitter_like"),
        methods=("rewiring", "pseudograph", "matching"),
        d_levels=(2,),
        replicates=3,
        include_original=True,
    )
    result = spec.run(workers=4)
    print(result.to_json())
"""

from repro._lazy import lazy_exports

__version__ = "1.15.0"

# Lazy re-exports (PEP 562): nothing heavy is imported until first attribute
# access, so `import repro` stays cheap.
_EXPORTS = {
    "SimpleGraph": "repro.graph.simple_graph",
    "canonical_edge": "repro.graph.simple_graph",
    "giant_component": "repro.graph.components",
    "AverageDegree": "repro.core.distributions",
    "DegreeDistribution": "repro.core.distributions",
    "JointDegreeDistribution": "repro.core.distributions",
    "ThreeKDistribution": "repro.core.distributions",
    "DKSeries": "repro.core.series",
    "dk_distribution": "repro.core.extraction",
    "dk_distance": "repro.core.distance",
    "graph_dk_distance": "repro.core.distance",
    "dk_random_graph": "repro.core.randomness",
    "GenerationResult": "repro.generators.registry",
    "GeneratorSpec": "repro.generators.registry",
    "available_generators": "repro.generators.registry",
    "get_generator": "repro.generators.registry",
    "register_generator": "repro.generators.registry",
    "ExperimentSpec": "repro.experiment",
    "ExperimentResult": "repro.experiment",
    "RunRecord": "repro.experiment",
    "run_experiment": "repro.experiment",
    "summarize": "repro.metrics.summary",
    "MeasurementPlan": "repro.measure.plan",
    "Measurement": "repro.measure.plan",
    "average_measurements": "repro.measure.plan",
    "available_metrics": "repro.measure.registry",
    "ArtifactStore": "repro.store.artifact_store",
    "graph_content_hash": "repro.graph.mmap_io",
    "memoized_build": "repro.store.memo",
    "memoized_measure": "repro.store.memo",
    "span": "repro.telemetry",
    "enable_tracing": "repro.telemetry",
    "disable_tracing": "repro.telemetry",
    "tracing_enabled": "repro.telemetry",
    "write_chrome_trace": "repro.telemetry",
    "counter_inc": "repro.telemetry",
    "counter_value": "repro.telemetry",
    "metrics_snapshot": "repro.telemetry",
    "render_prometheus": "repro.telemetry",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
