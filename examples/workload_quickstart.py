"""Traffic workloads over dK-reproductions: load, congestion, hub attacks.

The paper argues dK-series graphs reproduce the *practically important*
structure of a topology.  This example pushes that claim past static
metrics: it generates d = 0..3 reproductions of a HOT-like router topology,
routes uniform all-pairs demand over each (shortest paths, even splitting),
and compares the bottleneck link load and effective throughput — first
intact, then after a targeted attack removing the top-2% highest-degree
hubs.  One experiment grid, one Brandes sweep per graph.

Usage::

    python examples/workload_quickstart.py [nodes]
"""

from __future__ import annotations

import sys

from repro.analysis.tables import experiment_table
from repro.experiment import ExperimentSpec, run_experiment
from repro.topologies import synthetic_hot_topology
from repro.workloads import WORKLOAD_METRICS


def main(nodes: int = 300) -> None:
    original = synthetic_hot_topology(nodes, core_size=8, rng=7)
    print(f"HOT-like router topology: {original}\n")
    spec = ExperimentSpec(
        name="workload-quickstart",
        topologies=(original,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        replicates=1,
        seed=7,
        include_original=True,
        metrics=("nodes", "edges", *WORKLOAD_METRICS),
        scenarios=("none", "hub_degree:0.02"),
    )
    result = run_experiment(spec)
    print(
        experiment_table(
            result,
            columns=[(name, name) for name in WORKLOAD_METRICS],
            title="Bottleneck load and throughput: dK-reproductions vs the "
            "original,\nintact and under a top-2% hub attack",
        )
    )

    original = {
        record.scenario: record
        for record in result.records_for(method="original")
    }
    intact = original[None].metric_value("effective_throughput")
    attacked = original["hub_degree:0.02"].metric_value("effective_throughput")
    print(
        f"\nhub attack on the original: effective throughput "
        f"{intact:.3f} -> {attacked:.3f} "
        f"({100.0 * (1.0 - attacked / intact):.0f}% lost)"
    )
    print(
        "higher-d reproductions track the original's congestion profile more "
        "closely;\nd=0/1 randomizations spread load differently and degrade "
        "differently under attack."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
