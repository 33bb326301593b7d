"""AS-level topology study (the paper's skitter experiment, Section 5.2).

Builds a skitter-like AS topology, produces its dK-random counterparts and
reports the scalar-metric convergence table (Table 6) plus the clustering
profile C(k) (Figure 6c), demonstrating that d = 2 captures everything except
clustering and d = 3 captures clustering too.

Usage::

    python examples/as_topology_study.py [nodes]
"""

from __future__ import annotations

import sys

from repro.analysis.convergence import convergence_from_experiment
from repro.analysis.figures import clustering_series
from repro.analysis.tables import scalar_metrics_table, series_table
from repro.experiment import ExperimentSpec
from repro.topologies import synthetic_as_topology


def main(nodes: int = 800) -> None:
    original = synthetic_as_topology(nodes, rng=7)
    print(f"skitter-like AS topology: {original}")

    spec = ExperimentSpec(
        topologies=(original,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=1,
        include_original=True,
        distance_sources=200,
        compute_spectrum=True,
        keep_graphs=True,
    )
    study = convergence_from_experiment(spec.run())
    print()
    print(
        scalar_metrics_table(
            study.as_columns(original_label="AS original"),
            title="Table 6 (reproduced): dK-random vs AS-level topology",
        )
    )

    graphs = {f"{d}K-random": study.sample_graphs[d] for d in (1, 2, 3)}
    graphs["AS original"] = original
    print()
    print(
        series_table(
            clustering_series(graphs),
            x_label="degree",
            title="Figure 6c (reproduced): clustering C(k)",
            max_rows=20,
        )
    )
    print(
        "\n2K matches every scalar metric except clustering; the 3K column "
        "matches clustering as well."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
