"""HOT router-level topology study (the paper's hard case, Section 5.2).

Reproduces the argument of Li et al. and of the paper: the degree
distribution alone (1K) is *not* enough to describe an engineered
router-level topology, but the dK-series converges on it by d = 3.

The script also runs the 1K-space exploration (maximizing/minimizing the
likelihood S) that shows how structurally diverse 1K-graphs are.

Usage::

    python examples/hot_router_study.py
"""

from __future__ import annotations

from repro.analysis.convergence import convergence_from_experiment
from repro.analysis.figures import distance_distribution_series
from repro.analysis.tables import scalar_metrics_table, series_table
from repro.experiment import ExperimentSpec
from repro.generators.exploration import explore_1k_likelihood
from repro.metrics.assortativity import likelihood
from repro.topologies import build_topology


def main() -> None:
    original = build_topology("hot_small")
    print(f"HOT-like router topology: {original}")

    # Table 8 shape: convergence of the scalar metrics
    spec = ExperimentSpec(
        topologies=(original,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=3,
        include_original=True,
        compute_spectrum=True,
        keep_graphs=True,
    )
    study = convergence_from_experiment(spec.run())
    print()
    print(
        scalar_metrics_table(
            study.as_columns(original_label="HOT original"),
            title="Table 8 (reproduced): dK-random vs HOT-like topology",
        )
    )

    # Figure 8 shape: distance distributions of the same dK-random graphs
    graphs = {f"{d}K-random": study.sample_graphs[d] for d in (1, 2, 3)}
    graphs["HOT original"] = original
    print()
    print(
        series_table(
            distance_distribution_series(graphs),
            x_label="hops",
            title="Figure 8 (reproduced): distance distribution",
            max_rows=25,
        )
    )

    # 1K-space exploration: how much structural freedom does P(k) leave?
    base = likelihood(original)
    high = explore_1k_likelihood(original, "max", rng=5, max_attempts=20000)
    low = explore_1k_likelihood(original, "min", rng=5, max_attempts=20000)
    print("\n1K-space exploration of the likelihood S (Li et al.'s experiment):")
    print(f"  original S   = {base:.0f}")
    print(f"  minimum S    = {low.metric_value:.0f}")
    print(f"  maximum S    = {high.metric_value:.0f}")
    print(
        "  -> graphs with the SAME degree distribution span a huge S range, "
        "which is why d = 1 cannot pin down router-level topologies."
    )


if __name__ == "__main__":
    main()
