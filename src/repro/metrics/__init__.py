"""Topology metrics (Section 2 of the paper).

Only the spectrum metrics import SciPy's eigensolvers, so exactly those
re-exports are lazy (PEP 562) to keep importing the package cheap.  The rest are eager — importantly, the ``assortativity``
*function* must be bound on the package after the ``assortativity``
*submodule*, or the module object would shadow it.
"""

from repro._lazy import lazy_exports
from repro.metrics.assortativity import (
    assortativity,
    likelihood,
    second_order_likelihood,
)
from repro.metrics.betweenness import (
    betweenness_by_degree,
    edge_betweenness,
    node_betweenness,
)
from repro.metrics.clustering import (
    clustering_by_degree,
    local_clustering_coefficients,
    mean_clustering,
    transitivity,
)
from repro.metrics.degree import (
    average_degree,
    max_degree,
)
from repro.metrics.distances import (
    diameter,
    distance_distribution,
    distance_histogram,
    distance_std,
    mean_distance,
    sample_sources,
)
from repro.metrics.summary import summarize

_EXPORTS = {
    "extreme_eigenvalues": "repro.metrics.spectrum",
    "laplacian_spectrum": "repro.metrics.spectrum",
    "normalized_laplacian": "repro.metrics.spectrum",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "assortativity",
    "likelihood",
    "second_order_likelihood",
    "betweenness_by_degree",
    "edge_betweenness",
    "node_betweenness",
    "clustering_by_degree",
    "local_clustering_coefficients",
    "mean_clustering",
    "transitivity",
    "average_degree",
    "max_degree",
    "sample_sources",
    "diameter",
    "distance_distribution",
    "distance_histogram",
    "distance_std",
    "mean_distance",
    "summarize",
    *_EXPORTS,
]
