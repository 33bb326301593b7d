"""The dK-series core: distributions, extraction, distances, entropy, series.

Re-exports are lazy (PEP 562): everything here is pure Python except
``dk_random_graph``, which pulls in the NumPy-based construction algorithms
on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AverageDegree": "repro.core.distributions",
    "DegreeDistribution": "repro.core.distributions",
    "JointDegreeDistribution": "repro.core.distributions",
    "ThreeKDistribution": "repro.core.distributions",
    "average_degree": "repro.core.extraction",
    "degree_distribution": "repro.core.extraction",
    "joint_degree_distribution": "repro.core.extraction",
    "three_k_distribution": "repro.core.extraction",
    "dk_distribution": "repro.core.extraction",
    "dk_distance": "repro.core.distance",
    "graph_dk_distance": "repro.core.distance",
    "distance_0k": "repro.core.distance",
    "distance_1k": "repro.core.distance",
    "distance_2k": "repro.core.distance",
    "distance_3k": "repro.core.distance",
    "poisson_degree_pmf": "repro.core.entropy",
    "maximum_entropy_degree_distribution": "repro.core.entropy",
    "maximum_entropy_jdd": "repro.core.entropy",
    "dk_random_graph": "repro.core.randomness",
    "DKSeries": "repro.core.series",
    "SUPPORTED_D": "repro.core.series",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
