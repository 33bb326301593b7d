"""Graph substrate: simple-graph data structure, components, I/O.

Re-exports are lazy (PEP 562): the substrate is pure Python except the
networkx/adjacency-matrix conversion helpers.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SimpleGraph": "repro.graph.simple_graph",
    "canonical_edge": "repro.graph.simple_graph",
    "connected_components": "repro.graph.components",
    "giant_component": "repro.graph.components",
    "is_connected": "repro.graph.components",
    "largest_component_nodes": "repro.graph.components",
    "number_of_components": "repro.graph.components",
    "from_networkx": "repro.graph.conversion",
    "to_networkx": "repro.graph.conversion",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
