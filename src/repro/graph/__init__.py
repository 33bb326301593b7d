"""Graph substrate: simple-graph data structure, components, I/O.

Re-exports are lazy (PEP 562), so ``import repro.graph`` imports none of
the modules below until one of their names is used.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SimpleGraph": "repro.graph.simple_graph",
    "canonical_edge": "repro.graph.simple_graph",
    "connected_components": "repro.graph.components",
    "giant_component": "repro.graph.components",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
