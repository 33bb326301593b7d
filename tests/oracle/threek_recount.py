"""The 3K delta of one swap by recount: the oracle of the engine's evaluators.

The rewiring engine computes the wedge/triangle change of a swap
``(a,b),(c,d) -> (a,d),(c,b)`` from the pre-swap neighborhoods alone.  This
module gets the same change the slow way: apply the swap to a copy of the
graph and diff the two graphs' wedge and triangle counts.
"""

from __future__ import annotations

from repro.graph.simple_graph import SimpleGraph

from .triangles_python import triangle_degree_counts, wedge_degree_counts


def _diff(after, before) -> dict:
    keys = set(after) | set(before)
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in keys}
    return {key: value for key, value in delta.items() if value}


def three_k_delta_by_recount(graph: SimpleGraph, a: int, b: int, c: int, d: int):
    """``(wedge_delta, triangle_delta)`` of ``(a,b),(c,d) -> (a,d),(c,b)``.

    Both are dicts over the degree keys of :func:`wedge_degree_counts` and
    :func:`triangle_degree_counts`, without zero entries.  ``graph`` is left
    unchanged.
    """
    after = graph.copy()
    after.remove_edge(a, b)
    after.remove_edge(c, d)
    after.add_edge(a, d)
    after.add_edge(c, b)
    return (
        _diff(wedge_degree_counts(after), wedge_degree_counts(graph)),
        _diff(triangle_degree_counts(after), triangle_degree_counts(graph)),
    )


def pack_three_k_delta(wedges: dict, triangles: dict, base: int) -> dict:
    """Degree-keyed deltas as the engine's ``{packed key: net}`` dict.

    Keys pack degree values in base ``base``: wedges ``(end, centre, end)``
    below ``base**3`` and sorted triangles above it.  Zero nets are dropped.
    """
    packed: dict[int, int] = {}
    for offset, counts in ((0, wedges), (base**3, triangles)):
        for (k1, k2, k3), value in counts.items():
            key = (k1 * base + k2) * base + k3 + offset
            packed[key] = packed.get(key, 0) + value
    return {key: value for key, value in packed.items() if value}


__all__ = ["pack_three_k_delta", "three_k_delta_by_recount"]
