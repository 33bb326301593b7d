"""Elementary rewiring moves (edge swaps), for enumerating them exactly.

The paper's rewiring algorithms are built from two elementary moves:

* a *0K move* re-attaches one random edge to a random non-adjacent node pair
  (preserves only the number of edges / average degree);
* a *double edge swap* replaces edges ``(a,b), (c,d)`` with ``(a,d), (c,b)``
  (always preserves every node degree, hence the 1K-distribution).

A double edge swap additionally preserves the joint degree distribution when
the two exchanged endpoints have equal degrees; :class:`EdgeEndIndex` groups
the oriented edge ends by head degree, so such 2K-preserving swaps can be
enumerated bucket by bucket (:mod:`repro.generators.rewiring.counting`).
The Markov chains themselves sample these moves on the flat-array engine in
:mod:`repro.kernels.rewiring`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.simple_graph import SimpleGraph, canonical_edge


@dataclass(frozen=True)
class Swap:
    """A rewiring move: remove ``removals`` then add ``additions``."""

    removals: tuple[tuple[int, int], ...]
    additions: tuple[tuple[int, int], ...]

    def apply(self, graph: SimpleGraph) -> None:
        """Apply the move to ``graph`` (assumes it has been validated)."""
        for u, v in self.removals:
            graph.remove_edge(u, v)
        for u, v in self.additions:
            graph.add_edge(u, v)

    def revert(self, graph: SimpleGraph) -> None:
        """Undo a previously applied move."""
        for u, v in self.additions:
            graph.remove_edge(u, v)
        for u, v in self.removals:
            graph.add_edge(u, v)


def double_swap_is_valid(graph: SimpleGraph, a: int, b: int, c: int, d: int) -> bool:
    """Validity of replacing ``(a,b), (c,d)`` by ``(a,d), (c,b)``.

    The move must not create self-loops or parallel edges and must actually
    change the graph.
    """
    if a == d or c == b:
        return False
    if canonical_edge(a, b) == canonical_edge(c, d):
        return False
    if graph.has_edge(a, d) or graph.has_edge(c, b):
        return False
    return True


def make_double_swap(a: int, b: int, c: int, d: int) -> Swap:
    """Build the double-edge-swap move ``(a,b),(c,d) -> (a,d),(c,b)``."""
    return Swap(
        removals=(canonical_edge(a, b), canonical_edge(c, d)),
        additions=(canonical_edge(a, d), canonical_edge(c, b)),
    )


class EdgeEndIndex:
    """Degree-indexed table of oriented edge ends.

    For every degree ``k`` the index stores the list of oriented edges
    ``(u, v)`` whose *second* endpoint (the head) has degree ``k``.
    """

    def __init__(self, graph: SimpleGraph):
        self.degrees = graph.degrees()
        self._by_degree: dict[int, list[tuple[int, int]]] = {}
        for u, v in graph.edges():
            self._by_degree.setdefault(self.degrees[v], []).append((u, v))
            self._by_degree.setdefault(self.degrees[u], []).append((v, u))

    def degree_buckets(self) -> dict[int, list[tuple[int, int]]]:
        """The ``head degree -> oriented (tail, head) edges`` table.

        Only end pairs inside one bucket can form a 2K-preserving swap;
        :mod:`repro.generators.rewiring.counting` enumerates them from here.
        The returned buckets are the index's own lists — treat them as
        read-only.
        """
        return self._by_degree


def jdd_delta_of_double_swap(degrees: list[int], a: int, b: int, c: int, d: int) -> dict[tuple[int, int], int]:
    """Change of JDD edge counts caused by ``(a,b),(c,d) -> (a,d),(c,b)``."""
    swap = make_double_swap(a, b, c, d)
    return jdd_delta_of_swap(degrees, swap)


def jdd_delta_of_swap(degrees: list[int], swap: Swap) -> dict[tuple[int, int], int]:
    """Change of JDD edge counts caused by an arbitrary degree-preserving swap."""
    delta: dict[tuple[int, int], int] = {}

    def bump(u: int, v: int, amount: int) -> None:
        ku, kv = degrees[u], degrees[v]
        key = (ku, kv) if ku <= kv else (kv, ku)
        delta[key] = delta.get(key, 0) + amount
        if delta[key] == 0:
            del delta[key]

    for u, v in swap.removals:
        bump(u, v, -1)
    for u, v in swap.additions:
        bump(u, v, +1)
    return delta


__all__ = [
    "Swap",
    "EdgeEndIndex",
    "double_swap_is_valid",
    "make_double_swap",
    "jdd_delta_of_double_swap",
    "jdd_delta_of_swap",
]
