"""Matching dK-graph constructions (Section 4.1.3 of the paper).

The matching approach is the loop-avoiding variant of the pseudograph
approach: stub pairs (1K) or edge-end groupings (2K) that would create
self-loops or parallel edges are skipped during construction.  Loop avoidance
can deadlock -- the remaining stubs may only form forbidden pairs -- so both
constructions finish with a *repair* phase that frees compatible stubs by
rewiring already-placed edges (the "additional techniques" the paper
mentions).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.distributions import DegreeDistribution, JointDegreeDistribution
from repro.exceptions import GenerationError
from repro.graph.components import giant_component
from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike, ensure_rng


def _repair_place_pair(
    graph: SimpleGraph,
    u: int,
    v: int,
    rng: np.random.Generator,
    attempts: int = 200,
) -> bool:
    """Place the stub pair ``(u, v)`` that cannot be connected directly.

    An existing edge ``(x, y)`` is removed and the two edges ``(u, x)`` and
    ``(v, y)`` are added instead; degrees of ``x`` and ``y`` are unchanged and
    ``u`` and ``v`` each consume one stub, exactly as if ``(u, v)`` had been
    placed.  Returns ``True`` on success.
    """
    m = graph.number_of_edges
    if m == 0:
        return False
    for _ in range(attempts):
        x, y = graph.edge_at(int(rng.integers(m)))
        if rng.random() < 0.5:
            x, y = y, x
        if u in (x, y) or v in (x, y):
            continue
        if graph.has_edge(u, x) or graph.has_edge(v, y):
            continue
        graph.remove_edge(x, y)
        graph.add_edge(u, x)
        graph.add_edge(v, y)
        return True
    return False


def matching_1k(
    one_k: DegreeDistribution,
    *,
    rng: RngLike = None,
    connected: bool = False,
    strict: bool = False,
) -> SimpleGraph:
    """Loop-avoiding stub matching for a target degree distribution.

    Parameters
    ----------
    strict:
        When true, raise :class:`GenerationError` if some stubs cannot be
        placed even after the repair phase; otherwise those stubs are dropped
        (the resulting degree sequence is then very slightly smaller than the
        target, which the paper tolerates as well).
    """
    rng = ensure_rng(rng)
    if one_k.stub_count % 2:
        raise GenerationError("the degree distribution has an odd number of stubs")

    stubs: list[int] = []
    node = 0
    for degree in sorted(one_k.counts):
        for _ in range(one_k.counts[degree]):
            stubs.extend([node] * degree)
            node += 1
    graph = SimpleGraph(one_k.nodes)
    if not stubs:
        return graph

    order = np.array(stubs, dtype=np.int64)
    rng.shuffle(order)
    deferred: list[tuple[int, int]] = []
    for i in range(0, len(order) - 1, 2):
        u, v = int(order[i]), int(order[i + 1])
        if u == v or graph.has_edge(u, v):
            deferred.append((u, v))
            continue
        graph.add_edge(u, v)

    unplaced = 0
    for u, v in deferred:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            continue
        if not _repair_place_pair(graph, u, v, rng):
            unplaced += 1
    if unplaced and strict:
        raise GenerationError(f"{unplaced} stub pairs could not be placed without loops")
    if connected:
        return giant_component(graph)
    return graph


def matching_2k(
    jdd: JointDegreeDistribution,
    *,
    rng: RngLike = None,
    connected: bool = False,
    strict: bool = False,
    candidate_attempts: int = 40,
) -> SimpleGraph:
    """Loop-avoiding 2K construction (the paper's matching extension).

    Edges labelled ``(k1, k2)`` are placed one at a time between degree-class
    nodes with free stub capacity, avoiding self-loops and parallel edges.
    Edges that cannot be placed directly are repaired by rewiring an
    already-placed ``(k1, k2)`` edge, which preserves the joint degree
    distribution exactly.
    """
    rng = ensure_rng(rng)
    node_counts = jdd.node_counts()

    class_nodes: dict[int, list[int]] = {}
    next_id = 0
    for degree in sorted(node_counts):
        count = node_counts[degree]
        class_nodes[degree] = list(range(next_id, next_id + count))
        next_id += count
    graph = SimpleGraph(next_id + jdd.zero_degree_nodes)
    degrees_of = {node: degree for degree, nodes in class_nodes.items() for node in nodes}
    capacity = dict(degrees_of)
    # the nodes of each class with free capacity, ascending; a node leaves
    # its list when its capacity reaches 0
    free = {degree: list(nodes) for degree, nodes in class_nodes.items()}

    labelled_edges: list[tuple[int, int]] = []
    for (k1, k2), count in jdd.counts.items():
        labelled_edges.extend([(k1, k2)] * count)
    rng.shuffle(labelled_edges)

    def pick_with_capacity(degree: int, exclude: int | None = None) -> int | None:
        """A uniform free-capacity node of the class other than ``exclude``:
        one draw over the list with ``exclude`` cut out, mapped past it."""
        nodes = free.get(degree, [])
        cut = bisect_left(nodes, exclude) if exclude is not None else len(nodes)
        cut_out = cut < len(nodes) and nodes[cut] == exclude
        if len(nodes) == cut_out:
            return None
        index = int(rng.integers(len(nodes) - cut_out))
        return nodes[index + (cut_out and index >= cut)]

    def use(node: int) -> None:
        capacity[node] -= 1
        if not capacity[node]:
            nodes = free[degrees_of[node]]
            del nodes[bisect_left(nodes, node)]

    deferred: list[tuple[int, int]] = []
    for k1, k2 in labelled_edges:
        placed = False
        for _ in range(candidate_attempts):
            u = pick_with_capacity(k1)
            if u is None:
                break
            v = pick_with_capacity(k2, exclude=u)
            if v is None:
                break
            if graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
            use(u)
            use(v)
            placed = True
            break
        if not placed:
            deferred.append((k1, k2))

    # repair phase: place a deferred (k1, k2) edge by splitting an existing
    # (k1, k2) edge (x, y): remove it and connect the free-capacity nodes u, v
    # as (u, y) and (x, v), which adds exactly one (k1, k2) edge overall.
    edge_pool: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, y in graph.edges() if deferred else ():
        key = tuple(sorted((degrees_of.get(x, 0), degrees_of.get(y, 0))))
        edge_pool.setdefault(key, []).append((x, y))
    unplaced = 0
    for k1, k2 in deferred:
        key = tuple(sorted((k1, k2)))
        candidates = edge_pool.get(key, [])
        success = False
        for _ in range(6):  # several fresh (u, v) choices before giving up
            if success:
                break
            u = pick_with_capacity(k1)
            v = pick_with_capacity(k2, exclude=u)
            if u is None or v is None or not candidates:
                break
            rng.shuffle(candidates)
            for x, y in list(candidates)[:candidate_attempts]:
                if not graph.has_edge(x, y):
                    continue
                # orient (x, y) so that x is in the k1 class and y in the k2 class
                if degrees_of[x] != k1 or degrees_of[y] != k2:
                    x, y = y, x
                if degrees_of[x] != k1 or degrees_of[y] != k2:
                    continue
                if u in (x, y) or v in (x, y):
                    continue
                if graph.has_edge(u, y) or graph.has_edge(x, v):
                    continue
                graph.remove_edge(x, y)
                graph.add_edge(u, y)
                graph.add_edge(x, v)
                use(u)
                use(v)
                candidates.append((u, y))
                candidates.append((x, v))
                success = True
                break
        if not success:
            unplaced += 1
    if unplaced and strict:
        raise GenerationError(f"{unplaced} labelled edges could not be placed without loops")
    if connected:
        return giant_component(graph)
    return graph


__all__ = ["matching_1k", "matching_2k"]
