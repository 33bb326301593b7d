"""Synthetic AS-level (skitter-like) Internet topology.

The paper's AS-level inputs are the CAIDA skitter, RouteViews BGP and RIPE
WHOIS snapshots of March 2004 (skitter: 9204 nodes, 28959 edges, ``k̄ ≈ 6.3``,
``r ≈ -0.24``, ``C̄ ≈ 0.46``).  Those data files cannot be shipped here, so
:func:`synthetic_as_topology` grows a graph with the same qualitative
structure:

* heavy-tailed (power-law-like) degree distribution with a small dense core
  of very high degree "tier-1" ASes,
* disassortative mixing (low-degree customer ASes attach to high-degree
  providers),
* substantial clustering concentrated on low/medium degrees (triad
  formation between customers of a common provider, peering edges).

The growth model combines preferential attachment, triad formation
(Holme–Kim style) and an extra population of degree-1/2 customer stubs.
All dK-series experiments only compare generated dK-random graphs against
this *original*, so the qualitative convergence results (1K already close,
2K everything but clustering, 3K everything) carry over.
"""

from __future__ import annotations


from repro.graph.components import giant_component
from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike, ensure_rng


def synthetic_as_topology(
    nodes: int = 2000,
    *,
    attachment_edges: int = 3,
    triad_probability: float = 0.55,
    stub_fraction: float = 0.30,
    seed_clique: int = 6,
    tier1_count: int = 12,
    tier1_attraction: float = 0.5,
    rng: RngLike = None,
) -> SimpleGraph:
    """Grow a skitter-like AS topology with ``nodes`` nodes.

    Parameters
    ----------
    nodes:
        Total number of nodes (default 2000 keeps the pure-Python metric
        sweeps laptop-friendly; pass 9204 for the paper-scale graph).
    attachment_edges:
        Number of provider links each non-stub AS creates when it joins
        (drives the average degree).
    triad_probability:
        Probability that an additional link closes a triangle with the
        previously chosen provider's neighbours (drives clustering).
    stub_fraction:
        Fraction of nodes that join as degree-1 customer stubs attached
        preferentially to high-degree providers (drives disassortativity and
        the heavy low-degree tail).
    seed_clique:
        Size of the initial fully-meshed "tier-1" core.
    tier1_count, tier1_attraction:
        Customer stubs attach, with probability ``tier1_attraction``, to one
        of the ``tier1_count`` highest-degree providers instead of a generic
        preferential target.  This concentrates stub customers on a handful of
        very-high-degree transit ASes, reproducing the pronounced hub tail and
        the disassortative mixing of measured AS topologies.
    """
    rng = ensure_rng(rng)
    if nodes < seed_clique + 2:
        raise ValueError("nodes must exceed the seed clique size")
    if not 0 <= stub_fraction < 1:
        raise ValueError("stub_fraction must lie in [0, 1)")

    graph = SimpleGraph(seed_clique)
    for i in range(seed_clique):
        for j in range(i + 1, seed_clique):
            graph.add_edge(i, j)

    # repeated-endpoint list: preferential attachment by sampling edge ends
    endpoint_pool: list[int] = []
    for u, v in graph.edges():
        endpoint_pool.append(u)
        endpoint_pool.append(v)

    def attach_preferentially(exclude: set[int]) -> int:
        for _ in range(50):
            candidate = endpoint_pool[int(rng.integers(len(endpoint_pool)))]
            if candidate not in exclude:
                return candidate
        # fall back to a uniformly random node
        for _ in range(200):
            candidate = int(rng.integers(graph.number_of_nodes))
            if candidate not in exclude:
                return candidate
        return next(iter(set(range(graph.number_of_nodes)) - exclude))

    stub_count = int(stub_fraction * nodes)
    growth_count = nodes - seed_clique - stub_count

    for _ in range(growth_count):
        new_node = graph.add_node()
        chosen: set[int] = set()
        last_provider: int | None = None
        edges_to_add = min(attachment_edges, graph.number_of_nodes - 1)
        while len(chosen) < edges_to_add:
            target: int | None = None
            if (
                last_provider is not None
                and rng.random() < triad_probability
            ):
                # triad formation: connect to a neighbour of the last provider
                neighbours = [
                    x for x in graph.neighbors(last_provider)
                    if x != new_node and x not in chosen
                ]
                if neighbours:
                    target = neighbours[int(rng.integers(len(neighbours)))]
            if target is None:
                target = attach_preferentially(chosen | {new_node})
            if target == new_node or target in chosen:
                continue
            graph.add_edge(new_node, target)
            chosen.add(target)
            endpoint_pool.append(new_node)
            endpoint_pool.append(target)
            last_provider = target

    # degree-1/2 customer stubs attach preferentially to providers, with a
    # strong bias toward a handful of very-high-degree "tier-1" transit ASes
    degrees = graph.degrees()
    tier1 = sorted(range(graph.number_of_nodes), key=lambda v: degrees[v], reverse=True)
    tier1 = tier1[: max(1, tier1_count)]

    def attach_stub(exclude: set[int]) -> int:
        if rng.random() < tier1_attraction:
            candidates = [v for v in tier1 if v not in exclude]
            if candidates:
                weights = [graph.degree(v) + 1 for v in candidates]
                total = float(sum(weights))
                pick = rng.random() * total
                running = 0.0
                for candidate, weight in zip(candidates, weights):
                    running += weight
                    if pick <= running:
                        return candidate
                return candidates[-1]
        return attach_preferentially(exclude)

    for _ in range(stub_count):
        new_node = graph.add_node()
        provider = attach_stub({new_node})
        graph.add_edge(new_node, provider)
        endpoint_pool.append(new_node)
        endpoint_pool.append(provider)
        # a minority of stubs are multi-homed (two providers)
        if rng.random() < 0.25:
            second = attach_stub({new_node, provider})
            if not graph.has_edge(new_node, second):
                graph.add_edge(new_node, second)
                endpoint_pool.append(new_node)
                endpoint_pool.append(second)

    return giant_component(graph)


__all__ = ["synthetic_as_topology"]
