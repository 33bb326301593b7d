"""Fault/attack scenarios: degrade a topology before measuring it.

A :class:`Scenario` is a small, hashable description of a failure mode —
targeted hub removal (by degree or by routing load) or random node/edge
failure, each with a configurable fraction.  :func:`apply_scenario` turns a
graph into its degraded copy deterministically: given the same graph,
scenario and rng seed it always removes the same elements (loads are
ranked at 12 significant digits, so float summation order cannot reorder
nodes whose loads are equal by symmetry).

Scenarios thread through :class:`~repro.experiment.ExperimentSpec` as a grid
dimension, so "bottleneck load of d=0..3 reproductions before and after
removing the top-1% hubs" is one resumable, store-cached experiment.

Node failure removes the node's incident edges but keeps node ids stable —
the measurement layer already restricts to the giant component, so dead
routers simply drop out of the measured graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike, ensure_rng

#: Recognized failure modes.
SCENARIO_KINDS = ("hub_degree", "hub_load", "random_node", "random_edge")


@dataclass(frozen=True)
class Scenario:
    """One failure mode: what fails and how much of the graph it takes."""

    kind: str
    fraction: float

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"available: {', '.join(SCENARIO_KINDS)}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"scenario fraction must be in [0, 1], got {self.fraction!r}")

    @property
    def label(self) -> str:
        """Compact ``kind:fraction`` form (round-trips through :meth:`parse`)."""
        return f"{self.kind}:{self.fraction:g}"

    def to_jsonable(self) -> dict[str, Any]:
        return {"kind": self.kind, "fraction": self.fraction}

    @classmethod
    def parse(cls, value: Any) -> "Scenario | None":
        """A scenario from a label, dict or scenario; ``None`` for baseline.

        Accepts ``None``/``"none"``/``"baseline"`` (no degradation),
        ``"hub_degree:0.01"``-style labels, ``{"kind": ..., "fraction": ...}``
        dicts, and :class:`Scenario` instances (passed through).
        """
        if value is None or isinstance(value, Scenario):
            return value
        if isinstance(value, dict):
            return cls(kind=str(value["kind"]), fraction=float(value["fraction"]))
        if isinstance(value, str):
            text = value.strip()
            if text.lower() in ("", "none", "baseline"):
                return None
            kind, separator, fraction = text.partition(":")
            if not separator:
                raise ValueError(
                    f"scenario {value!r} is not 'kind:fraction' "
                    f"(e.g. 'hub_degree:0.01') or 'none'"
                )
            return cls(kind=kind.strip(), fraction=float(fraction))
        raise TypeError(f"cannot parse a scenario from {type(value).__name__}")


def scenario_label(scenario: "Scenario | None") -> str:
    """The canonical string form, ``"none"`` for the baseline."""
    return "none" if scenario is None else scenario.label


def _failure_count(fraction: float, population: int) -> int:
    """How many elements fail: ceil of the fraction, capped at the population."""
    if population == 0 or fraction <= 0.0:
        return 0
    return min(population, math.ceil(fraction * population))


def _strip_nodes(graph: SimpleGraph, targets: list[int]) -> int:
    """Remove every edge incident to ``targets``; returns edges removed."""
    removed = 0
    for node in targets:
        for neighbor in sorted(graph.neighbors(node)):
            graph.remove_edge(node, neighbor)
            removed += 1
    return removed


def apply_scenario(
    graph: SimpleGraph,
    scenario: "Scenario | None",
    *,
    rng: RngLike = None,
) -> tuple[SimpleGraph, dict[str, Any]]:
    """A degraded copy of ``graph`` plus what-failed statistics.

    ``rng`` only matters for the random failure modes; the targeted hub
    modes are rng-free (ties broken by higher degree, then lower node id,
    so the removal set is a pure function of the graph).  Loads that agree
    to 12 significant digits tie: the batched Brandes sums leave last-ulp
    differences between nodes that symmetry makes equal.
    """
    if scenario is None:
        return graph, {"scenario": "none", "removed_nodes": 0, "removed_edges": 0}
    attacked = graph.copy()
    n = graph.number_of_nodes
    removed_nodes = 0
    if scenario.kind in ("hub_degree", "hub_load"):
        count = _failure_count(scenario.fraction, n)
        if scenario.kind == "hub_degree":
            ranking = sorted(graph.nodes(), key=lambda v: (-graph.degree(v), v))
        else:
            # raw Brandes transit load, compared at a fixed precision
            from repro.measure.intermediates import shared_sweep

            load = shared_sweep(graph, want_betweenness=True).centrality
            ranking = sorted(
                graph.nodes(),
                key=lambda v: (-float(f"{load[v]:.12g}"), -graph.degree(v), v),
            )
        targets = ranking[:count]
        removed_nodes = len(targets)
        removed_edges = _strip_nodes(attacked, targets)
    elif scenario.kind == "random_node":
        count = _failure_count(scenario.fraction, n)
        order = [int(node) for node in ensure_rng(rng).permutation(n)]
        targets = sorted(order[:count])
        removed_nodes = len(targets)
        removed_edges = _strip_nodes(attacked, targets)
    else:  # random_edge
        edges = sorted(graph.edge_list())
        count = _failure_count(scenario.fraction, len(edges))
        order = [int(i) for i in ensure_rng(rng).permutation(len(edges))]
        removed_edges = 0
        for index in sorted(order[:count]):
            u, v = edges[index]
            attacked.remove_edge(u, v)
            removed_edges += 1
    return attacked, {
        "scenario": scenario.label,
        "removed_nodes": removed_nodes,
        "removed_edges": removed_edges,
    }


__all__ = [
    "SCENARIO_KINDS",
    "Scenario",
    "scenario_label",
    "apply_scenario",
]
