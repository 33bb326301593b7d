"""Evaluation topologies: synthetic HOT-like and AS-level graphs plus a registry."""

from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.hot import hot_like_statistics, synthetic_hot_topology
from repro.topologies.registry import (
    TopologySpec,
    available_topologies,
    build_topology,
    get_topology_spec,
    register,
)

__all__ = [
    "synthetic_as_topology",
    "synthetic_hot_topology",
    "hot_like_statistics",
    "TopologySpec",
    "available_topologies",
    "build_topology",
    "get_topology_spec",
    "register",
]
