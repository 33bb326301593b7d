"""Graph and dK-distribution file formats.

Two formats are supported:

* plain edge lists -- one ``u v`` pair per line, ``#`` comments allowed;
  this is the format used by most public AS-topology snapshots;
* JDD files -- ``k1 k2 m(k1,k2)`` per line, the paper's 2K-distribution
  interchange format (the input that the 2K pseudograph/matching generators
  consume when no original graph is available).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from repro.exceptions import GraphError
from repro.graph.simple_graph import SimpleGraph

PathLike = Union[str, Path]


def _clean_lines(text: str) -> Iterable[list[str]]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield line.split()


def write_edge_list(graph: SimpleGraph, path: PathLike) -> None:
    """Write the graph as a plain whitespace-separated edge list."""
    lines = [f"{u} {v}" for u, v in graph.edges()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_edge_list(path: PathLike) -> SimpleGraph:
    """Read a plain edge list; node labels may be arbitrary non-negative ints.

    Labels are compacted to consecutive ids preserving their sorted order.
    """
    pairs: list[tuple[int, int]] = []
    labels: set[int] = set()
    for fields in _clean_lines(Path(path).read_text()):
        if len(fields) < 2:
            raise GraphError(f"malformed edge-list line: {fields!r}")
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            continue
        pairs.append((u, v))
        labels.add(u)
        labels.add(v)
    mapping = {label: index for index, label in enumerate(sorted(labels))}
    graph = SimpleGraph(len(mapping))
    for u, v in pairs:
        graph.add_edge(mapping[u], mapping[v])
    return graph


def write_jdd(jdd_counts: dict[tuple[int, int], int], path: PathLike) -> None:
    """Write 2K edge counts ``m(k1,k2)`` as ``k1 k2 count`` lines."""
    lines = [
        f"{k1} {k2} {count}"
        for (k1, k2), count in sorted(jdd_counts.items())
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_jdd(path: PathLike) -> dict[tuple[int, int], int]:
    """Read a JDD file back into a ``{(k1, k2): m}`` mapping with k1 <= k2."""
    counts: dict[tuple[int, int], int] = {}
    for fields in _clean_lines(Path(path).read_text()):
        if len(fields) != 3:
            raise GraphError(f"malformed JDD line: {fields!r}")
        k1, k2, m = int(fields[0]), int(fields[1]), int(fields[2])
        key = (k1, k2) if k1 <= k2 else (k2, k1)
        counts[key] = counts.get(key, 0) + m
    return counts


__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_jdd",
    "read_jdd",
]
