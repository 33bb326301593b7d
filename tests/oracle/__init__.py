"""The pure-Python reference kernels: the equivalence oracle of the csr kernels.

The library measures every graph with the chunked csr kernels of
:mod:`repro.kernels.biggraph`.  These modules keep the plain loops over
:class:`~repro.graph.simple_graph.SimpleGraph` adjacency sets that the csr
kernels must reproduce: integer counts exactly, Brandes accumulations to
1e-12 relative error.  Tests call them directly, or measure a graph through
the whole library with :func:`oracle_kernels`.  The benchmarks import this
package as ``tests.oracle`` to time the reference kernels.
:mod:`.triangles_python` holds the size-3 subgraph counters (triangle
enumeration, degree-keyed wedge and triangle counts, and their canonical
keys) that P_3 extraction must reproduce, and
:func:`three_k_delta_by_recount` is the oracle of the rewiring engine's 3K
delta evaluators: one swap's wedge/triangle change, by
a recount with those counters, so neither oracle reads the csr 3K kernel.
:mod:`.sweep_python` also keeps the single-source ``bfs_distances``, and
:mod:`.correlations_python` a second formula for ``r``.
:mod:`.networkx_bridge` converts to networkx for the tests that
check against it; this package does not import it, so the oracle itself
needs no networkx.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.core import extraction
from repro.measure import intermediates

from .correlations_python import edge_degree_moments, jdd_counts, second_order_total
from .sweep_python import bfs_histogram, bfs_sweep
from .threek_recount import pack_three_k_delta, three_k_delta_by_recount
from .triangles_python import threek_counts, triangles_per_node

#: the two kernel sets a parametrized test can measure with
KERNEL_SETS = ("python", "csr")


@contextmanager
def oracle_kernels():
    """Run the measurement layer on the reference kernels inside the block.

    Every intermediate (sweep, triangles, edge moments, S2 total) and the
    JDD and 3K extractions use the pure-Python kernels.  Intermediates computed
    inside the block are cached apart from the csr ones, so measuring the
    same graph inside and outside the block runs both kernel sets.
    """
    real_cache = intermediates._cache

    def oracle_cache(graph) -> dict:
        return real_cache(graph).setdefault("oracle", {})

    with mock.patch.multiple(
        intermediates,
        _cache=oracle_cache,
        bfs_sweep=bfs_sweep,
        triangles_per_node=triangles_per_node,
        edge_degree_moments=edge_degree_moments,
        second_order_total=second_order_total,
    ), mock.patch.multiple(extraction, jdd_counts=jdd_counts, threek_counts=threek_counts):
        yield


def kernel_set(name: str):
    """Context of one kernel set: the oracle for ``"python"``, else the library."""
    return oracle_kernels() if name == "python" else nullcontext()


__all__ = [
    "KERNEL_SETS",
    "bfs_histogram",
    "bfs_sweep",
    "edge_degree_moments",
    "jdd_counts",
    "kernel_set",
    "oracle_kernels",
    "pack_three_k_delta",
    "second_order_total",
    "three_k_delta_by_recount",
    "threek_counts",
    "triangles_per_node",
]
