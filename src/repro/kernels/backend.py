"""Pluggable metric-kernel registry: pure-Python loops vs NumPy CSR kernels.

Every heavy metric kernel (BFS sweeps, triangle counting, edge-array
correlation sums, Brandes betweenness) exists in two interchangeable
implementations:

* ``"python"`` — the original pure-Python loops over :class:`SimpleGraph`
  adjacency sets.  The reference implementation and equivalence oracle.
* ``"csr"``    — vectorized NumPy/SciPy kernels over one immutable
  compressed-sparse-row representation: the cached CSR snapshot of a
  SimpleGraph (:mod:`repro.kernels.csr`) or the memory-mapped arrays of a
  :class:`~repro.kernels.biggraph.BigGraph`.  The metric kernels are the
  chunked bodies of :mod:`repro.kernels.biggraph`.

Callers never import kernel modules directly: the metric functions in
:mod:`repro.metrics` dispatch through :func:`get_kernel` with a backend name
resolved by :func:`resolve_backend`.  Both backends return *identical*
results — integer subgraph/distance counts are exact and the floating-point
summaries are computed from those counts by shared code — so the backend is
a pure execution knob and never enters artifact-store cache keys.

The backend selects metric kernels only.  Graph generation has one engine:
the rewiring Markov chains (randomizing, targeting, exploration) all run on
:mod:`repro.kernels.rewiring`.

Selection precedence: a per-call ``backend=`` argument, then the process-wide
setting installed with :func:`use_backend`, then ``"auto"``: CSR for every
Brandes sweep (betweenness or edge load) and for any other kernel on graphs
with at least :data:`AUTO_THRESHOLD` nodes, python otherwise.  A BigGraph has
no adjacency sets, so it resolves to ``"csr"`` under every setting.

``use_backend`` doubles as a context manager::

    use_backend("csr")            # process-wide, from now on
    with use_backend("python"):   # temporarily, restored on exit
        summarize(graph)
"""

from __future__ import annotations

import importlib
import os
from typing import Callable

from repro.telemetry.core import span, tracing_enabled

#: Backend names accepted everywhere (``"auto"`` resolves to one of the others).
BACKENDS = ("python", "csr")

#: Under ``"auto"``, graphs with at least this many nodes use the CSR backend
#: (building the CSR arrays costs more than it saves on tiny graphs).  Brandes
#: sweeps ignore it: the batched kernel wins at every measured n.
AUTO_THRESHOLD = 1024

#: A malformed REPRO_BACKEND is reported by the first resolve_backend call
#: (validating here would make the whole package unimportable).
_state = {"backend": os.environ.get("REPRO_BACKEND", "auto")}

#: ``(kernel name, backend) -> implementation``; populated by the
#: ``register_kernel`` decorators in the metric and kernel modules.
_KERNELS: dict[tuple[str, str], Callable] = {}

#: Module that registers each kernel, per backend, imported on first use.
#: The python implementations live next to the metric code they originated
#: from; the CSR metric kernels are the chunked bodies of
#: :mod:`repro.kernels.biggraph`, which run on a SimpleGraph's CSR snapshot
#: and on a BigGraph alike.
_KERNEL_MODULES: dict[tuple[str, str], str] = {
    ("bfs_histogram", "python"): "repro.metrics.distances",
    ("bfs_histogram", "csr"): "repro.kernels.biggraph",
    # the unified sweep behind the measurement planner: one traversal
    # yields the distance histogram and (optionally) Brandes betweenness
    ("bfs_sweep", "python"): "repro.kernels.sweep_python",
    ("bfs_sweep", "csr"): "repro.kernels.biggraph",
    ("triangles_per_node", "python"): "repro.kernels.triangles_python",
    ("triangles_per_node", "csr"): "repro.kernels.biggraph",
    ("edge_degree_moments", "python"): "repro.kernels.correlations_python",
    ("edge_degree_moments", "csr"): "repro.kernels.biggraph",
    ("second_order_total", "python"): "repro.kernels.correlations_python",
    ("second_order_total", "csr"): "repro.kernels.biggraph",
    ("jdd_counts", "python"): "repro.kernels.correlations_python",
    ("jdd_counts", "csr"): "repro.kernels.biggraph",
}


def _validate(name: str) -> str:
    if name not in (*BACKENDS, "auto"):
        raise ValueError(
            f"unknown backend {name!r}; choose one of "
            f"{', '.join((*BACKENDS, 'auto'))}"
        )
    return name


class _BackendSetting:
    """Return value of :func:`use_backend`: active immediately, and usable as
    a context manager that restores the previous setting on exit."""

    def __init__(self, name: str, previous: str):
        self.name = name
        self._previous = previous

    def __enter__(self) -> str:
        return self.name

    def __exit__(self, *exc_info) -> None:
        _state["backend"] = self._previous

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_BackendSetting(name={self.name!r}, previous={self._previous!r})"


def use_backend(name: str) -> _BackendSetting:
    """Install ``name`` ("python", "csr" or "auto") as the process-wide backend."""
    previous = _state["backend"]
    _state["backend"] = _validate(name)
    return _BackendSetting(name, previous)


def current_backend() -> str:
    """The process-wide backend setting (possibly ``"auto"``)."""
    return _state["backend"]


def resolve_backend(
    graph=None, backend: str | None = None, *, brandes: bool = False
) -> str:
    """Concrete backend for one call: per-call override > setting > auto.

    ``"auto"`` picks CSR when the call is a Brandes sweep (``brandes=True``:
    betweenness or edge load, at any n) or ``graph`` has at least
    :data:`AUTO_THRESHOLD` nodes.  A BigGraph always resolves to CSR.
    """
    if getattr(graph, "is_biggraph", False):
        # no adjacency sets, only CSR arrays: the python kernels cannot run
        return "csr"
    name = _validate(backend if backend is not None else _state["backend"])
    if name == "auto":
        if brandes:
            return "csr"
        size = 0 if graph is None else graph.number_of_nodes
        return "csr" if size >= AUTO_THRESHOLD else "python"
    return name


def register_kernel(name: str, backend: str):
    """Decorator registering ``func`` as the ``backend`` implementation of ``name``."""

    def decorator(func: Callable) -> Callable:
        _KERNELS[(name, _validate(backend))] = func
        return func

    return decorator


def get_kernel(name: str, backend: str) -> Callable:
    """Implementation of kernel ``name`` for a *concrete* backend name."""
    key = (name, backend)
    impl = _KERNELS.get(key)
    if impl is None:
        module = _KERNEL_MODULES.get(key)
        if module is None:
            raise KeyError(f"no kernel {name!r} for backend {backend!r}")
        importlib.import_module(module)
        impl = _KERNELS[key]
    return impl


def dispatch(name: str, graph, backend: str | None = None) -> Callable:
    """Resolve the backend for ``graph`` and return the kernel ``name``.

    When tracing is enabled the returned callable is wrapped in a
    ``kernel.<name>`` telemetry span carrying the concrete backend and graph
    size; when disabled (the default) the raw kernel is returned, so the
    hot path pays nothing beyond one truthiness check here.
    """
    concrete = resolve_backend(graph, backend)
    kernel = get_kernel(name, concrete)
    if not tracing_enabled():
        return kernel

    def traced_kernel(*args, **kwargs):
        with span(
            f"kernel.{name}",
            backend=concrete,
            n=graph.number_of_nodes,
            m=graph.number_of_edges,
        ):
            return kernel(*args, **kwargs)

    return traced_kernel


__all__ = [
    "BACKENDS",
    "AUTO_THRESHOLD",
    "use_backend",
    "current_backend",
    "resolve_backend",
    "register_kernel",
    "get_kernel",
    "dispatch",
]
