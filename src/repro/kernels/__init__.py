"""Vectorized CSR graph-kernel engine with pluggable metric backends.

The public surface is the backend registry (:mod:`repro.kernels.backend`) —
``use_backend`` / ``resolve_backend`` / ``get_kernel``.  The metric kernel
modules (:mod:`~repro.kernels.biggraph` — the chunked CSR metric kernels,
for a SimpleGraph's cached CSR snapshot and a BigGraph alike —
:mod:`~repro.kernels.bfs`, :mod:`~repro.kernels.betweenness` and the
``*_python`` reference kernels) are imported lazily by the registry on first
use.  :mod:`~repro.kernels.rewiring` is the one rewiring engine; the
generators call it directly.
"""

from repro.kernels.backend import (
    AUTO_THRESHOLD,
    BACKENDS,
    current_backend,
    dispatch,
    get_kernel,
    register_kernel,
    resolve_backend,
    use_backend,
)

__all__ = [
    "AUTO_THRESHOLD",
    "BACKENDS",
    "current_backend",
    "dispatch",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
    "use_backend",
]
