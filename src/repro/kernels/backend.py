"""Backend labels kept for the repository benchmark's parameter records.

Every metric kernel runs on CSR (:mod:`repro.kernels.biggraph`); there is no
backend to select.  ``perfbench/workloads.py`` still imports these two names
to label its params, so they stay until that import is dropped.  Nothing in
the library imports this module.
"""

from __future__ import annotations

#: Graphs of every size run the csr kernels.
AUTO_THRESHOLD = 0


def resolve_backend(graph=None) -> str:
    """The metric backend of ``graph``: always ``"csr"``."""
    return "csr"


__all__ = ["AUTO_THRESHOLD", "resolve_backend"]
