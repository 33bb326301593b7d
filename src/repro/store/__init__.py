"""Persistence and caching: content-addressed artifacts, memoized metrics.

The store subsystem lets the heavy parts of the dK-series pipeline —
generating topologies and computing their metrics — run at most once per
content key:

* :mod:`repro.store.keys` — stable SHA-256 cache keys folding in the code
  version;
* :mod:`repro.store.artifact_store` — :class:`ArtifactStore`, the on-disk
  content-addressed store with atomic, lock-free concurrent writes, and
  :func:`temporary_store`, the throwaway store of store-less runs.  It keeps
  every graph in the one CSR artifact format of :mod:`repro.graph.mmap_io`,
  whose :func:`graph_content_hash` (re-exported here) is the one identity of
  a ``SimpleGraph`` or ``BigGraph``;
* :mod:`repro.store.memo` — :func:`memoized_build` /
  :func:`memoized_measure` facades over the
  generator registry and the measurement planner, with metric-granular
  cache entries (widening a measured metric set computes only the new
  metrics).

:func:`repro.experiment.run_experiment` accepts ``store=`` / ``resume=`` to
persist per-cell manifests and skip completed cells (without ``store=`` it
runs on a temporary store); the ``repro`` CLI
exposes the same via ``run-experiment --store DIR --resume`` and the
``cache {info,gc,clear}`` maintenance commands.
"""

from repro.graph.mmap_io import graph_content_hash
from repro.store.artifact_store import ArtifactStore, temporary_store
from repro.store.keys import code_version, generation_key, metric_key, stable_hash
from repro.store.memo import (
    measure_entry_keys,
    memoized_build,
    memoized_measure,
)

__all__ = [
    "ArtifactStore",
    "code_version",
    "generation_key",
    "metric_key",
    "stable_hash",
    "measure_entry_keys",
    "memoized_build",
    "memoized_measure",
    "graph_content_hash",
    "temporary_store",
]
