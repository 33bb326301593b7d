"""Stable cache keys for the artifact store.

Every store entry is addressed by the SHA-256 of a canonical JSON rendering
of what produced it, so the keys are stable across processes, Python
versions and dict orderings:

* generated graphs: ``(generator name, d, params, seed, source graph hash,
  code version)`` — :func:`generation_key`;
* metric results: ``(graph content hash, metric name, metric params, code
  version)`` — :func:`metric_key`;
* experiment cells: computed in :mod:`repro.experiment` from the cell
  coordinates plus the measurement options, via :func:`stable_hash`.

The code version (:func:`code_version`) folds the package version and the
store schema into every key, so upgrading either silently invalidates stale
entries instead of serving results computed by old code.

Execution knobs never enter keys: the rewiring engine's batch size selects
*how* a graph is generated, not what it is, so entries are shared across
batch sizes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.generators.registry import json_safe

#: Bump when the on-disk layout or key derivation changes incompatibly.
STORE_SCHEMA_VERSION = 1


def code_version() -> str:
    """Version string folded into every cache key (package + store schema)."""
    import repro  # deferred: repro/__init__ imports modules that import us

    return f"{repro.__version__}+store{STORE_SCHEMA_VERSION}"


def stable_hash(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of ``payload``.

    ``payload`` may contain numpy scalars/arrays, sets and tuples; they are
    coerced with :func:`repro.generators.registry.json_safe` first, and any
    remaining exotic object falls back to its ``repr`` — attaching a store
    must never make a spec unhashable that runs fine eagerly.  Dict ordering
    does not affect the digest.
    """
    canonical = json.dumps(
        json_safe(payload), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def generation_key(
    method: str,
    params: Mapping[str, Any],
    seed: int | None,
    source_hash: str,
    *,
    d: int | None = None,
    version: str | None = None,
) -> str:
    """Content key of a generated graph.

    ``source_hash`` is the content hash of the original topology the
    generator consumed (its dK-distribution is derived from it, so hashing
    the graph covers the distribution too).
    """
    return stable_hash(
        {
            "kind": "generated-graph",
            "code_version": version or code_version(),
            "method": method,
            "d": d,
            "params": dict(params),
            "seed": seed,
            "source": source_hash,
        }
    )


def metric_key(
    graph_hash: str,
    metric_name: str,
    metric_params: Mapping[str, Any],
    *,
    version: str | None = None,
) -> str:
    """Content key of a metric result computed on the graph ``graph_hash``."""
    return stable_hash(
        {
            "kind": "metric",
            "code_version": version or code_version(),
            "graph": graph_hash,
            "metric": metric_name,
            "params": dict(metric_params),
        }
    )


__all__ = [
    "STORE_SCHEMA_VERSION",
    "code_version",
    "stable_hash",
    "generation_key",
    "metric_key",
]
