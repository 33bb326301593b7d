"""Content-addressed on-disk store for graphs, metrics and experiment cells.

Layout under the store root::

    store.json                      # schema marker
    biggraphs/<k[:2]>/<k>/          # CSR graph artifact dirs (meta + arrays)
    metrics/<k[:2]>/<k>.json        # memoized metric results
    cells/<k[:2]>/<k>.json          # per-cell experiment manifests

where ``<k>`` is the SHA-256 key from :mod:`repro.store.keys`.  Every graph
is stored in the one CSR artifact format of :mod:`repro.graph.mmap_io`:
:meth:`ArtifactStore.put_graph` gap-encodes a ``SimpleGraph``,
:meth:`ArtifactStore.put_biggraph` writes a ``BigGraph`` as given, and the
recorded content hash is :func:`~repro.graph.mmap_io.graph_content_hash`
either way.  Entries are
immutable: a key fully determines its content, so concurrent writers (the
``ProcessPoolExecutor`` path of :func:`repro.experiment.run_experiment`)
need no locking — every write goes to a unique temporary name in the same
directory and is published with an atomic :func:`os.replace`; whichever
writer loses the race simply discards its copy.

Maintenance is exposed as :meth:`ArtifactStore.info`,
:meth:`ArtifactStore.gc` (drop entries from other code versions, orphaned
metric/cell entries and stale temporaries) and
:meth:`ArtifactStore.clear`, mirrored by the ``repro cache`` CLI.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import uuid
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Union

from repro.exceptions import GraphError, StoreError
from repro.graph.mmap_io import biggraph_content_hash, load_biggraph, write_biggraph_artifact
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.store.keys import STORE_SCHEMA_VERSION, code_version
from repro.telemetry.metrics import counter_inc

PathLike = Union[str, Path]

_MARKER_NAME = "store.json"
_CATEGORIES = ("biggraphs", "metrics", "cells")

#: Errors a corrupt artifact raises while loading: each one is a miss.
_CORRUPT = (StoreError, GraphError, OSError, ValueError, KeyError, EOFError, zlib.error)


def _shard(category_dir: Path, key: str) -> Path:
    return category_dir / key[:2]


def _count_read(loaded: Any) -> None:
    outcome = "hit" if loaded is not None else "miss"
    counter_inc("repro_store_reads_total", category="biggraphs", outcome=outcome)


class ArtifactStore:
    """A content-addressed artifact store rooted at a directory.

    Parameters
    ----------
    root:
        Store directory; created (with a ``store.json`` schema marker) if it
        does not exist yet.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / _MARKER_NAME
        if marker.exists():
            schema = json.loads(marker.read_text()).get("schema")
            if schema != STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store at {self.root} has schema {schema}, "
                    f"this code expects {STORE_SCHEMA_VERSION} "
                    "(run `repro cache clear` or point at a fresh directory)"
                )
        else:
            self._write_json_atomic(
                marker, {"schema": STORE_SCHEMA_VERSION, "created_by": code_version()}
            )

    @classmethod
    def coerce(cls, store: "ArtifactStore | PathLike") -> "ArtifactStore":
        """Accept an existing store or a directory path."""
        if isinstance(store, ArtifactStore):
            return store
        return cls(store)

    # ------------------------------------------------------------------ #
    # low-level atomic writers
    # ------------------------------------------------------------------ #
    def _tmp_name(self, final: Path) -> Path:
        return final.parent / f".{final.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"

    def _write_json_atomic(self, path: Path, payload: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_name(path)
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)

    def _json_path(self, category: str, key: str) -> Path:
        return _shard(self.root / category, key) / f"{key}.json"

    def _put_json(self, category: str, key: str, payload: dict[str, Any]) -> None:
        self._write_json_atomic(self._json_path(category, key), payload)

    def _get_json(self, category: str, key: str) -> dict[str, Any] | None:
        path = self._json_path(category, key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # torn entry: treat as a miss, it will be rewritten

    def _iter_json(self, category: str) -> Iterator[tuple[str, Path]]:
        base = self.root / category
        if not base.exists():
            return
        for path in sorted(base.glob("*/*.json")):
            yield path.stem, path

    # ------------------------------------------------------------------ #
    # graphs (CSR artifacts; SimpleGraphs gap-encoded, BigGraphs as given)
    # ------------------------------------------------------------------ #
    def _biggraph_dir(self, key: str) -> Path:
        return _shard(self.root / "biggraphs", key) / key

    def has_biggraph(self, key: str) -> bool:
        """Whether a graph artifact exists for ``key``."""
        return self._biggraph_dir(key).is_dir()

    def biggraph_path(self, key: str) -> Path | None:
        """The artifact directory of ``key`` (for direct mmap), or ``None``."""
        directory = self._biggraph_dir(key)
        return directory if directory.is_dir() else None

    def put_graph(
        self, key: str, graph: SimpleGraph, *, metadata: dict[str, Any] | None = None
    ) -> dict[str, Any] | None:
        """Store a :class:`SimpleGraph` under ``key`` (gap-encoded CSR).

        Returns the artifact meta dict, or ``None`` when the key was already
        present (the existing entry has identical content, by construction).
        """
        return self.put_biggraph(
            key, BigGraph.from_simple_graph(graph), encoding="gap", metadata=metadata
        )

    def get_graph(self, key: str) -> tuple[SimpleGraph, dict[str, Any]] | None:
        """Load ``(graph, {"content_hash", "metadata"})`` for ``key``.

        The stored content hash is checked against the loaded arrays, so a
        missing, corrupt or torn artifact is a miss (``None``).
        """
        graph = None
        try:
            loaded = self._open_graph(key)
            if loaded is not None and loaded.content_hash == biggraph_content_hash(
                loaded.indptr, loaded.indices
            ):
                graph = loaded.to_simple_graph()
                if graph.number_of_edges != loaded.m:
                    graph = None  # not a simple graph (e.g. a self-loop arc)
        except _CORRUPT:
            graph = None
        _count_read(graph)
        if graph is None:
            return None
        return graph, {"content_hash": loaded.content_hash, "metadata": loaded.meta}

    def put_biggraph(
        self,
        key: str,
        graph: BigGraph,
        *,
        encoding: str = "raw",
        metadata: dict[str, Any] | None = None,
    ) -> dict[str, Any] | None:
        """Store a :class:`~repro.kernels.biggraph.BigGraph` under ``key``.

        Publishes atomically; a writer that loses the race keeps the
        winner's copy.  Returns the artifact meta dict, or ``None`` when the
        key was already present.
        """
        final = self._biggraph_dir(key)
        if final.is_dir():
            return None
        tmp = self._tmp_name(final)
        meta = write_biggraph_artifact(tmp, graph, encoding=encoding, metadata=metadata)
        try:
            os.replace(tmp, final)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)  # lost the race: keep the winner
            if not final.is_dir():
                raise
        counter_inc("repro_store_writes_total", category="biggraphs")
        counter_inc(
            "repro_store_write_bytes_total",
            sum(child.stat().st_size for child in final.iterdir() if child.is_file()),
            category="biggraphs",
        )
        return meta

    def get_biggraph(self, key: str) -> BigGraph | None:
        """Open the graph artifact under ``key`` (``None`` on a miss).

        Raw arrays are memory-mapped and nothing is hashed, so opening a
        10^7-node graph stays O(1).
        """
        try:
            loaded = self._open_graph(key)
        except _CORRUPT:
            loaded = None
        _count_read(loaded)
        return loaded

    def _open_graph(self, key: str) -> BigGraph | None:
        directory = self._biggraph_dir(key)
        return load_biggraph(directory) if directory.is_dir() else None

    # ------------------------------------------------------------------ #
    # metrics and experiment cells
    # ------------------------------------------------------------------ #
    def put_metric(self, key: str, payload: dict[str, Any]) -> None:
        """Store a metric-result payload under ``key``."""
        self._put_json_counted("metrics", key, payload)

    def get_metric(self, key: str) -> dict[str, Any] | None:
        """Load a metric-result payload, or ``None`` on a miss."""
        return self._get_json_counted("metrics", key)

    def put_cell(self, key: str, payload: dict[str, Any]) -> None:
        """Store a per-cell experiment manifest under ``key``."""
        self._put_json_counted("cells", key, payload)

    def get_cell(self, key: str) -> dict[str, Any] | None:
        """Load a per-cell experiment manifest, or ``None`` on a miss."""
        return self._get_json_counted("cells", key)

    def _put_json_counted(self, category: str, key: str, payload: dict[str, Any]) -> None:
        self._put_json(category, key, payload)
        counter_inc("repro_store_writes_total", category=category)
        try:
            size = self._json_path(category, key).stat().st_size
        except OSError:
            size = 0
        counter_inc("repro_store_write_bytes_total", size, category=category)

    def _get_json_counted(self, category: str, key: str) -> dict[str, Any] | None:
        payload = self._get_json(category, key)
        counter_inc(
            "repro_store_reads_total",
            category=category,
            outcome="hit" if payload is not None else "miss",
        )
        return payload

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def info_dict(self) -> dict[str, Any]:
        """Machine-readable store summary: location, schema, code version,
        entry counts and total payload bytes per category.

        This is the single source for both ``repro cache info --json`` and
        the topology service's ``GET /v1/store/info``, so tooling never has
        to parse the human-oriented table.
        """
        counts: dict[str, Any] = {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "code_version": code_version(),
        }
        category_bytes: dict[str, int] = {}
        count = 0
        size = 0
        for artifact in (self.root / "biggraphs").glob("*/*"):
            if artifact.is_dir() and not artifact.name.endswith(".tmp"):
                count += 1
                size += sum(
                    child.stat().st_size for child in artifact.iterdir() if child.is_file()
                )
        counts["biggraphs"] = count
        category_bytes["biggraphs"] = size
        for category in ("metrics", "cells"):
            entries = list(self._iter_json(category))
            counts[category] = len(entries)
            category_bytes[category] = sum(path.stat().st_size for _, path in entries)
        counts["category_bytes"] = category_bytes
        counts["total_bytes"] = sum(category_bytes.values())
        return counts

    #: Temporaries younger than this are presumed to belong to a live writer.
    GC_TMP_AGE_SECONDS = 3600.0

    def gc(self) -> dict[str, int]:
        """Drop stale entries; returns removal counts per category.

        Removed: abandoned temporaries (older than
        :attr:`GC_TMP_AGE_SECONDS`, so concurrent writers are left alone),
        entries written by a different code version, and cell manifests
        whose referenced graph artifact no longer exists.  Metric entries
        are version-checked only — they are keyed by graph *content* hash,
        which stays meaningful even when no artifact stores that graph
        (e.g. metrics of an original topology).
        """
        current = code_version()
        removed = {"biggraphs": 0, "metrics": 0, "cells": 0, "tmp": 0}

        cutoff = time.time() - self.GC_TMP_AGE_SECONDS
        for tmp in self.root.glob("*/*/.*.tmp"):
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue  # a live writer may still publish this
            except OSError:
                continue  # vanished mid-scan: the writer finished
            if tmp.is_dir():
                shutil.rmtree(tmp, ignore_errors=True)
            else:
                tmp.unlink(missing_ok=True)
            removed["tmp"] += 1

        live_graphs: set[str] = set()
        for artifact in sorted((self.root / "biggraphs").glob("*/*")):
            if not artifact.is_dir() or artifact.name.endswith(".tmp"):
                continue  # a temporary belongs to the sweep above
            try:
                meta = json.loads((artifact / "meta.json").read_text())
                stale = meta["metadata"].get("code_version") not in (None, current)
            except (OSError, json.JSONDecodeError, KeyError):
                stale = True  # unreadable meta: corrupt artifact
            if stale:
                shutil.rmtree(artifact, ignore_errors=True)
                removed["biggraphs"] += 1
            else:
                live_graphs.add(artifact.name)

        for category in ("metrics", "cells"):
            for key, path in self._iter_json(category):
                payload = self._get_json(category, key)
                stale = payload is None or payload.get("code_version") != current
                if not stale:
                    graph_key = payload.get("graph_key")
                    stale = graph_key is not None and graph_key not in live_graphs
                if stale:
                    path.unlink(missing_ok=True)
                    removed[category] += 1
        return removed

    def clear(self) -> None:
        """Remove every entry (the store directory itself is kept)."""
        for category in _CATEGORIES:
            shutil.rmtree(self.root / category, ignore_errors=True)

    @classmethod
    def wipe(cls, root: PathLike) -> None:
        """Remove every entry *and* the schema marker of the store at ``root``.

        Unlike :meth:`clear` this needs no :class:`ArtifactStore` instance,
        so it also resets stores whose schema no longer matches (the case
        where the constructor refuses to open them).
        """
        root = Path(root)
        for category in _CATEGORIES:
            shutil.rmtree(root / category, ignore_errors=True)
        (root / _MARKER_NAME).unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"


@contextmanager
def temporary_store() -> Iterator[ArtifactStore]:
    """An :class:`ArtifactStore` in a fresh temporary directory, removed on exit.

    What a pipeline entry point runs on when its caller gives no store: the
    run memoizes within itself exactly as it would on a persistent store,
    and nothing outlives it.
    """
    with tempfile.TemporaryDirectory(prefix="repro-store-") as root:
        yield ArtifactStore(root)


__all__ = ["ArtifactStore", "temporary_store"]
