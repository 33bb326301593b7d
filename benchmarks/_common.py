"""Shared constants and helpers for the benchmark harness.

Besides the pytest-benchmark timing, every :func:`run_once` call records a
machine-readable result row — benchmark name, wall time and the size of the
measured topology — which ``benchmarks/conftest.py`` merges into
``BENCH_results.json`` (override the path with ``REPRO_BENCH_JSON``) at the
end of the session, so CI and scripts can diff benchmark numbers without
scraping stdout.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "full") == "full"

#: Where the machine-readable results document is written.
BENCH_RESULTS_PATH = os.environ.get("REPRO_BENCH_JSON", "BENCH_results.json")

# deterministic seeds so EXPERIMENTS.md numbers are reproducible
HOT_SEED = 20060911
AS_SEED = 20060912
GENERATION_SEED = 1

#: Result rows accumulated over the session; see :func:`write_results`.
_RESULTS: list[dict[str, Any]] = []


def _extract_shape(result: Any) -> tuple[int | None, int | None]:
    """Best-effort ``(n, m)`` of whatever a benchmark function returned."""
    if hasattr(result, "number_of_nodes") and hasattr(result, "number_of_edges"):
        return result.number_of_nodes, result.number_of_edges
    records = getattr(result, "records", None)
    if records:
        return records[0].nodes, records[0].edges
    if isinstance(result, dict):
        for value in result.values():
            n, m = _extract_shape(value)
            if n is not None:
                return n, m
    return None, None


def record_result(
    name: str,
    wall_time: float,
    result: Any = None,
    *,
    n: int | None = None,
    m: int | None = None,
    **extra: Any,
) -> None:
    """Append one benchmark row; sizes are inferred from ``result`` if omitted.

    ``extra`` fields are merged into the row verbatim — the service load-test
    harness records latency percentiles, concurrency levels and cache hit
    ratios this way.
    """
    if n is None and m is None:
        n, m = _extract_shape(result)
    _RESULTS.append(
        {"bench": name, "wall_time": float(wall_time), "n": n, "m": m, **extra}
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The wall time and the measured topology's size are also appended to the
    session's ``BENCH_results.json`` rows: the size of the result when it has
    one, else that of the first argument (the input topology).
    """
    start = time.perf_counter()
    result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
    wall = time.perf_counter() - start
    name = getattr(benchmark, "name", None) or getattr(func, "__name__", "bench")
    n, m = _extract_shape(result)
    if n is None and args:
        n, m = _extract_shape(args[0])
    record_result(name, wall, n=n, m=m)
    return result


def _existing_document(target: Path) -> dict[str, Any] | None:
    """The results document already at ``target`` (None if absent or unreadable)."""
    try:
        document = json.loads(target.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or not isinstance(document.get("results"), list):
        return None
    return document


def write_results(path: str | os.PathLike | None = None) -> Path | None:
    """Merge accumulated rows into the JSON document; returns the path.

    Rows are keyed by bench name: this session's rows replace rows of the
    same name and every other row of an existing document is kept, so a
    partial run (one bench file, one ``-k`` selection) never drops the rest
    of the ledger.  The document stays ``full_scale`` only while every run
    merged into it was.  Returns None when the session recorded nothing.
    """
    if not _RESULTS:
        return None
    target = Path(path or BENCH_RESULTS_PATH)
    existing = _existing_document(target)
    rows = {row["bench"]: row for row in (existing or {}).get("results", [])}
    rows.update((row["bench"], row) for row in _RESULTS)
    full_scale = FULL_SCALE and (existing is None or bool(existing.get("full_scale")))
    target.write_text(
        json.dumps(
            {"schema": 1, "full_scale": full_scale, "results": list(rows.values())},
            indent=2,
        )
        + "\n"
    )
    return target


def chain_stats_table(result: Any, *, title: str | None = None) -> str:
    """One row per generated cell of an experiment: its chain's moves.

    Shows accepted and attempted moves, the acceptance rate, whether the
    chain converged and, for targeting chains, the distance it stopped at.
    """
    from repro.analysis.tables import render_table
    from repro.experiment import ORIGINAL_METHOD

    rows = []
    for record in result.records:
        if record.method == ORIGINAL_METHOD:
            continue
        stats = record.stats
        accepted = stats.get("accepted_moves", "-")
        attempted = stats.get("attempted_moves", "-")
        rate = stats.get("accept_rate")
        rows.append(
            [
                record.method,
                record.d,
                record.replicate,
                accepted,
                attempted,
                "-" if rate is None else float(rate),
                stats.get("converged", "-"),
                stats.get("distance", "-"),
            ]
        )
    headers = ["method", "d", "rep", "accepted", "attempted", "accept_rate", "converged", "distance"]
    return render_table(headers, rows, title=title)
