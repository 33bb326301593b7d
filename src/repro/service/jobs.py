"""Background experiment jobs: submit, watch, cancel, resume.

``POST /v1/experiments`` turns an :class:`~repro.experiment.ExperimentSpec`
grid into a *job*: the grid runs on a dedicated thread (off the request
worker pool, so long sweeps never starve interactive requests) with
per-cell progress reported through :func:`run_experiment`'s ``on_cell``
callback and cooperative cancellation through its ``cancel`` event.  A
cancelled job stops at the next cell boundary; because every completed cell
already wrote its store manifest, re-submitting the same spec with
``resume=True`` continues where the job stopped.

This module imports the experiment pipeline lazily, on the first
submitted job, so importing the service stays cheap.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.exceptions import ServiceError

#: Job lifecycle: queued -> running -> {done, cancelled, error}.
ACTIVE_STATES = ("queued", "running")


class Job:
    """One submitted experiment grid and its observable state."""

    def __init__(self, spec: Any, *, workers: int, resume: bool):
        self.id = uuid.uuid4().hex[:12]
        self.spec = spec
        self.workers = workers
        self.resume = resume
        self.status = "queued"
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.progress = {"done": 0, "total": len(spec.cells()), "cached": 0}
        self.error: str | None = None
        self.result: Any = None  # ExperimentResult (possibly partial)
        self.cancel_event = threading.Event()

    def cancel(self) -> bool:
        """Request cooperative cancellation; ``False`` when already final."""
        if self.status not in ACTIVE_STATES:
            return False
        self.cancel_event.set()
        return True

    def summary(self) -> dict[str, Any]:
        """Compact JSON view (job listings, submit responses)."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "status": self.status,
            "progress": dict(self.progress),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
        }

    def detail(
        self, *, offset: int | None = None, limit: int | None = None
    ) -> dict[str, Any]:
        """Full JSON view, including result rows once the job is final.

        ``offset``/``limit`` paginate the ``records`` list server-side (large
        grids produce thousands of rows; clients page instead of re-downloading
        the full document on every poll).  ``records_total`` always reports the
        unpaginated count and ``records_offset`` the window start, so a client
        can iterate ``offset += limit`` until the window comes back short.
        """
        payload = self.summary()
        payload["spec"] = self.spec.to_dict()
        payload["workers"] = self.workers
        payload["resume"] = self.resume
        if self.result is not None:
            payload["cached_cells"] = self.result.cached_cells
            payload["wall_time"] = float(self.result.wall_time)
            if self.status in ("done", "cancelled"):
                rows = self.result.to_rows()
                start = offset or 0
                window = rows[start:] if limit is None else rows[start : start + limit]
                payload["records"] = window
                payload["records_total"] = len(rows)
                payload["records_offset"] = start
        return payload


class JobManager:
    """Bounded registry of background experiment jobs."""

    def __init__(self, store: Any | None, *, max_active: int = 4, max_history: int = 100):
        self._store = store
        self._max_active = max_active
        self._max_history = max_history
        self._jobs: dict[str, Job] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max_active, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, most recently submitted first."""
        return sorted(self._jobs.values(), key=lambda job: job.submitted, reverse=True)

    def active_count(self) -> int:
        return sum(1 for job in self._jobs.values() if job.status in ACTIVE_STATES)

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def submit(self, spec: Any, *, workers: int = 1, resume: bool = True) -> Job:
        """Queue one experiment grid; raises when the job pool is saturated."""
        if self.active_count() >= self._max_active:
            raise ServiceError(
                f"job pool saturated ({self._max_active} active jobs); retry later"
            )
        self._trim_history()
        job = Job(spec, workers=workers, resume=resume)
        self._jobs[job.id] = job
        self._executor.submit(self._run, job)
        return job

    def _run(self, job: Job) -> None:
        from repro.exceptions import ExperimentInterrupted
        from repro.experiment import run_experiment

        job.status = "running"
        job.started = time.time()

        def on_cell(done: int, total: int) -> None:
            job.progress["done"] = done
            job.progress["total"] = total

        try:
            result = run_experiment(
                job.spec,
                workers=job.workers,
                store=self._store,
                resume=job.resume,
                cancel=job.cancel_event,
                on_cell=on_cell,
            )
            job.result = result
            job.progress["cached"] = result.cached_cells
            job.status = "done"
        except ExperimentInterrupted as interrupted:
            job.result = interrupted.result
            if interrupted.result is not None:
                job.progress["done"] = len(interrupted.result.records)
                job.progress["cached"] = interrupted.result.cached_cells
            job.status = "cancelled"
        except BaseException as error:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(error).__name__}: {error}"
            job.status = "error"
        finally:
            job.finished = time.time()

    def _trim_history(self) -> None:
        """Drop the oldest finished jobs beyond the history bound."""
        finished = [job for job in self.jobs() if job.status not in ACTIVE_STATES]
        for job in finished[self._max_history :]:
            self._jobs.pop(job.id, None)

    def shutdown(self) -> None:
        """Cancel active jobs and stop the worker thread(s)."""
        for job in self._jobs.values():
            job.cancel()
        self._executor.shutdown(wait=True, cancel_futures=True)


__all__ = ["Job", "JobManager", "ACTIVE_STATES"]
