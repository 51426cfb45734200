"""The durable sqlite-backed job queue of the campaign service.

One ``queue.db`` file per spool directory holds every job the daemon
has ever been asked to run, plus a small table of monotonic fault/
progress counters.  The design mirrors :mod:`repro.fi.store`: WAL
journaling, an explicit ``busy_timeout``, and every state transition
expressed as a single guarded ``UPDATE ... WHERE state = ?`` so that
transitions are atomic — two schedulers (or a scheduler racing its
own crash-recovery path) can never both claim the same job.

Job lifecycle::

    queued --claim--> running --finish--> done | failed | cancelled
       ^                 |
       +----requeue------+   (drain, lease reclaim, retry)

A claim takes a **lease**: the claiming scheduler's identity, pid and
a heartbeat timestamp.  A running job whose lease has expired *and*
whose scheduler pid is no longer alive is presumed orphaned by a
``kill -9`` and is reclaimed back to ``queued`` (its recorded child
process, if still alive, is killed first so no two writers ever share
a checkpoint).  Clean requeues (drain, reclaim) give the consumed
attempt back; retry requeues after a real failure keep it, which is
what drives the scheduler's width-degradation ladder.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServiceError

__all__ = ["JOB_STATES", "Job", "JobQueue"]

#: every state a job can be in; the first is the submission state.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               INTEGER PRIMARY KEY,
    spec             TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'queued',
    submitted_ts     REAL NOT NULL,
    started_ts       REAL,
    finished_ts      REAL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    workers          INTEGER NOT NULL DEFAULT 0,
    degraded         TEXT,
    error            TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    lease_owner      TEXT,
    lease_pid        INTEGER,
    lease_ts         REAL,
    child_pid        INTEGER
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
"""


def _pid_alive(pid: Optional[int]) -> bool:
    """Whether *pid* names a live process (signal-0 probe)."""
    if not pid or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, not ours
        return True
    return True


@dataclass(frozen=True)
class Job:
    """One row of the queue, decoded."""

    id: int
    spec: Dict[str, Any]
    state: str
    submitted_ts: float
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    attempts: int = 0
    workers: int = 0
    degraded: Optional[str] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    lease_owner: Optional[str] = None
    lease_pid: Optional[int] = None
    lease_ts: Optional[float] = None
    child_pid: Optional[int] = None
    #: derived, not stored: free-form per-campaign progress rows.
    progress: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> Dict[str, Any]:
        """JSON-ready status row (what the daemon streams)."""
        return {
            "id": self.id,
            "experiment": self.spec.get("experiment", "?"),
            "state": self.state,
            "attempts": self.attempts,
            "workers": self.workers,
            "degraded": self.degraded,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "progress": self.progress,
        }


_JOB_COLUMNS = (
    "id, spec, state, submitted_ts, started_ts, finished_ts, attempts, "
    "workers, degraded, error, cancel_requested, lease_owner, lease_pid, "
    "lease_ts, child_pid"
)


def _row_to_job(row) -> Job:
    (
        job_id, spec, state, submitted_ts, started_ts, finished_ts,
        attempts, workers, degraded, error, cancel_requested,
        lease_owner, lease_pid, lease_ts, child_pid,
    ) = row
    return Job(
        id=job_id,
        spec=json.loads(spec),
        state=state,
        submitted_ts=submitted_ts,
        started_ts=started_ts,
        finished_ts=finished_ts,
        attempts=attempts,
        workers=workers,
        degraded=degraded,
        error=error,
        cancel_requested=bool(cancel_requested),
        lease_owner=lease_owner,
        lease_pid=lease_pid,
        lease_ts=lease_ts,
        child_pid=child_pid,
    )


class JobQueue:
    """Durable campaign job queue over one sqlite file.

    *max_queued* bounds admission: submissions beyond that many
    non-terminal jobs are refused with :class:`ServiceError` — the
    backpressure signal clients see instead of an unbounded backlog.
    """

    def __init__(self, path: str, max_queued: int = 64) -> None:
        if max_queued < 1:
            raise ServiceError(
                f"max_queued must be >= 1, got {max_queued}"
            )
        self.path = str(path)
        self.max_queued = max_queued
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection -----------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA busy_timeout=30000")
                conn.executescript(_SCHEMA)
                conn.commit()
            except sqlite3.Error as exc:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
                raise ServiceError(
                    f"{self.path}: not a usable job queue ({exc})"
                ) from exc
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission / admission -----------------------------------------
    def submit(self, spec: Dict[str, Any]) -> int:
        """Enqueue one job; returns its id.

        Raises :class:`ServiceError` when the queue is at its
        admission bound (counting every non-terminal job) — callers
        should back off and resubmit, not retry in a tight loop.
        """
        if not isinstance(spec, dict) or "experiment" not in spec:
            raise ServiceError(
                "a job spec is a JSON object with at least an "
                "'experiment' key"
            )
        conn = self.connection
        with conn:  # one transaction: the admission check is atomic
            (backlog,) = conn.execute(
                "SELECT COUNT(*) FROM jobs "
                "WHERE state IN ('queued', 'running')"
            ).fetchone()
            if backlog >= self.max_queued:
                raise ServiceError(
                    f"queue full: {backlog} jobs queued or running "
                    f"(admission bound {self.max_queued}); retry later"
                )
            cursor = conn.execute(
                "INSERT INTO jobs (spec, state, submitted_ts) "
                "VALUES (?, 'queued', ?)",
                (json.dumps(spec, separators=(",", ":")), time.time()),
            )
        job_id = cursor.lastrowid
        assert job_id is not None
        return job_id

    # -- claims and leases ----------------------------------------------
    def claim(
        self, owner: str, pid: int, exclude: Sequence[int] = ()
    ) -> Optional[Job]:
        """Atomically claim the oldest queued job; ``None`` = empty.

        *exclude* skips job ids the caller is not ready to run yet
        (retry backoff).  The claim is a guarded UPDATE: if another
        scheduler wins the row between our SELECT and UPDATE, the
        rowcount is 0 and we simply try the next row.
        """
        excluded = set(int(job_id) for job_id in exclude)
        conn = self.connection
        while True:
            row = None
            for candidate in conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued' "
                "AND cancel_requested = 0 ORDER BY id"
            ):
                if candidate[0] not in excluded:
                    row = candidate
                    break
            if row is None:
                return None
            now = time.time()
            with conn:
                cursor = conn.execute(
                    "UPDATE jobs SET state = 'running', "
                    "attempts = attempts + 1, lease_owner = ?, "
                    "lease_pid = ?, lease_ts = ?, child_pid = NULL, "
                    "started_ts = COALESCE(started_ts, ?) "
                    "WHERE id = ? AND state = 'queued'",
                    (owner, pid, now, now, row[0]),
                )
            if cursor.rowcount == 1:
                return self.get(row[0])

    def heartbeat(self, job_id: int) -> None:
        """Refresh a running job's lease timestamp."""
        with self.connection as conn:
            conn.execute(
                "UPDATE jobs SET lease_ts = ? "
                "WHERE id = ? AND state = 'running'",
                (time.time(), job_id),
            )

    def set_child(self, job_id: int, child_pid: Optional[int]) -> None:
        """Record the forked child actually executing the job."""
        with self.connection as conn:
            conn.execute(
                "UPDATE jobs SET child_pid = ? "
                "WHERE id = ? AND state = 'running'",
                (child_pid, job_id),
            )

    def set_workers(
        self, job_id: int, workers: int, degraded: Optional[str] = None
    ) -> None:
        """Record the granted worker width (and any honest
        degradation note) in the job's status row."""
        with self.connection as conn:
            conn.execute(
                "UPDATE jobs SET workers = ?, "
                "degraded = COALESCE(?, degraded) WHERE id = ?",
                (workers, degraded, job_id),
            )

    def reclaim_stale(self, lease_timeout_s: float) -> List[Job]:
        """Requeue running jobs whose scheduler is gone.

        A lease is stale when its heartbeat is older than
        *lease_timeout_s* **and** the leasing pid is dead (a live but
        slow scheduler keeps its jobs).  ``lease_timeout_s = 0``
        reclaims every dead-pid lease immediately — the daemon's own
        startup recovery after a ``kill -9``.  Recorded child
        processes that are still alive are killed before the requeue
        so the resumed job never races its orphaned predecessor over
        one checkpoint.
        """
        horizon = time.time() - lease_timeout_s
        stale: List[Job] = []
        rows = self.connection.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs "
            f"WHERE state = 'running' "
            f"AND (lease_ts IS NULL OR lease_ts <= ?)",
            (horizon,),
        ).fetchall()
        for row in rows:
            job = _row_to_job(row)
            if _pid_alive(job.lease_pid):
                continue  # scheduler is alive, just slow: keep lease
            if _pid_alive(job.child_pid):
                try:
                    os.kill(job.child_pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - raced its exit
                    pass
            if self.requeue(job.id, give_back_attempt=True):
                self.bump("leases_reclaimed")
                stale.append(job)
        return stale

    # -- state transitions ----------------------------------------------
    def requeue(self, job_id: int, give_back_attempt: bool) -> bool:
        """running → queued (drain, reclaim, retry); returns success.

        *give_back_attempt* refunds the attempt the claim consumed —
        clean requeues (drain, lease reclaim) are not the job's
        fault, so they must not march it down the degradation
        ladder.
        """
        refund = 1 if give_back_attempt else 0
        with self.connection as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'queued', "
                "attempts = MAX(attempts - ?, 0), lease_owner = NULL, "
                "lease_pid = NULL, lease_ts = NULL, child_pid = NULL "
                "WHERE id = ? AND state = 'running'",
                (refund, job_id),
            )
        return cursor.rowcount == 1

    def finish(
        self, job_id: int, state: str, error: Optional[str] = None
    ) -> bool:
        """running → done | failed | cancelled; returns success."""
        if state not in TERMINAL_STATES:
            raise ServiceError(f"not a terminal job state: {state!r}")
        with self.connection as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, error = ?, finished_ts = ?, "
                "lease_owner = NULL, lease_pid = NULL, lease_ts = NULL, "
                "child_pid = NULL "
                "WHERE id = ? AND state = 'running'",
                (state, error, time.time(), job_id),
            )
        return cursor.rowcount == 1

    def request_cancel(self, job_id: int) -> str:
        """Cancel a job; returns the resulting state.

        A queued job cancels immediately; a running one is flagged
        (the scheduler stops its child and finishes the transition);
        a terminal one is left alone.
        """
        conn = self.connection
        with conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_ts = ? "
                "WHERE id = ? AND state = 'queued'",
                (time.time(), job_id),
            )
            if cursor.rowcount == 1:
                return "cancelled"
            conn.execute(
                "UPDATE jobs SET cancel_requested = 1 "
                "WHERE id = ? AND state = 'running'",
                (job_id,),
            )
        job = self.get(job_id)
        return job.state if job is not None else "unknown"

    # -- queries --------------------------------------------------------
    def get(self, job_id: int) -> Optional[Job]:
        row = self.connection.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return _row_to_job(row) if row is not None else None

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        query = f"SELECT {_JOB_COLUMNS} FROM jobs"
        args: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY id"
        rows = self.connection.execute(query, args).fetchall()
        return [_row_to_job(row) for row in rows]

    def depth(self) -> Dict[str, int]:
        """Job count per state (zero-count states included)."""
        counts = {state: 0 for state in JOB_STATES}
        rows = self.connection.execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ).fetchall()
        for state, count in rows:
            counts[state] = count
        return counts

    # -- counters -------------------------------------------------------
    def bump(self, name: str, delta: int = 1) -> None:
        """Increment one monotonic fault/progress counter."""
        with self.connection as conn:
            conn.execute(
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET value = value + ?",
                (name, delta, delta),
            )

    def counters(self) -> Dict[str, int]:
        rows = self.connection.execute(
            "SELECT name, value FROM counters ORDER BY name"
        ).fetchall()
        return dict(rows)
