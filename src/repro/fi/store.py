"""The campaign results database.

:class:`SqliteResultStore` owns campaign persistence, both halves of
it:

* the **checkpoint side** (per-task records keyed by campaign +
  fingerprint, digest-verified on load, flushed incrementally while
  the campaign runs), consumed by
  :class:`~repro.fi.executor.CampaignExecutor`;
* the **result side** (whole campaign results — permeability
  estimates, detection results, memory campaigns — saved under a run
  name with metadata), consumed by the analytics layer
  (:mod:`repro.analysis.compare`) and the ``repro analyze`` CLI.

Campaigns, per-task records, quarantined task failures, run events
(integrity violations among them), saved results and the placement
cache's per-module estimates (:mod:`repro.place.cache`) live in normalized
tables of one sqlite file, written in WAL mode.  Records stream in
per-flush transactions (each record's bytes are written once), and
resume only needs the completed index set — the full result set is
never materialized in memory on load.  One database holds many
campaigns and many runs, which is what makes cross-campaign analytics
(``repro analyze diff``) possible.

The legacy JSON checkpoint document (``{campaign, fingerprint,
n_tasks, results, digests}``) is an import format only:
:meth:`SqliteResultStore.import_checkpoint` (``repro analyze import``)
validates one and copies it in.

Digests are a store-level concern: the store stamps every checkpoint
record with its canonical content digest
(:func:`~repro.fi.integrity.canonical_digest`) on write and re-verifies
on load, reporting mismatches through the caller's violation callback
per the integrity policy (``strict`` raises, ``repair`` drops the
record for re-execution, ``off`` loads unverified).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import CampaignError, IntegrityError
from repro.fi.integrity import IntegrityViolation, canonical_digest

__all__ = [
    "StoreStats",
    "StoredResult",
    "StoredCampaign",
    "SqliteResultStore",
]

#: marker key of an encoded TaskFailure record (mirrors the executor's
#: ``_FAILURE_MARKER``; kept literal here so the store does not import
#: the executor, which imports the store).
_FAILURE_MARKER = "__task_failure__"

_VIOLATION_CALLBACK = Callable[[IntegrityViolation], None]

#: a staged record: (JSON text, digest, failure row or None).
_Staged = Tuple[str, Optional[str], Optional[Tuple]]

#: stands in for a stored record whose text is not JSON.
_UNDECODABLE = object()

#: bounded retry of a flush transaction that hits ``SQLITE_BUSY``
#: (concurrent campaigns sharing one results database).
_BUSY_RETRIES = 5
_BUSY_BACKOFF_S = 0.05

#: flushes started by this process, counted only while the
#: ``REPRO_CHAOS_KILL_FLUSH`` chaos hook is armed.
_CHAOS_FLUSH_N = 0


def _chaos_kill_flush() -> None:
    """Simulated ``kill -9`` at a flush's most vulnerable point.

    ``REPRO_CHAOS_KILL_FLUSH=<n>`` hard-exits the process during this
    process's *n*-th flush — after the new rows are inserted but
    before they are committed.  A crash in this window must leave the
    previously persisted state intact and loadable; the recovery tests
    and the service chaos job drive exactly that.
    """
    target = os.environ.get("REPRO_CHAOS_KILL_FLUSH")
    if not target:
        return
    try:
        nth = int(target)
    except ValueError:
        return
    global _CHAOS_FLUSH_N
    _CHAOS_FLUSH_N += 1
    if _CHAOS_FLUSH_N == nth:
        os._exit(137)


@dataclass
class StoreStats:
    """Write-side statistics of one store instance.

    ``bytes_written`` counts the payload bytes each flush persisted:
    only the new records, each written once.
    """

    flushes: int = 0
    #: flushes skipped because no new records arrived.
    skipped_flushes: int = 0
    records_written: int = 0
    bytes_written: int = 0
    #: flush transactions retried after SQLITE_BUSY contention.
    busy_retries: int = 0


@dataclass(frozen=True)
class StoredResult:
    """Catalogue entry of one saved campaign result."""

    run: str
    kind: str
    created_ts: float
    digest: str
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StoredCampaign:
    """Catalogue entry of one checkpointed campaign."""

    campaign: str
    fingerprint: str
    n_tasks: int
    completed: int
    failures: int


def _digest_or_none(record: Any) -> Optional[str]:
    try:
        return canonical_digest(record)
    except IntegrityError:
        return None  # non-JSON records cannot be verified later


def _staged(record: Any, digest: Optional[str] = None) -> _Staged:
    """*record* as the row a flush writes; the store computes the
    canonical digest unless *digest* is given."""
    failure: Optional[Tuple] = None
    if isinstance(record, dict) and record.get(_FAILURE_MARKER) == 1:
        failure = (
            str(record.get("kind", "")),
            str(record.get("error", "")),
            int(record.get("attempts", 0)),
        )
    return (
        json.dumps(record, separators=(",", ":")),
        digest if digest is not None else _digest_or_none(record),
        failure,
    )


def _record_problem(record: Any) -> Optional[str]:
    """Why a checkpoint record cannot be loaded, or ``None``."""
    if record is _UNDECODABLE:
        return "is not JSON"
    if isinstance(record, dict) and record.get(_FAILURE_MARKER) == 1:
        try:
            int(record["index"])
            int(record["attempts"])
            if isinstance(record["kind"], str) and isinstance(
                record["error"], str
            ):
                return None
        except (KeyError, TypeError, ValueError):
            pass
        return "is a malformed quarantine record"
    return None


def _verify_record(
    campaign: str,
    index: int,
    record: Any,
    stored_digest: Optional[str],
    policy: str,
    on_violation: Optional[_VIOLATION_CALLBACK],
    path: str,
) -> bool:
    """Digest-check one loaded record; returns whether to keep it.

    Records without a digest (pre-digest checkpoints) always load; a
    mismatch is reported through *on_violation* and then either raises
    (``strict``) or rejects the record (``repair``).
    """
    if stored_digest is None or policy == "off":
        return True
    computed = _digest_or_none(record)
    if computed is None:
        computed = "<undigestable>"
    if computed == stored_digest:
        return True
    violation = IntegrityViolation(
        kind="checkpoint_digest",
        campaign=campaign,
        index=index,
        detail="stored record does not match its digest",
        expected=str(stored_digest),
        observed=computed,
    )
    if on_violation is not None:
        on_violation(violation)
    if policy == "strict":
        raise IntegrityError(
            f"checkpoint {path} failed verification: "
            f"{violation.describe()}"
        )
    return False  # repair: drop it, the task re-executes


def _parse_checkpoint(
    payload: Any,
) -> Tuple[str, str, int, Dict[int, Tuple[Any, Optional[str]]]]:
    """Validate a legacy JSON checkpoint document as a whole.

    Returns its identity and ``{index: (record, digest)}``; raises
    :class:`ValueError` naming the first problem.
    """
    if not isinstance(payload, dict):
        raise ValueError("the document is not an object")
    campaign = payload.get("campaign")
    fingerprint = payload.get("fingerprint")
    n_tasks = payload.get("n_tasks")
    results = payload.get("results")
    digests = payload.get("digests", {})
    if not isinstance(campaign, str) or not isinstance(fingerprint, str):
        raise ValueError("'campaign' and 'fingerprint' must be strings")
    if type(n_tasks) is not int or n_tasks < 0:
        raise ValueError("'n_tasks' must be a non-negative integer")
    if not isinstance(results, dict):
        raise ValueError("'results' must map task indices to records")
    if not isinstance(digests, dict) or not all(
        isinstance(digest, str) for digest in digests.values()
    ):
        raise ValueError("'digests' must map task indices to strings")
    rows: Dict[int, Tuple[Any, Optional[str]]] = {}
    for key, record in results.items():
        try:
            index = int(key)
        except ValueError:
            raise ValueError(f"task index {key!r} is not an integer") from None
        if not 0 <= index < n_tasks:
            raise ValueError(
                f"task index {index} is outside [0, {n_tasks})"
            )
        problem = _record_problem(record)
        if problem is not None:
            raise ValueError(f"the record of task {index} {problem}")
        rows[index] = (record, digests.get(key))
    return campaign, fingerprint, n_tasks, rows


def _legacy_hint(path: str) -> str:
    """How to migrate the file at *path*, if it is a legacy JSON
    checkpoint; ``""`` otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return ""
    if not isinstance(payload, dict) or not {"campaign", "results"} <= set(
        payload
    ):
        return ""
    return (
        f"; it is a legacy JSON checkpoint, which only imports: "
        f"repro analyze --db DB import {path}"
    )


_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    n_tasks     INTEGER NOT NULL,
    created_ts  REAL NOT NULL,
    UNIQUE (name, fingerprint, n_tasks)
);
CREATE TABLE IF NOT EXISTS tasks (
    campaign_id INTEGER NOT NULL
        REFERENCES campaigns(id) ON DELETE CASCADE,
    idx         INTEGER NOT NULL,
    record      TEXT NOT NULL,
    digest      TEXT,
    PRIMARY KEY (campaign_id, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS task_failures (
    campaign_id INTEGER NOT NULL
        REFERENCES campaigns(id) ON DELETE CASCADE,
    idx         INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    error       TEXT NOT NULL,
    attempts    INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS events (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER
        REFERENCES campaigns(id) ON DELETE CASCADE,
    ts          REAL NOT NULL,
    event       TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    run         TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    digest      TEXT NOT NULL,
    created_ts  REAL NOT NULL,
    meta        TEXT
);
CREATE TABLE IF NOT EXISTS module_estimates (
    module      TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    payload     TEXT NOT NULL
);
"""


class SqliteResultStore:
    """Persistence of campaign checkpoints and campaign results in one
    sqlite database (WAL mode).

    *path* names the database, whatever its suffix.  Checkpoint
    protocol (driven by the executor)::

        rejects = store.open_campaign(name, fingerprint, n_tasks,
                                      policy, on_violation)
        done = store.completed_indices()     # schedule only the rest
        store.put_record(index, record)      # per finished task
        store.flush()                        # per checkpoint_every,
                                             # and on every exit path
        record = store.get_record(index)     # resumed records, lazily

    Result protocol (driven by drivers and the analytics layer)::

        store.save_result(result, run="table4/detection", meta={...})
        result = store.load_result("table4/detection")
        store.list_results()

    Records must be JSON-encodable; the executor encodes
    :class:`~repro.fi.executor.TaskFailure` records before handing
    them over and decodes them after fetching.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.stats = StoreStats()
        self._conn: Optional[sqlite3.Connection] = None
        self._campaign_id: Optional[int] = None
        self._campaign: Optional[Tuple[str, str, int]] = None
        self._completed: Set[int] = set()
        #: staged records by task index
        self._pending: Dict[int, _Staged] = {}
        self._pending_events: List[Tuple[float, str, str]] = []

    # -- connection -----------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA foreign_keys=ON")
                # the connect timeout above only guards the python
                # layer; an explicit busy_timeout makes sqlite itself
                # wait out writer contention instead of surfacing
                # SQLITE_BUSY immediately (concurrent campaigns share
                # one results database under the service daemon)
                conn.execute("PRAGMA busy_timeout=30000")
                conn.executescript(_SCHEMA)
                conn.commit()
            except sqlite3.Error as exc:
                # close the half-open handle before surfacing a clean
                # one-line error (a hot WAL journal must not linger)
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
                raise CampaignError(
                    f"{self.path}: not a usable sqlite results "
                    f"database ({exc}){_legacy_hint(self.path)}"
                ) from exc
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Flush and release the database (idempotent)."""
        if self._conn is not None:
            try:
                self.flush()
            except (sqlite3.Error, CampaignError):
                pass
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- checkpoint side ------------------------------------------------
    @staticmethod
    def _campaign_row(
        conn: sqlite3.Connection, campaign: str, fingerprint: str,
        n_tasks: int,
    ) -> Tuple[int, bool]:
        """The id of a campaign identity's row, inserting it (not yet
        committed) when absent; and whether it was inserted."""
        row = conn.execute(
            "SELECT id FROM campaigns "
            "WHERE name = ? AND fingerprint = ? AND n_tasks = ?",
            (campaign, fingerprint, n_tasks),
        ).fetchone()
        if row is not None:
            return row[0], False
        cursor = conn.execute(
            "INSERT INTO campaigns (name, fingerprint, n_tasks, created_ts) "
            "VALUES (?, ?, ?, ?)",
            (campaign, fingerprint, n_tasks, time.time()),
        )
        return cursor.lastrowid, True

    def open_campaign(
        self,
        campaign: str,
        fingerprint: str,
        n_tasks: int,
        policy: str = "repair",
        on_violation: Optional[_VIOLATION_CALLBACK] = None,
    ) -> int:
        """Bind the store to one campaign identity; returns the number
        of stored records rejected by digest verification.

        A stored campaign whose fingerprint or task count differs is
        another campaign: its records are never loaded.  Under the
        ``strict`` policy a digest mismatch raises
        :class:`~repro.errors.IntegrityError`; under ``repair`` the
        record is deleted (and its task re-executes); ``off`` skips
        verification.  A row that cannot load at all — an index
        outside ``[0, n_tasks)``, a record that is not JSON, a
        malformed quarantine record — is deleted too, never a crash.
        """
        key = (campaign, fingerprint, n_tasks)
        if self._campaign == key:
            return 0  # already verified in this store instance
        conn = self.connection
        self._campaign = key
        self._pending = {}
        self._campaign_id, created = self._campaign_row(
            conn, campaign, fingerprint, n_tasks
        )
        if created:
            conn.commit()
            self._completed = set()
            return 0
        rejects = 0
        completed: Set[int] = set()
        rejected: List[Any] = []
        for idx, record_text, digest in conn.execute(
            "SELECT idx, record, digest FROM tasks "
            "WHERE campaign_id = ? ORDER BY idx",
            (self._campaign_id,),
        ):
            if isinstance(idx, int) and 0 <= idx < n_tasks:
                try:
                    record = json.loads(record_text)
                except (TypeError, ValueError):
                    record = _UNDECODABLE
                try:
                    kept = _verify_record(
                        campaign, idx, record, digest, policy,
                        on_violation, self.path,
                    )
                except IntegrityError:
                    # strict abort: leave the store unbound
                    self._campaign = None
                    self._campaign_id = None
                    self._completed = set()
                    raise
                if not kept:
                    rejects += 1
                elif _record_problem(record) is None:
                    completed.add(idx)
                    continue
            rejected.append(idx)
        if rejected:
            conn.executemany(
                "DELETE FROM tasks WHERE campaign_id = ? AND idx = ?",
                [(self._campaign_id, idx) for idx in rejected],
            )
            conn.executemany(
                "DELETE FROM task_failures "
                "WHERE campaign_id = ? AND idx = ?",
                [(self._campaign_id, idx) for idx in rejected],
            )
            conn.commit()
        self._completed = completed
        return rejects

    def _require_campaign(self) -> int:
        if self._campaign_id is None:
            raise CampaignError(
                "no campaign bound; call open_campaign() first"
            )
        return self._campaign_id

    def completed_indices(self) -> Set[int]:
        """Verified task indices of the bound campaign."""
        self._require_campaign()
        return set(self._completed)

    def get_record(self, index: int) -> Any:
        """The stored record at *index* (raw, JSON-decoded)."""
        campaign_id = self._require_campaign()
        staged = self._pending.get(index)
        if staged is not None:
            return json.loads(staged[0])
        row = self.connection.execute(
            "SELECT record FROM tasks WHERE campaign_id = ? AND idx = ?",
            (campaign_id, index),
        ).fetchone()
        if row is None:
            raise CampaignError(
                f"no stored record for task {index} in {self.path}"
            )
        return json.loads(row[0])

    def put_record(
        self, index: int, record: Any, digest: Optional[str] = None
    ) -> None:
        """Stage one record; persisted by the next :meth:`flush`."""
        self._require_campaign()
        self._pending[index] = _staged(record, digest)
        self._completed.add(index)

    def flush(self) -> bool:
        """Persist staged records and events in one transaction;
        returns False when there was nothing new to write."""
        if not self._pending and not self._pending_events:
            self.stats.skipped_flushes += 1
            return False
        conn = self.connection
        campaign_id = self._campaign_id
        pending = self._pending
        events = self._pending_events
        self._pending = {}
        self._pending_events = []
        try:
            written = self._flush_with_busy_retry(
                conn, campaign_id, pending, events
            )
        except BaseException:
            # whatever interrupted the flush (SQLITE_BUSY exhaustion,
            # KeyboardInterrupt during drain, an I/O error): the
            # staged records are not lost — they re-enter the next
            # flush, behind anything staged meanwhile
            self._restage(pending, events)
            raise
        self.stats.flushes += 1
        self.stats.records_written += len(pending)
        self.stats.bytes_written += written
        return True

    def _restage(
        self,
        pending: Dict[int, _Staged],
        events: List[Tuple[float, str, str]],
    ) -> None:
        for idx, row in pending.items():
            self._pending.setdefault(idx, row)
        self._pending_events[:0] = events

    def _flush_with_busy_retry(
        self,
        conn: sqlite3.Connection,
        campaign_id: Optional[int],
        pending: Dict[int, _Staged],
        events: List[Tuple[float, str, str]],
    ) -> int:
        """One flush transaction, retried through ``SQLITE_BUSY``.

        ``busy_timeout`` already makes sqlite wait out short writer
        contention; this bounded retry covers the residual cases that
        still surface as ``database is locked`` (a writer holding the
        lock past the timeout, lock escalation races), so concurrent
        campaigns sharing one database degrade to a delay, not a
        crash.
        """
        for attempt in range(1, _BUSY_RETRIES + 1):
            try:
                return self._flush_transaction(
                    conn, campaign_id, pending, events
                )
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                if attempt == _BUSY_RETRIES:
                    raise CampaignError(
                        f"{self.path}: flush still SQLITE_BUSY after "
                        f"{_BUSY_RETRIES} attempts ({exc})"
                    ) from exc
                self.stats.busy_retries += 1
                time.sleep(_BUSY_BACKOFF_S * (2 ** (attempt - 1)))
        raise AssertionError("unreachable")  # pragma: no cover

    def _flush_transaction(
        self,
        conn: sqlite3.Connection,
        campaign_id: Optional[int],
        pending: Dict[int, _Staged],
        events: List[Tuple[float, str, str]],
    ) -> int:
        written = 0
        if pending:
            if campaign_id is None:  # pragma: no cover - guarded by put
                raise CampaignError("no campaign bound for staged records")
            conn.executemany(
                "INSERT OR REPLACE INTO tasks "
                "(campaign_id, idx, record, digest) VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, idx, text, digest)
                    for idx, (text, digest, _) in pending.items()
                ],
            )
            # quarantined tasks are mirrored into the normalized
            # failures table; a later successful record (repair,
            # re-execution) clears the failure row again
            conn.executemany(
                "DELETE FROM task_failures "
                "WHERE campaign_id = ? AND idx = ?",
                [(campaign_id, idx) for idx in pending],
            )
            failure_rows = [
                (campaign_id, idx) + failure
                for idx, (_, _, failure) in pending.items()
                if failure is not None
            ]
            if failure_rows:
                conn.executemany(
                    "INSERT OR REPLACE INTO task_failures "
                    "(campaign_id, idx, kind, error, attempts) "
                    "VALUES (?, ?, ?, ?, ?)",
                    failure_rows,
                )
            written = sum(
                len(text) + len(digest or "")
                for text, digest, _ in pending.values()
            )
        if events:
            conn.executemany(
                "INSERT INTO events (campaign_id, ts, event, payload) "
                "VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, ts, event, payload)
                    for ts, event, payload in events
                ],
            )
        _chaos_kill_flush()  # die after the inserts, before the commit
        conn.commit()
        return written

    def discard_campaign(self, campaign: str) -> None:
        """Drop every stored record of *campaign* (fresh-start runs)."""
        conn = self.connection
        conn.execute("DELETE FROM campaigns WHERE name = ?", (campaign,))
        conn.commit()
        if self._campaign is not None and self._campaign[0] == campaign:
            self._campaign = None
            self._campaign_id = None
            self._completed = set()
            self._pending = {}

    def list_campaigns(self) -> List[StoredCampaign]:
        """Catalogue of the checkpointed campaigns in this store."""
        conn = self.connection
        rows = conn.execute(
            "SELECT c.id, c.name, c.fingerprint, c.n_tasks, "
            "       (SELECT COUNT(*) FROM tasks t "
            "        WHERE t.campaign_id = c.id), "
            "       (SELECT COUNT(*) FROM task_failures f "
            "        WHERE f.campaign_id = c.id) "
            "FROM campaigns c ORDER BY c.created_ts",
        ).fetchall()
        return [
            StoredCampaign(
                campaign=name,
                fingerprint=fingerprint,
                n_tasks=n_tasks,
                completed=completed,
                failures=failures,
            )
            for _, name, fingerprint, n_tasks, completed, failures in rows
        ]

    # -- events ---------------------------------------------------------
    def log_event(self, record: Dict[str, Any]) -> None:
        """Stage one run event; persisted by the next :meth:`flush`."""
        fields = {
            k: v for k, v in record.items()
            if k not in ("ts", "campaign", "event")
        }
        self._pending_events.append(
            (
                float(record.get("ts", time.time())),
                str(record.get("event", "")),
                json.dumps(fields, separators=(",", ":"), default=str),
            )
        )

    def events(self, campaign: Optional[str] = None) -> Iterator[Dict]:
        """Stored run events, oldest first."""
        conn = self.connection
        query = (
            "SELECT c.name, e.ts, e.event, e.payload "
            "FROM events e LEFT JOIN campaigns c ON c.id = e.campaign_id"
        )
        args: Tuple = ()
        if campaign is not None:
            query += " WHERE c.name = ?"
            args = (campaign,)
        query += " ORDER BY e.id"
        for name, ts, event, payload in conn.execute(query, args):
            record = {"ts": ts, "campaign": name, "event": event}
            record.update(json.loads(payload))
            yield record

    # -- checkpoint migration -------------------------------------------
    def import_checkpoint(self, path: str) -> StoredCampaign:
        """Import a legacy JSON checkpoint document, losslessly.

        The whole document is validated first — integer task indices
        in ``[0, n_tasks)``, well-formed quarantine records, a mapping
        of digests — and then written in one transaction, each record
        with its **original** digest.  A malformed document raises
        :class:`~repro.errors.CampaignError` and leaves the database
        unchanged.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        try:
            campaign, fingerprint, n_tasks, rows = _parse_checkpoint(payload)
        except ValueError as exc:
            raise CampaignError(
                f"{path} is not a valid campaign checkpoint: {exc}"
            ) from None
        staged = {
            index: _staged(record, digest)
            for index, (record, digest) in rows.items()
        }
        conn = self.connection
        try:
            campaign_id, _ = self._campaign_row(
                conn, campaign, fingerprint, n_tasks
            )
            self._flush_transaction(conn, campaign_id, staged, [])
        except BaseException:
            conn.rollback()
            raise
        return StoredCampaign(
            campaign=campaign,
            fingerprint=fingerprint,
            n_tasks=n_tasks,
            completed=len(staged),
            failures=sum(
                1 for _, _, failure in staged.values()
                if failure is not None
            ),
        )

    # -- result side ----------------------------------------------------
    def save_result(
        self,
        result: Any,
        run: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Save a campaign result under *run*; returns the run key."""
        from repro.fi.serialization import result_to_document

        data = result_to_document(result)
        payload = json.dumps(data, separators=(",", ":"))
        conn = self.connection
        conn.execute(
            "INSERT OR REPLACE INTO results "
            "(run, kind, payload, digest, created_ts, meta) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                run,
                data.get("kind", ""),
                payload,
                data.get("digest", ""),
                time.time(),
                json.dumps(meta or {}, separators=(",", ":"), default=str),
            ),
        )
        conn.commit()
        self.stats.flushes += 1
        self.stats.bytes_written += len(payload)
        return run

    def load_result(self, run: str) -> Any:
        """Load a saved campaign result (digest-verified)."""
        from repro.fi.serialization import document_to_result

        row = self.connection.execute(
            "SELECT payload FROM results WHERE run = ?", (run,)
        ).fetchone()
        if row is None:
            known = ", ".join(
                sorted(entry.run for entry in self.list_results())
            )
            raise CampaignError(
                f"no result {run!r} in {self.path}"
                + (f" (known runs: {known})" if known else "")
            )
        return document_to_result(
            json.loads(row[0]), source=f"{self.path}:{run}"
        )

    def result_meta(self, run: str) -> Dict[str, Any]:
        """The metadata saved beside one result."""
        row = self.connection.execute(
            "SELECT meta FROM results WHERE run = ?", (run,)
        ).fetchone()
        if row is None or not row[0]:
            return {}
        return json.loads(row[0])

    def list_results(self) -> List[StoredResult]:
        """Catalogue of the saved results in this store."""
        rows = self.connection.execute(
            "SELECT run, kind, created_ts, digest, meta "
            "FROM results ORDER BY created_ts",
        ).fetchall()
        return [
            StoredResult(
                run=run,
                kind=kind,
                created_ts=created_ts,
                digest=digest,
                meta=json.loads(meta) if meta else {},
            )
            for run, kind, created_ts, digest, meta in rows
        ]
