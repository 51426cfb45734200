"""Client side of the campaign-service socket protocol.

:class:`ServiceClient` is what ``repro submit | status | cancel |
drain`` use.  Each request opens one short-lived connection to the
daemon's socket (found via ``<spool>/socket.path``), sends one JSON
line and reads the reply line(s).

Two operations degrade gracefully when no daemon is serving:

* :meth:`ServiceClient.submit` falls back to enqueueing directly into
  the spool's ``queue.db`` — the job is durable immediately and the
  next ``repro serve`` picks it up;
* :meth:`ServiceClient.status` falls back to reading the queue
  directly (without live per-campaign progress from the scheduler's
  view, but with the same job rows and counters).

Everything else (``cancel`` of a *running* job, ``drain``) needs a
live daemon and raises :class:`ServiceError` otherwise.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Any, Dict, Iterator, Optional

from repro.errors import ServiceError
from repro.service.daemon import socket_path_for
from repro.service.jobs import JobQueue
from repro.service.scheduler import job_progress, validate_spec

__all__ = ["ServiceClient", "default_spool"]


def default_spool() -> str:
    """The default spool directory (override with ``--spool``)."""
    return os.environ.get("REPRO_SPOOL", ".repro-service")


class ServiceClient:
    """Talks to one spool's daemon; offline-capable where possible."""

    def __init__(self, spool: str, connect_timeout_s: float = 5.0) -> None:
        self.spool = os.path.abspath(spool)
        self.connect_timeout_s = connect_timeout_s

    # -- plumbing -------------------------------------------------------
    def _socket_path(self) -> str:
        recorded = os.path.join(self.spool, "socket.path")
        if os.path.exists(recorded):
            with open(recorded, "r", encoding="utf-8") as handle:
                path = handle.read().strip()
            if path:
                return path
        return socket_path_for(self.spool)

    def _connect(self) -> socket.socket:
        path = self._socket_path()
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(self.connect_timeout_s)
        try:
            conn.connect(path)
        except OSError as exc:
            conn.close()
            raise ServiceError(
                f"no daemon serving {self.spool} ({exc}); "
                f"start one with 'repro serve --spool {self.spool}'"
            ) from exc
        return conn

    @staticmethod
    def _send(conn: socket.socket, payload: Dict[str, Any]):
        """Write *payload* as one request line; returns the reply
        reader."""
        writer = conn.makefile("w", encoding="utf-8")
        writer.write(json.dumps(payload, separators=(",", ":")) + "\n")
        writer.flush()
        return conn.makefile("r", encoding="utf-8")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one reply line.

        The connect timeout also bounds the reply read: connecting to
        a dead daemon's listen backlog succeeds, so an unbounded read
        here could hang forever on a socket nobody will ever answer.
        A connection the daemon resets or closes raises
        :class:`ServiceError`, like one it never answers.
        """
        with self._connect() as conn:
            try:
                line = self._send(conn, payload).readline()
            except OSError as exc:
                raise ServiceError(
                    f"daemon did not answer within "
                    f"{self.connect_timeout_s:g}s ({exc})"
                ) from exc
        if not line.strip():
            raise ServiceError("daemon closed the connection mid-reply")
        return json.loads(line)

    def request_stream(
        self, payload: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """One request, a stream of reply lines until EOF; a reset
        connection raises :class:`ServiceError`."""
        with self._connect() as conn:
            conn.settimeout(None)  # streams idle between status polls
            try:
                for line in self._send(conn, payload):
                    if line.strip():
                        yield json.loads(line)
            except OSError as exc:
                raise ServiceError(
                    f"daemon connection lost ({exc})"
                ) from exc

    def alive(self) -> bool:
        """Whether a daemon currently answers on this spool."""
        try:
            return bool(self.request({"op": "ping"}).get("ok"))
        except (ServiceError, ValueError):
            return False

    # -- operations -----------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one campaign job; offline submissions enqueue
        directly into the durable queue for the next daemon."""
        spec = validate_spec(spec)
        try:
            reply = self.request({"op": "submit", "spec": spec})
        except ServiceError:
            with JobQueue(os.path.join(self.spool, "queue.db")) as queue:
                job_id = queue.submit(spec)
            return {"ok": True, "job": job_id, "offline": True}
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "submission refused"))
        return reply

    def status(
        self, job_id: Optional[int] = None
    ) -> Dict[str, Any]:
        """One status snapshot; reads the queue directly offline."""
        payload: Dict[str, Any] = {"op": "status"}
        if job_id is not None:
            payload["job"] = job_id
        try:
            return self.request(payload)
        except ServiceError:
            return self._offline_status(job_id)

    def _offline_status(self, job_id: Optional[int]) -> Dict[str, Any]:
        queue_path = os.path.join(self.spool, "queue.db")
        if not os.path.exists(queue_path):
            raise ServiceError(
                f"{self.spool}: no daemon and no queue.db — nothing "
                f"was ever submitted here"
            )
        with JobQueue(queue_path) as queue:
            jobs = (
                [j for j in [queue.get(job_id)] if j is not None]
                if job_id is not None
                else queue.jobs()
            )
            rows = []
            for job in jobs:
                row = job.describe()
                row["progress"] = job_progress(self.spool, job)
                rows.append(row)
            return {
                "ok": True,
                "pid": None,
                "offline": True,
                "queue": queue.depth(),
                "counters": queue.counters(),
                "jobs": rows,
            }

    def status_stream(
        self, job_id: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        """Streaming status (live daemon only)."""
        payload: Dict[str, Any] = {"op": "status", "follow": True}
        if job_id is not None:
            payload["job"] = job_id
        return self.request_stream(payload)

    def cancel(self, job_id: int) -> Dict[str, Any]:
        """Cancel one job (queued jobs cancel offline too)."""
        try:
            reply = self.request({"op": "cancel", "job": job_id})
        except ServiceError:
            queue_path = os.path.join(self.spool, "queue.db")
            if not os.path.exists(queue_path):
                raise
            with JobQueue(queue_path) as queue:
                state = queue.request_cancel(job_id)
            return {
                "ok": True, "job": job_id, "state": state,
                "offline": True,
            }
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "cancel refused"))
        return reply

    def drain(self) -> Dict[str, Any]:
        """Ask the daemon to drain (needs a live daemon)."""
        reply = self.request({"op": "drain"})
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "drain refused"))
        return reply
