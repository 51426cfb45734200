"""The campaign-service daemon: one thread serves the socket and ticks
the scheduler.

``repro serve`` runs one :class:`ServiceDaemon` over a **spool
directory** holding everything the service owns::

    <spool>/queue.db      durable job queue (sqlite, WAL)
    <spool>/results.db    shared results database (``repro analyze``)
    <spool>/jobs/<id>/    per-job checkpoint dir, output, telemetry
    <spool>/daemon.sock   the local socket (or a short /tmp fallback)
    <spool>/socket.path   where the socket actually is
    <spool>/daemon.pid    the daemon's pid while it serves

The socket speaks a JSON-line protocol: the client sends one request
object per line, the daemon answers with one response object per line
(the streaming ``status`` mode answers with one line per poll until
the client disconnects or every job is terminal; a drain sends each
streaming client one final line after the children have stopped).

:meth:`ServiceDaemon.serve` is one loop in the calling thread: each
pass accepts and answers a connection, writes each streaming client its
next line when due, and ticks the scheduler every :data:`TICK_S`.  So
every job child is forked by the daemon's only thread, and none can
inherit a lock another thread held inside sqlite.
No pass may block for longer than a client waits for its reply: the
first launch of a (target, scale) prewarms its golden runs, and the
scheduler calls back after each run so the loop answers clients then.

Failure matrix (what survives what):

===============  ====================================================
SIGTERM/SIGINT   Clean drain: children flush checkpoints and exit,
                 their jobs requeue with the attempt refunded, the
                 socket closes, the queue stays durable.
``kill -9``      Nothing runs; on the next start the daemon reclaims
                 every lease whose pid is dead, kills orphaned job
                 children, and re-runs each interrupted job from its
                 checkpoint — final results are bit-identical to an
                 uninterrupted run.
pool loss        Handled *inside* the job by the executor (respawn →
                 reduced width → serial); a child that dies anyway is
                 retried by the scheduler on the degradation ladder.
===============  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.service.jobs import JobQueue
from repro.service.scheduler import (
    Scheduler,
    SchedulerConfig,
    job_progress,
    validate_spec,
)

__all__ = ["ServiceDaemon", "socket_path_for"]

#: portable AF_UNIX sun_path budget (the historical 104/108 minus
#: headroom); longer spool paths divert the socket to /tmp.
_MAX_SOCKET_PATH = 96

#: seconds between two scheduler ticks.
TICK_S = 0.2

#: seconds a client has to send its request, and a streaming client to
#: take a line, before it is dropped (the daemon has one thread).
IO_TIMEOUT_S = 1.0


def socket_path_for(spool: str) -> str:
    """The socket path used for *spool* (short /tmp fallback when the
    spool path would overflow ``sun_path``)."""
    preferred = os.path.join(os.path.abspath(spool), "daemon.sock")
    if len(preferred) <= _MAX_SOCKET_PATH:
        return preferred
    digest = hashlib.sha256(preferred.encode("utf-8")).hexdigest()[:12]
    return os.path.join("/tmp", f"repro-{digest}.sock")


def _send(conn: socket.socket, payload: Dict[str, Any]) -> bool:
    """Write one reply line; ``False`` when the client went away."""
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    try:
        conn.sendall(line.encode("utf-8"))
    except OSError:
        return False
    return True


class ServiceDaemon:
    """One serving instance: queue + scheduler + socket endpoint."""

    def __init__(
        self,
        spool: str,
        config: Optional[SchedulerConfig] = None,
        max_queued: int = 64,
        drain_when_idle: bool = False,
        status_interval_s: float = 0.5,
        echo=print,
    ) -> None:
        self.spool = os.path.abspath(spool)
        os.makedirs(os.path.join(self.spool, "jobs"), exist_ok=True)
        self.queue = JobQueue(
            os.path.join(self.spool, "queue.db"), max_queued=max_queued
        )
        self.scheduler = Scheduler(self.spool, self.queue, config)
        self.drain_when_idle = drain_when_idle
        self.status_interval_s = status_interval_s
        self.echo = echo
        self._draining = False
        #: streaming clients: connection -> (job id, next line due)
        self._followers: Dict[socket.socket, Tuple[Optional[int], float]] = {}

    # -- status payloads ------------------------------------------------
    def status_payload(
        self, job_id: Optional[int] = None
    ) -> Dict[str, Any]:
        jobs = (
            [j for j in [self.queue.get(job_id)] if j is not None]
            if job_id is not None
            else self.queue.jobs()
        )
        rows = []
        for job in jobs:
            row = job.describe()
            row["progress"] = job_progress(self.spool, job)
            rows.append(row)
        return {
            "ok": True,
            "pid": os.getpid(),
            "draining": self._draining,
            "queue": self.queue.depth(),
            "counters": self.queue.counters(),
            "jobs": rows,
        }

    def _stream(self, final: bool = False) -> None:
        """Write each streaming client whose line is due its next one;
        a final line (every job terminal, or *final*) closes it."""
        now = time.monotonic()
        for conn, (job_id, due) in list(self._followers.items()):
            if due > now and not final:
                continue
            payload = self.status_payload(job_id)
            depth = payload["queue"]
            payload["final"] = final or depth["queued"] + depth["running"] == 0
            if _send(conn, payload) and not payload["final"]:
                self._followers[conn] = (job_id, now + self.status_interval_s)
            else:
                del self._followers[conn]
                conn.close()

    # -- request handling -----------------------------------------------
    def _handle_request(
        self, request: Any, conn: socket.socket
    ) -> Optional[Dict[str, Any]]:
        """The reply to *request*; ``None`` once *conn* streams status."""
        if not isinstance(request, dict):
            return {"ok": False, "error": "a request is a JSON object"}
        op, job_id = request.get("op"), request.get("job")
        if not (job_id is None or type(job_id) is int and 0 <= job_id < 2**63):
            return {"ok": False, "error": "job ids are integers in [0, 2**63)"}
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            try:
                job_id = self.queue.submit(validate_spec(request.get("spec")))
            except ServiceError as exc:
                return {"ok": False, "error": str(exc)}
            return {"ok": True, "job": job_id}
        if op == "status" and request.get("follow"):
            # one line per poll until every job is terminal or a drain
            self._followers[conn] = (job_id, 0.0)
            return None
        if op == "status":
            return self.status_payload(job_id)
        if op == "cancel" and job_id is None:
            return {"ok": False, "error": "cancel needs a job id"}
        if op == "cancel":
            state = self.queue.request_cancel(job_id)
            return {"ok": True, "job": job_id, "state": state}
        if op == "drain":
            self._draining = True
            return {"ok": True, "draining": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(IO_TIMEOUT_S)
        try:
            line = conn.makefile("rb").readline()
        except OSError:
            line = b""  # sent nothing in time, or went away
        if line.strip():
            try:
                reply = self._handle_request(json.loads(line), conn)
            except Exception as exc:  # a bad request must not stop the loop
                self.echo(traceback.format_exc().rstrip())
                reply = {"ok": False, "error": repr(exc)}
            if reply is None:
                return  # the loop writes its lines
            _send(conn, reply)
        conn.close()

    def _pass(self, server: socket.socket, until: float) -> None:
        """Write each streaming client its due line, then answer one
        client that connects before *until* (``time.monotonic()``)."""
        self._stream()
        dues = [due for _, due in self._followers.values()]
        server.settimeout(max(min([until, *dues]) - time.monotonic(), 0.0))
        try:
            conn, _ = server.accept()
        except (BlockingIOError, TimeoutError):
            return  # nobody came in time
        self._serve_connection(conn)

    # -- lifecycle ------------------------------------------------------
    def _install_signals(self) -> None:
        def initiate_drain(signum, frame):
            self._draining = True

        # only the main thread may install signal handlers; a daemon
        # hosted in another thread (tests, embedding) leaves signal
        # handling to its host and drains via the drain op
        try:
            signal.signal(signal.SIGTERM, initiate_drain)
            signal.signal(signal.SIGINT, initiate_drain)
        except ValueError:
            pass

    def _idle(self) -> bool:
        """Jobs were submitted, and every one is terminal."""
        depth = self.queue.depth()
        busy = depth["queued"] + depth["running"]
        return busy == 0 and sum(depth.values()) > 0

    def serve(self) -> int:
        """Run until drained; returns a process exit code."""
        socket_path = socket_path_for(self.spool)
        with open(
            os.path.join(self.spool, "socket.path"), "w",
            encoding="utf-8",
        ) as handle:
            handle.write(socket_path + "\n")
        pid_path = os.path.join(self.spool, "daemon.pid")
        with open(pid_path, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        # startup recovery: anything still leased by a dead pid was
        # orphaned by a crash — reclaim it before accepting work
        reclaimed = self.queue.reclaim_stale(0.0)
        if reclaimed:
            self.echo(
                f"recovered {len(reclaimed)} interrupted job(s): "
                + ", ".join(f"#{job.id}" for job in reclaimed)
            )
        if os.path.exists(socket_path):
            os.remove(socket_path)  # stale socket of a dead daemon
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(socket_path)
        server.listen(16)
        self.scheduler.between_runs = lambda: self._pass(server, 0.0)
        self._install_signals()
        self.echo(
            f"serving on {socket_path} "
            f"(budget {self.scheduler.config.budget}, "
            f"max {self.scheduler.config.max_jobs} jobs)"
        )
        next_tick = time.monotonic()
        try:
            while not self._draining:
                if time.monotonic() >= next_tick:
                    self.scheduler.tick()
                    next_tick = time.monotonic() + TICK_S
                    if self.drain_when_idle and self._idle():
                        break
                self._pass(server, next_tick)
        finally:
            self._draining = True
            server.close()
            # stop the children first, so that a streaming client's
            # final line shows the post-drain state
            self.scheduler.drain()
            self._stream(final=True)
            for path in (socket_path, pid_path):
                try:
                    os.remove(path)
                except OSError:
                    pass
            depth = self.queue.depth()
            self.queue.close()
        self.echo(
            f"drained: {depth['done']} done, {depth['failed']} failed, "
            f"{depth['cancelled']} cancelled, {depth['queued']} requeued"
        )
        return 0
