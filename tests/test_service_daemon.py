"""End-to-end campaign-service tests.

Three layers:

* protocol tests against an **in-process** daemon (job children are
  stubbed, so they are fast and deterministic);
* crash-recovery tests against a **subprocess** daemon running real
  campaigns: ``kill -9`` mid-run, restart, and the recovered output
  must be bit-identical to an uninterrupted run — on the serial and
  the process backend, including a child hard-killed mid-checkpoint-
  flush (``REPRO_CHAOS_KILL_FLUSH``);
* a fork-safety stress test against a **subprocess** daemon whose
  stubbed children open sqlite while clients poll status.
"""

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.experiments.runner import EXPERIMENTS
from repro.fi.executor import golden_cache
from repro.service import ServiceClient, ServiceDaemon
from repro.service.jobs import JobQueue
from repro.service.scheduler import Scheduler, SchedulerConfig

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="session")
def expected_table1(ctx):
    """What an uninterrupted table1 run renders (the conftest context
    is the same target/scale/seed the service specs below use)."""
    return EXPERIMENTS["table1"](ctx).render() + "\n"


# ======================================================================
# Protocol, against an in-process daemon with stubbed children.
# ======================================================================
@pytest.fixture
def daemon(tmp_path, monkeypatch):
    def stub(job_id, spec, job_dir, width, results_db, attempt):
        env = spec.get("env", {})

        def interrupted(*_):
            # a real child flushes its checkpoint before it exits 75
            time.sleep(float(env.get("STUB_TERM_S", 0)))
            os._exit(75)

        signal.signal(signal.SIGTERM, interrupted)
        with open(os.path.join(job_dir, "output.txt"), "w") as f:
            f.write("stub\n")
        time.sleep(float(env.get("STUB_SLEEP", 0)))
        os._exit(0)

    monkeypatch.setattr("repro.service.scheduler._job_main", stub)
    spool = str(tmp_path / "spool")
    daemon = ServiceDaemon(
        spool,
        SchedulerConfig(
            budget=2, backoff_base_s=0.01, backoff_seed=3, prewarm=False,
        ),
        status_interval_s=0.05,
        echo=lambda *_: None,
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    client = ServiceClient(spool)
    deadline = time.time() + 10
    while not client.alive() and time.time() < deadline:
        time.sleep(0.02)
    assert client.alive(), "daemon did not come up"
    yield daemon, client
    if not daemon._draining:  # the test may have drained it already
        client.drain()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestProtocol:
    def test_ping(self, daemon):
        _, client = daemon
        reply = client.request({"op": "ping"})
        assert reply["ok"] and reply["pid"] == os.getpid()

    def test_submit_runs_to_done(self, daemon):
        _, client = daemon
        reply = client.submit({"experiment": "table1", "scale": "test"})
        assert reply["ok"] and not reply.get("offline")
        job_id = reply["job"]
        final = None
        for payload in client.status_stream(job_id):
            final = payload
            if payload.get("final"):
                break
        assert final["jobs"][0]["state"] == "done"
        assert final["queue"]["done"] == 1

    def test_submit_refuses_bad_spec(self, daemon):
        _, client = daemon
        with pytest.raises(ServiceError, match="unknown job spec"):
            client.submit({"experiment": "table1", "bogus": 1})
        reply = client.request(
            {"op": "submit", "spec": {"experiment": "nope"}}
        )
        assert not reply["ok"] and "nope" in reply["error"]

    def test_cancel_running_job(self, daemon):
        _, client = daemon
        job_id = client.submit({
            "experiment": "table1",
            "env": {"STUB_SLEEP": "30"},
        })["job"]
        deadline = time.time() + 10
        state = None
        while time.time() < deadline:
            rows = client.status(job_id)["jobs"]
            state = rows[0]["state"] if rows else None
            if state == "running":
                break
            time.sleep(0.02)
        assert state == "running"
        client.cancel(job_id)
        while time.time() < deadline:
            state = client.status(job_id)["jobs"][0]["state"]
            if state in ("cancelled", "done", "failed"):
                break
            time.sleep(0.05)
        assert state == "cancelled"

    def test_unknown_op_rejected(self, daemon):
        _, client = daemon
        reply = client.request({"op": "frobnicate"})
        assert not reply["ok"] and "frobnicate" in reply["error"]

    def test_status_reports_counters(self, daemon):
        daemon_obj, client = daemon
        payload = client.status()
        assert payload["ok"]
        assert set(payload["queue"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }
        assert isinstance(payload["counters"], dict)

    def test_bad_requests_get_errors_and_the_loop_serves_on(self, daemon):
        """Each bad request gets an error reply; none stops the one
        loop, so the daemon still answers and runs a job to done."""
        _, client = daemon
        for request in (
            ["status"],
            {"op": "status", "job": "one"},
            {"op": "status", "job": float("inf")},
            {"op": "cancel", "job": 2**63},
            {"op": "status", "job": 2**63},
            {"op": "status", "job": 2**63, "follow": True},
            {"op": "submit", "spec": {"experiment": []}},
        ):
            reply = client.request(request)
            assert not reply["ok"] and reply["error"], request
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(5)
            raw.connect(client._socket_path())
            raw.sendall(b"not json\n")
            reply = json.loads(raw.makefile("rb").readline())
        assert not reply["ok"] and "JSONDecodeError" in reply["error"]
        assert client.alive()
        job_id = client.submit({"experiment": "table1"})["job"]
        deadline = time.monotonic() + 30
        while client.status(job_id)["jobs"][0]["state"] != "done":
            assert time.monotonic() < deadline, "the job did not finish"
            time.sleep(0.02)

    def test_clients_answered_during_a_prewarm(self, daemon, monkeypatch):
        """The scheduler calls the loop back after each golden run of a
        prewarm, so no client waits for the whole (2.5 s) prewarm."""
        daemon_obj, client = daemon
        monkeypatch.setattr(golden_cache, "get", lambda *_: time.sleep(0.1))
        scheduler = daemon_obj.scheduler
        scheduler.config = dataclasses.replace(scheduler.config, prewarm=True)
        spec = {"experiment": "table1", "scale": "full"}
        job_id = client.submit(spec)["job"]
        job_dir = os.path.join(daemon_obj.spool, "jobs", str(job_id))
        waits, deadline = [], time.monotonic() + 30
        while not os.path.isdir(job_dir):  # made after the prewarm
            assert time.monotonic() < deadline, "the prewarm did not end"
            started = time.monotonic()
            assert client.alive()
            waits.append(time.monotonic() - started)
        assert len(waits) > 5 and max(waits) < 1.0

    def test_follower_final_line_is_post_drain(self, daemon):
        """A drain stops the children before the followers get their
        final line, so it shows the requeued job, not a running one."""
        _, client = daemon
        job_id = client.submit({
            "experiment": "table1",
            "env": {"STUB_SLEEP": "30", "STUB_TERM_S": "0.5"},
        })["job"]
        stream = client.status_stream(job_id)
        for payload in stream:
            if payload["jobs"][0]["state"] == "running":
                break
        assert not payload["final"]
        client.drain()
        final = list(stream)[-1]
        assert final["final"] and final["draining"]
        assert final["jobs"][0]["state"] == "queued"
        assert final["queue"]["running"] == 0


class TestOfflineClient:
    def test_offline_submit_enqueues_durably(self, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(spool)
        client = ServiceClient(spool)
        reply = client.submit({"experiment": "table1", "scale": "test"})
        assert reply["offline"] and reply["job"] == 1
        with JobQueue(os.path.join(spool, "queue.db")) as queue:
            assert queue.get(1).state == "queued"

    def test_offline_status_reads_the_queue(self, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(spool)
        client = ServiceClient(spool)
        client.submit({"experiment": "table1"})
        payload = client.status()
        assert payload["offline"]
        assert payload["queue"]["queued"] == 1
        assert payload["jobs"][0]["state"] == "queued"

    def test_offline_cancel_of_queued_job(self, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(spool)
        client = ServiceClient(spool)
        job_id = client.submit({"experiment": "table1"})["job"]
        reply = client.cancel(job_id)
        assert reply["offline"] and reply["state"] == "cancelled"

    def test_offline_status_without_queue_errors(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nothing"))
        with pytest.raises(ServiceError, match="no daemon"):
            client.status()
        with pytest.raises(ServiceError):
            client.drain()


# ======================================================================
# Crash recovery, against a subprocess daemon running real campaigns.
# ======================================================================
def _spawn_daemon(spool, *extra, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = SRC
    if env:
        full_env.update(env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--spool", spool,
            "--budget", "2", *extra,
        ],
        env=full_env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_alive(client, timeout_s=15.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if client.alive():
            return
        time.sleep(0.05)
    raise AssertionError("daemon did not come up")


def _wait_mid_campaign(client, job_id, timeout_s=120.0):
    """Until the job has flushed some — but not all — of a campaign."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        payload = client.status(job_id)
        for row in payload["jobs"]:
            for progress in row["progress"]:
                if 0 < progress["done"] < progress["total"]:
                    return progress
            if row["state"] in ("done", "failed"):
                return None  # too late to interrupt; still a valid run
        time.sleep(0.02)
    raise AssertionError("no campaign progress appeared")


def _recovery_round_trip(tmp_path, expected, spec):
    """Submit *spec*, kill -9 the daemon mid-campaign, restart, and
    check the finished output is bit-identical to *expected*."""
    spool = str(tmp_path / "spool")
    daemon = _spawn_daemon(spool)
    client = ServiceClient(spool)
    try:
        _wait_alive(client)
        job_id = client.submit(spec)["job"]
        interrupted = _wait_mid_campaign(client, job_id) is not None
        with open(os.path.join(spool, "daemon.pid")) as handle:
            pid = int(handle.read().strip())
        os.kill(pid, signal.SIGKILL)
        daemon.wait(timeout=30)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    assert daemon.returncode == -signal.SIGKILL

    second = _spawn_daemon(spool, "--drain-when-idle")
    try:
        assert second.wait(timeout=240) == 0
    finally:
        if second.poll() is None:
            second.kill()
            second.wait()

    payload = ServiceClient(spool).status(job_id)
    job = payload["jobs"][0]
    assert job["state"] == "done"
    # clean recovery: reclaims refund the attempt, so an interrupted
    # first run must not march the job down the degradation ladder
    assert job["attempts"] == 1
    if interrupted:
        assert payload["counters"].get("leases_reclaimed", 0) >= 1
    output_path = os.path.join(spool, "jobs", str(job_id), "output.txt")
    with open(output_path, "r", encoding="utf-8") as handle:
        assert handle.read() == expected
    return payload


class TestKill9Recovery:
    def test_serial_backend(self, tmp_path, expected_table1):
        _recovery_round_trip(
            tmp_path, expected_table1,
            {
                "experiment": "table1", "scale": "test",
                "backend": "serial", "store": "sqlite",
            },
        )

    def test_process_backend(self, tmp_path, expected_table1):
        _recovery_round_trip(
            tmp_path, expected_table1,
            {
                "experiment": "table1", "scale": "test",
                "jobs": 2, "backend": "process", "store": "sqlite",
            },
        )


class TestChaosKillFlush:
    def test_child_killed_mid_flush_recovers(
        self, tmp_path, expected_table1
    ):
        """A job child hard-killed *during* a checkpoint flush (before
        the bytes become durable) is retried and resumes from the last
        durable flush — final output bit-identical."""
        spool = str(tmp_path)
        with JobQueue(os.path.join(spool, "queue.db")) as queue:
            scheduler = Scheduler(
                spool, queue,
                SchedulerConfig(
                    budget=1, backoff_base_s=0.01, backoff_seed=5,
                    prewarm=True,
                ),
            )
            job_id = queue.submit({
                "experiment": "table1", "scale": "test",
                "backend": "serial", "store": "sqlite",
                "env": {"REPRO_CHAOS_KILL_FLUSH": "2"},
            })
            deadline = time.time() + 240
            while time.time() < deadline:
                scheduler.tick()
                job = queue.get(job_id)
                if job.terminal:
                    break
                time.sleep(0.02)
            scheduler.drain()
            assert job.state == "done"
            assert job.attempts == 2  # the chaos kill burned attempt 1
            assert queue.counters().get("jobs_retried") == 1
        output = os.path.join(spool, "jobs", str(job_id), "output.txt")
        with open(output, "r", encoding="utf-8") as handle:
            assert handle.read() == expected_table1
        # the first durable flush really survived into the retry: the
        # job's event log shows the resumed campaign skipping tasks
        telemetry_path = os.path.join(
            spool, "jobs", str(job_id), "telemetry.json"
        )
        with open(telemetry_path, "r", encoding="utf-8") as handle:
            telemetry = json.load(handle)
        assert telemetry["permeability"]["executed_runs"] < 78


# ======================================================================
# Fork safety, against a subprocess daemon under status load.
# ======================================================================
#: a daemon whose job children open a sqlite database right after the
#: fork, as a real one does with its checkpoint database, and then exit
_FORKING_DAEMON = """
import contextlib, os, sqlite3, sys
from repro.service import ServiceDaemon, scheduler
from repro.service.scheduler import SchedulerConfig

def stub(job_id, spec, job_dir, width, results_db, attempt):
    path = os.path.join(job_dir, "stub.db")
    with contextlib.closing(sqlite3.connect(path)) as db:
        db.execute("CREATE TABLE IF NOT EXISTS t (x)")
    with open(os.path.join(job_dir, "output.txt"), "w") as handle:
        handle.write("stub\\n")
    os._exit(0)

scheduler._job_main = stub
sys.exit(ServiceDaemon(
    sys.argv[1], SchedulerConfig(budget=2, prewarm=False),
    max_queued=1000, status_interval_s=0.001, echo=lambda *_: None,
).serve())
"""


class TestForkSafety:
    N_JOBS = 150

    @pytest.mark.slow
    def test_jobs_finish_while_status_clients_poll(self, tmp_path):
        """Job children forked while six clients poll status at a high
        rate all finish: no child inherits a lock another daemon
        thread held inside sqlite at the fork."""
        spool = str(tmp_path / "spool")
        daemon = subprocess.Popen(
            [sys.executable, "-c", _FORKING_DAEMON, spool],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # its job children share its group
        )
        client = ServiceClient(spool)
        stop = threading.Event()

        def follow():
            while not stop.is_set():
                try:
                    for payload in client.status_stream():
                        if stop.is_set() or payload["final"]:
                            break
                except (OSError, ServiceError):
                    return  # the daemon has gone away

        def poll():
            while not stop.is_set():
                client.status()

        pollers = [
            threading.Thread(target=target, daemon=True)
            for target in (follow, follow, follow, poll, poll, poll)
        ]
        try:
            _wait_alive(client)
            for poller in pollers:
                poller.start()
            for _ in range(self.N_JOBS):
                client.submit({"experiment": "table1"})
            deadline = time.time() + 90
            while time.time() < deadline:
                depth = client.status()["queue"]
                if depth["queued"] == depth["running"] == 0:
                    break
                time.sleep(0.2)
            assert depth["done"] == self.N_JOBS, depth
            client.drain()
            assert daemon.wait(timeout=30) == 0
        finally:
            stop.set()
            try:
                os.killpg(daemon.pid, signal.SIGKILL)  # and stuck children
            except ProcessLookupError:
                pass
            daemon.wait()
            for poller in pollers:
                if poller.is_alive():
                    poller.join(timeout=10)
        assert not any(poller.is_alive() for poller in pollers)
