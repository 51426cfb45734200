"""Unit tests for the service's durable job queue."""

import os

import pytest

from repro.errors import ServiceError
from repro.service.jobs import JOB_STATES, JobQueue
from repro.service.scheduler import validate_spec


@pytest.fixture
def queue(tmp_path):
    with JobQueue(str(tmp_path / "queue.db"), max_queued=4) as q:
        yield q


SPEC = {"experiment": "table1", "scale": "test"}


class TestSubmitClaim:
    def test_lifecycle(self, queue):
        job_id = queue.submit(SPEC)
        job = queue.get(job_id)
        assert job.state == "queued"
        assert job.spec["experiment"] == "table1"
        assert not job.terminal

        claimed = queue.claim("me", os.getpid())
        assert claimed.id == job_id
        assert claimed.state == "running"
        assert claimed.attempts == 1
        assert claimed.lease_pid == os.getpid()

        assert queue.finish(job_id, "done")
        job = queue.get(job_id)
        assert job.state == "done"
        assert job.terminal
        assert job.lease_pid is None

    def test_claim_is_fifo(self, queue):
        first = queue.submit(SPEC)
        second = queue.submit(SPEC)
        assert queue.claim("me", 1).id == first
        assert queue.claim("me", 1).id == second
        assert queue.claim("me", 1) is None

    def test_claim_exclude_defers_job(self, queue):
        first = queue.submit(SPEC)
        second = queue.submit(SPEC)
        claimed = queue.claim("me", 1, exclude=[first])
        assert claimed.id == second
        # the excluded job is still claimable once eligible again
        assert queue.claim("me", 1).id == first

    def test_submit_requires_experiment(self, queue):
        with pytest.raises(ServiceError):
            queue.submit({"scale": "test"})
        with pytest.raises(ServiceError):
            queue.submit("table1")

    def test_admission_bound(self, queue):
        for _ in range(4):
            queue.submit(SPEC)
        with pytest.raises(ServiceError, match="queue full"):
            queue.submit(SPEC)
        # terminal jobs free the bound; running ones do not
        queue.claim("me", 1)
        with pytest.raises(ServiceError):
            queue.submit(SPEC)
        queue.finish(1, "done")
        assert queue.submit(SPEC) == 5

    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "queue.db")
        with JobQueue(path) as q:
            job_id = q.submit(SPEC)
        with JobQueue(path) as q:
            job = q.get(job_id)
            assert job is not None and job.state == "queued"


class TestTransitions:
    def test_requeue_refund_semantics(self, queue):
        job_id = queue.submit(SPEC)
        queue.claim("me", 1)
        assert queue.requeue(job_id, give_back_attempt=True)
        assert queue.get(job_id).attempts == 0
        queue.claim("me", 1)
        assert queue.requeue(job_id, give_back_attempt=False)
        assert queue.get(job_id).attempts == 1
        # requeue of a non-running job is a no-op
        assert not queue.requeue(job_id, give_back_attempt=False)

    def test_finish_requires_terminal_state(self, queue):
        job_id = queue.submit(SPEC)
        queue.claim("me", 1)
        with pytest.raises(ServiceError):
            queue.finish(job_id, "queued")
        assert queue.finish(job_id, "failed", "boom")
        assert queue.get(job_id).error == "boom"
        # double-finish loses the guarded update
        assert not queue.finish(job_id, "done")

    def test_cancel_queued_is_immediate(self, queue):
        job_id = queue.submit(SPEC)
        assert queue.request_cancel(job_id) == "cancelled"
        assert queue.get(job_id).state == "cancelled"
        # cancelled jobs are never claimed
        assert queue.claim("me", 1) is None

    def test_cancel_running_is_flagged(self, queue):
        job_id = queue.submit(SPEC)
        queue.claim("me", 1)
        assert queue.request_cancel(job_id) == "running"
        job = queue.get(job_id)
        assert job.cancel_requested and job.state == "running"

    def test_cancel_terminal_left_alone(self, queue):
        job_id = queue.submit(SPEC)
        queue.claim("me", 1)
        queue.finish(job_id, "done")
        assert queue.request_cancel(job_id) == "done"


class TestLeases:
    def test_reclaim_dead_lease(self, queue):
        job_id = queue.submit(SPEC)
        # a pid from a scheduler that no longer exists
        queue.claim("dead-scheduler", 2 ** 22 + 1)
        stale = queue.reclaim_stale(0.0)
        assert [job.id for job in stale] == [job_id]
        job = queue.get(job_id)
        assert job.state == "queued"
        assert job.attempts == 0  # the reclaim refunds the attempt
        assert queue.counters().get("leases_reclaimed") == 1

    def test_live_lease_kept(self, queue):
        queue.submit(SPEC)
        queue.claim("me", os.getpid())  # our own, definitely alive
        assert queue.reclaim_stale(0.0) == []

    def test_fresh_lease_kept_within_timeout(self, queue):
        queue.submit(SPEC)
        queue.claim("dead-scheduler", 2 ** 22 + 1)
        assert queue.reclaim_stale(3600.0) == []

    def test_heartbeat_refreshes_lease(self, queue):
        job_id = queue.submit(SPEC)
        before = queue.claim("me", 1).lease_ts
        queue.heartbeat(job_id)
        assert queue.get(job_id).lease_ts >= before


class TestCountersAndDepth:
    def test_depth_zero_filled(self, queue):
        assert queue.depth() == {state: 0 for state in JOB_STATES}
        queue.submit(SPEC)
        assert queue.depth()["queued"] == 1

    def test_bump_accumulates(self, queue):
        queue.bump("jobs_retried")
        queue.bump("jobs_retried", 2)
        assert queue.counters() == {"jobs_retried": 3}

    def test_bad_bounds_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            JobQueue(str(tmp_path / "q.db"), max_queued=0)


class TestValidateSpec:
    def test_accepts_known_keys(self, option_values):
        spec = {
            "experiment": "table1", "env": {"A": "1"}, "scale": "test",
            "seed": 7, "target": "watertank", "jobs": 4,
            "backend": "process", "run_name": "r", **option_values,
        }
        assert validate_spec(spec) is spec

    @pytest.mark.parametrize("bad", [
        {"batch_width": -1},
        {"integrity_policy": "paranoid"},
        {"retries": -3},
        {"retries": "3"},
        {"ci_level": "high"},
        {"audit_seed": 1.5},
        {"fast_forward": "no"},
    ])
    def test_rejects_bad_option_values(self, bad):
        with pytest.raises(ServiceError, match="bad job spec"):
            validate_spec({"experiment": "table1", **bad})

    def test_rejects_unknown_key(self):
        with pytest.raises(ServiceError, match="targt"):
            validate_spec({"experiment": "table1", "targt": "x"})

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ServiceError, match="table99"):
            validate_spec({"experiment": "table99"})

    def test_rejects_non_object_env(self):
        with pytest.raises(ServiceError, match="env"):
            validate_spec({"experiment": "table1", "env": "X=1"})

    def test_rejects_non_object_spec(self):
        with pytest.raises(ServiceError):
            validate_spec(["table1"])
