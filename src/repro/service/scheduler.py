"""Supervised scheduling of queued campaigns over a shared budget.

The scheduler is the daemon's engine room.  The daemon calls
:meth:`Scheduler.tick` every 0.2 s from its only thread, and
:meth:`Scheduler.drain` once when it stops, so no other daemon thread
can hold a lock when a job child forks.  Each tick the scheduler

1. fires the ``REPRO_CHAOS_KILL_SERVICE`` chaos hook (tests/CI kill
   the daemon at a chosen tick, including while a child is mid-
   checkpoint-flush);
2. reaps finished job children — success finishes the job, an
   interrupted child (checkpoint flushed) requeues it, a failed child
   retries it with decorrelated-jitter backoff until its attempt
   budget runs out;
3. honours cancel requests against running children;
4. heartbeats the leases of everything it is running and reclaims
   leases whose scheduler died (pid-liveness probe);
5. claims new work while it has free budget, granting each job a
   fair share of the worker budget so one huge sweep cannot starve
   small jobs.

Jobs execute as **forked child processes** (:func:`_job_main`): they
inherit the daemon's warmed golden-run cache through the fork, run
the requested experiment through the ordinary
:class:`~repro.experiments.context.ExperimentContext` machinery with
``resume=True`` against a per-job checkpoint directory, and convert
SIGTERM into ``KeyboardInterrupt`` so the executor's
flush-on-every-exit-path guarantee holds during a drain.

Degradation ladder: the first attempt runs at the granted width; a
retry halves it; from the third attempt on the job runs serial.  The
current width and an honest note travel in the job's status row, so
``repro status`` never claims more parallelism than the job really
has.  (The executor adds its own inner ladder — pool respawn, then
in-campaign serial degradation — underneath each attempt.)
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import CampaignError, ServiceError
from repro.experiments.__main__ import submittable_keys
from repro.fi.executor import (
    EXECUTION_OPTIONS,
    MAX_BACKOFF_S,
    CampaignConfig,
    decorrelated_backoff,
)
from repro.service.jobs import Job, JobQueue

__all__ = [
    "Scheduler",
    "SchedulerConfig",
    "RunningJob",
    "job_progress",
]

#: child exit code meaning "interrupted, checkpoint flushed, requeue
#: me" (SIGTERM drain, KeyboardInterrupt).  BSD's EX_TEMPFAIL.
EXIT_INTERRUPTED = 75

#: spec keys a submission may carry: the experiment, the job's
#: environment, the context arguments and execution options of
#: ``repro submit``, and ``store``, which names the one checkpoint
#: store (``"sqlite"``) for specs written when there were two;
#: everything else is refused so a typo ("targt") surfaces at submit
#: time, not as a silent default.
SPEC_KEYS = frozenset({"experiment", "env", "store", *submittable_keys()})


def validate_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Check a job spec's shape and option values; returns it unchanged.

    Validation that needs the experiment machinery (unknown target,
    bad scale) happens in the child and surfaces as a failed job;
    this catches structural mistakes and bad execution options at the
    submission boundary, before any job child forks.
    """
    if not isinstance(spec, dict):
        raise ServiceError("a job spec must be a JSON object")
    unknown = set(spec) - SPEC_KEYS
    if unknown:
        raise ServiceError(
            f"unknown job spec keys: {sorted(unknown)} "
            f"(accepted: {sorted(SPEC_KEYS)})"
        )
    from repro.experiments.runner import EXPERIMENTS

    experiment = spec.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ServiceError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    env = spec.get("env")
    if env is not None and not isinstance(env, dict):
        raise ServiceError("spec 'env' must be an object of strings")
    if spec.get("store", "sqlite") != "sqlite":
        raise ServiceError(
            f"spec 'store' must be 'sqlite', the only checkpoint store, "
            f"got {spec['store']!r}; a JSON checkpoint migrates with "
            f"'repro analyze import'"
        )
    options = {k: v for k, v in spec.items() if k in EXECUTION_OPTIONS}
    try:
        CampaignConfig.from_options(**options)
    except (CampaignError, TypeError, ValueError) as exc:
        raise ServiceError(f"bad job spec: {exc}") from None
    return spec


# ======================================================================
# The job child.
# ======================================================================
def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt()


def _job_main(
    job_id: int,
    spec: Dict[str, Any],
    job_dir: str,
    width: int,
    results_db: str,
    attempt: int,
) -> None:
    """Entry point of a forked job child; never returns."""
    # a drain's SIGTERM becomes KeyboardInterrupt so the executor's
    # finally-block flushes the checkpoint before we exit
    signal.signal(signal.SIGTERM, _raise_interrupt)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # daemon owns Ctrl-C
    # service-level chaos hooks target the daemon, not its jobs; a
    # job opts into child-side chaos through its spec env, and only
    # on the first attempt, so the retry can prove recovery
    os.environ.pop("REPRO_CHAOS_KILL_SERVICE", None)
    os.environ.pop("REPRO_CHAOS_KILL_FLUSH", None)
    env = spec.get("env") or {}
    if attempt == 1:
        for name, value in env.items():
            os.environ[str(name)] = str(value)
    # exit via SystemExit, not os._exit: multiprocessing's bootstrap
    # then runs the child's pool teardown before reporting the code
    # to the scheduler.  Interpreter-exit finalizers still don't run
    # in a multiprocessing child, so shared-memory segments are
    # released explicitly on every path.
    from repro.fi.shm import release_all

    try:
        try:
            output, telemetry = _run_experiment(
                job_id, spec, job_dir, width, results_db
            )
        except KeyboardInterrupt:
            raise SystemExit(EXIT_INTERRUPTED) from None
        except SystemExit:
            raise
        except BaseException:
            with open(
                os.path.join(job_dir, "error.txt"), "w", encoding="utf-8"
            ) as handle:
                handle.write(traceback.format_exc())
            raise SystemExit(1) from None
        with open(
            os.path.join(job_dir, "output.txt"), "w", encoding="utf-8"
        ) as handle:
            handle.write(output)
        with open(
            os.path.join(job_dir, "telemetry.json"), "w",
            encoding="utf-8",
        ) as handle:
            json.dump(telemetry, handle)
        raise SystemExit(0)
    finally:
        release_all()


def _run_experiment(
    job_id: int,
    spec: Dict[str, Any],
    job_dir: str,
    width: int,
    results_db: str,
) -> Tuple[str, Dict[str, Any]]:
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS

    values = {key: spec[key] for key in submittable_keys() if key in spec}
    values.setdefault("scale", "test")
    values.update(
        jobs=width,
        resume=True,
        checkpoint_dir=os.path.join(job_dir, "ckpt"),
        event_log=os.path.join(job_dir, "events.jsonl"),
        results_db=results_db,
        run_name=spec.get("run_name") or f"job{job_id}",
    )
    ctx = ExperimentContext(**values)
    result = EXPERIMENTS[spec["experiment"]](ctx)
    telemetry: Dict[str, Any] = {}
    for campaign, t in ctx.telemetries.items():
        telemetry[campaign] = {
            "backend": t.backend,
            "jobs": t.jobs,
            "executed_runs": t.executed_runs,
            "failures": t.failures,
            "retries": t.retries,
            "pool_respawns": t.pool_respawns,
            "degraded": t.degraded,
        }
    return result.render() + "\n", telemetry


# ======================================================================
# The scheduler.
# ======================================================================
@dataclass(frozen=True)
class SchedulerConfig:
    """Supervision policy of one scheduler."""

    #: total worker-process budget shared by all running jobs.
    budget: int = max(2, (os.cpu_count() or 2))
    #: running jobs at any moment (the fair-share denominator cap).
    max_jobs: int = 4
    #: extra attempts a failing job gets before it is failed.
    job_retries: int = 2
    #: base of the decorrelated-jitter retry backoff, seconds.
    backoff_base_s: float = 0.5
    #: seed of the backoff jitter stream (tests pin it).
    backoff_seed: Optional[int] = None
    #: heartbeat age beyond which a dead scheduler's lease is
    #: reclaimed.
    lease_timeout_s: float = 30.0
    #: grace between SIGTERM and SIGKILL when stopping a child.
    stop_grace_s: float = 30.0
    #: pre-warm the daemon's golden-run cache per (target, scale) so
    #: forked jobs inherit it.
    prewarm: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ServiceError(f"budget must be >= 1, got {self.budget}")
        if self.max_jobs < 1:
            raise ServiceError(
                f"max_jobs must be >= 1, got {self.max_jobs}"
            )
        if self.job_retries < 0:
            raise ServiceError(
                f"job_retries must be >= 0, got {self.job_retries}"
            )


@dataclass
class RunningJob:
    """Scheduler-side handle of one forked job child."""

    job: Job
    process: Any  # multiprocessing.Process
    width: int
    cancelling: bool = False
    stopping_ts: Optional[float] = None


class Scheduler:
    """Claims, supervises and retires jobs from one queue."""

    def __init__(
        self,
        spool: str,
        queue: JobQueue,
        config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.spool = str(spool)
        self.queue = queue
        self.config = config if config is not None else SchedulerConfig()
        self.owner = f"scheduler@{os.uname().nodename}"
        self.results_db = os.path.join(self.spool, "results.db")
        self._running: Dict[int, RunningJob] = {}
        self._not_before: Dict[int, float] = {}
        self._backoff_prev: Dict[int, float] = {}
        self._warmed: Set[Tuple[str, str]] = set()
        self._chaos_ticks = 0
        #: called after each golden run of a prewarm: the daemon
        #: answers its clients there during a long prewarm
        self.between_runs: Callable[[], None] = lambda: None
        seed = self.config.backoff_seed
        self._rng = random.Random(seed if seed is not None else os.getpid())

    # -- directories ----------------------------------------------------
    def job_dir(self, job_id: int) -> str:
        path = os.path.join(self.spool, "jobs", str(job_id))
        os.makedirs(path, exist_ok=True)
        return path

    # -- one tick -------------------------------------------------------
    def tick(self) -> None:
        self._chaos_kill_service()
        self._reap()
        self._enforce_cancels()
        self._heartbeat()
        self.queue.reclaim_stale(self.config.lease_timeout_s)
        self._claim_work()

    def _chaos_kill_service(self) -> None:
        target = os.environ.get("REPRO_CHAOS_KILL_SERVICE")
        if not target:
            return
        try:
            nth = int(target)
        except ValueError:
            return
        self._chaos_ticks += 1
        if self._chaos_ticks == nth:
            os._exit(137)

    # -- reaping --------------------------------------------------------
    def _reap(self) -> None:
        for job_id in list(self._running):
            handle = self._running[job_id]
            if handle.process.is_alive():
                continue
            handle.process.join()
            del self._running[job_id]
            code = handle.process.exitcode
            if handle.cancelling:
                self.queue.finish(job_id, "cancelled", "cancelled")
                self.queue.bump("jobs_cancelled")
            elif code == 0:
                self._absorb_telemetry(job_id)
                self.queue.finish(job_id, "done")
                self.queue.bump("jobs_done")
            elif code == EXIT_INTERRUPTED:
                # externally interrupted with a flushed checkpoint:
                # not the job's fault, the attempt is refunded
                self.queue.requeue(job_id, give_back_attempt=True)
                self.queue.bump("jobs_requeued")
            else:
                self._retry_or_fail(job_id, handle, code)

    def _retry_or_fail(
        self, job_id: int, handle: RunningJob, code: Optional[int]
    ) -> None:
        job = self.queue.get(job_id)
        attempts = job.attempts if job is not None else 1
        error = self._job_error(job_id) or f"child exited with {code}"
        if attempts >= self.config.job_retries + 1:
            self.queue.finish(job_id, "failed", error)
            self.queue.bump("jobs_failed")
            return
        self.queue.requeue(job_id, give_back_attempt=False)
        self.queue.bump("jobs_retried")
        previous = self._backoff_prev.get(
            job_id, self.config.backoff_base_s
        )
        sleep_s = decorrelated_backoff(
            self.config.backoff_base_s, previous, self._rng,
            cap=MAX_BACKOFF_S,
        )
        self._backoff_prev[job_id] = max(
            sleep_s, self.config.backoff_base_s
        )
        self._not_before[job_id] = time.time() + sleep_s

    def _job_error(self, job_id: int) -> Optional[str]:
        path = os.path.join(self.job_dir(job_id), "error.txt")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().strip().splitlines()
        except OSError:
            return None
        return lines[-1] if lines else None

    def _absorb_telemetry(self, job_id: int) -> None:
        """Roll a finished job's executor telemetry into the queue's
        fault counters (pool respawns, in-campaign degradations)."""
        path = os.path.join(self.job_dir(job_id), "telemetry.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                telemetry = json.load(handle)
        except (OSError, ValueError):
            return
        respawns = sum(
            int(t.get("pool_respawns", 0)) for t in telemetry.values()
        )
        degraded = sum(
            1 for t in telemetry.values() if t.get("degraded")
        )
        if respawns:
            self.queue.bump("pool_respawns", respawns)
        if degraded:
            self.queue.bump("degradations", degraded)

    # -- cancels, heartbeats --------------------------------------------
    def _enforce_cancels(self) -> None:
        for job_id, handle in list(self._running.items()):
            job = self.queue.get(job_id)
            if job is None or not job.cancel_requested:
                continue
            if not handle.cancelling:
                handle.cancelling = True
                self._stop_child(handle, time.time())
            self._escalate_stop(handle)

    def _stop_child(self, handle: RunningJob, now: float) -> None:
        handle.stopping_ts = now
        if handle.process.is_alive():
            try:
                handle.process.terminate()  # SIGTERM → checkpoint flush
            except OSError:  # pragma: no cover - raced its exit
                pass

    def _escalate_stop(self, handle: RunningJob) -> None:
        if handle.stopping_ts is None or not handle.process.is_alive():
            return
        if time.time() - handle.stopping_ts > self.config.stop_grace_s:
            try:
                handle.process.kill()
            except OSError:  # pragma: no cover - raced its exit
                pass

    def _heartbeat(self) -> None:
        for job_id in self._running:
            self.queue.heartbeat(job_id)

    # -- admission ------------------------------------------------------
    def _free_budget(self) -> int:
        used = sum(handle.width for handle in self._running.values())
        return self.config.budget - used

    def _grant(self, requested: int) -> int:
        """Fair-share width for one more job.

        The denominator anticipates the waiting queue (bounded by
        ``max_jobs``), so admitting a huge sweep first does not hand
        it the whole budget while small jobs wait behind it.
        """
        depth = self.queue.depth()
        ways = min(
            self.config.max_jobs,
            len(self._running) + 1 + depth["queued"],
        )
        share = max(1, self.config.budget // max(1, ways))
        return max(1, min(max(1, requested), share, self._free_budget()))

    def _claim_work(self) -> None:
        now = time.time()
        deferred = [
            job_id
            for job_id, eligible in self._not_before.items()
            if eligible > now
        ]
        while (
            len(self._running) < self.config.max_jobs
            and self._free_budget() >= 1
        ):
            job = self.queue.claim(
                self.owner, os.getpid(), exclude=deferred
            )
            if job is None:
                return
            self._launch(job)

    def _launch(self, job: Job) -> None:
        import multiprocessing

        requested = int(job.spec.get("jobs", 1))
        width = self._grant(requested)
        degraded = None
        if job.attempts >= 3:
            width, degraded = 1, f"attempt {job.attempts}: serial"
        elif job.attempts == 2:
            width = max(1, width // 2)
            degraded = f"attempt {job.attempts}: width {width}"
        self.queue.set_workers(job.id, width, degraded)
        self._not_before.pop(job.id, None)
        if self.config.prewarm:
            self._prewarm(job.spec)
        job_dir = self.job_dir(job.id)
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_job_main,
            args=(
                job.id, job.spec, job_dir, width,
                self.results_db, job.attempts,
            ),
            daemon=False,
        )
        process.start()
        self.queue.set_child(job.id, process.pid)
        self._running[job.id] = RunningJob(
            job=job, process=process, width=width
        )

    def _prewarm(self, spec: Dict[str, Any]) -> None:
        """Warm the daemon's golden cache for a job's (target, scale)
        so the forked child inherits the runs instead of recomputing
        them.  Best-effort: any failure is the child's to report."""
        key = (
            str(spec.get("target", "arrestment")),
            str(spec.get("scale", "test")),
        )
        if key in self._warmed:
            return
        self._warmed.add(key)
        try:
            from repro.experiments.context import SCALES
            from repro.fi.campaign import _target_label
            from repro.fi.executor import golden_cache
            from repro.targets import get_target

            target = get_target(key[0])
            stride = (
                SCALES[key[1]].test_case_stride if key[1] in SCALES else 1
            )
            factory = target.simulator_factory
            label = _target_label(factory)
            for case in list(target.standard_test_cases())[::stride]:
                golden_cache.get(label, factory, case)
                self.between_runs()
        except Exception:
            pass

    # -- drain ----------------------------------------------------------
    def drain(self) -> int:
        """Stop every child cleanly and requeue its job; returns the
        number of jobs requeued.

        Children get SIGTERM (which they convert into a checkpoint-
        flushing ``KeyboardInterrupt``), then SIGKILL after the grace
        period.  Either way the job goes back to ``queued`` with its
        attempt refunded — the next daemon resumes it from whatever
        the flush persisted.
        """
        now = time.time()
        for handle in self._running.values():
            if not handle.cancelling:
                self._stop_child(handle, now)
        deadline = now + self.config.stop_grace_s
        requeued = 0
        while self._running:
            for job_id in list(self._running):
                handle = self._running[job_id]
                if handle.process.is_alive():
                    if time.time() > deadline:
                        try:
                            handle.process.kill()
                        except OSError:  # pragma: no cover
                            pass
                        handle.process.join()
                    else:
                        continue
                else:
                    handle.process.join()
                del self._running[job_id]
                if handle.cancelling:
                    self.queue.finish(job_id, "cancelled", "cancelled")
                    self.queue.bump("jobs_cancelled")
                elif handle.process.exitcode == 0:
                    self._absorb_telemetry(job_id)
                    self.queue.finish(job_id, "done")
                    self.queue.bump("jobs_done")
                else:
                    self.queue.requeue(job_id, give_back_attempt=True)
                    self.queue.bump("jobs_requeued")
                    requeued += 1
            if self._running:
                time.sleep(0.05)
        return requeued


# ======================================================================
# Progress inspection (used by the status endpoint).
# ======================================================================
def job_progress(spool: str, job: Job) -> List[Dict[str, Any]]:
    """Per-campaign progress rows of one job, read from its
    checkpoint database (works while the job is running: WAL readers
    never block the writer)."""
    path = os.path.join(spool, "jobs", str(job.id), "ckpt", "results.db")
    if not os.path.exists(path):
        return []
    from repro.fi.store import SqliteResultStore

    try:
        with SqliteResultStore(path) as store:
            campaigns = store.list_campaigns()
    except Exception:
        return []
    return [
        {
            "campaign": stored.campaign,
            "done": stored.completed,
            "total": stored.n_tasks,
            "failures": stored.failures,
        }
        for stored in campaigns
    ]
