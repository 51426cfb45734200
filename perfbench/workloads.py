"""The three benchmark workloads, driven through the program's public
entry points.

Each workload has an untimed set-up (everything a run needs before
the first injection can be dispatched), a timed pass, a teardown, and
a ``collect`` step that gathers the oracle inputs and the counters the
program exposes.  ``collect`` runs after the timed pass, so reading
results back never counts as work.

* ``repro-scalar`` — ``ExperimentContext`` + ``run_all`` with the
  default flags: serial, fast-forward on, no batching.
* ``repro-batched`` — the same reproduction with ``batch_width=256``.
* ``service-adaptive`` — an in-process daemon (budget 2, sqlite spool)
  drains ``table1``, ``table4`` and ``figure3`` submitted at once as
  adaptive, sqlite-checkpointed jobs; then ``repro.place`` solves over
  the stored permeability run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

#: the direct reproduction's campaigns, in ``run_all`` order
CAMPAIGNS = ("permeability", "detection", "memory")
#: the service workload's jobs and the campaign each one runs
SERVICE_JOBS = (
    ("table1", "permeability"),
    ("table4", "detection"),
    ("figure3", "memory"),
)
#: worker budget of the in-benchmark daemon (a 2-core host)
SERVICE_BUDGET = 2


def _digest(result) -> str:
    from repro.fi.integrity import canonical_digest
    from repro.fi.serialization import result_to_document

    return canonical_digest(result_to_document(result))


def _process_counters() -> Dict[str, int]:
    """The program's process-wide layer counters."""
    from repro.fi.executor import golden_cache
    from repro.fi.snapshot import ff_stats
    from repro.fi.vector import vector_stats

    return {
        "golden_hits": golden_cache.hits,
        "golden_misses": golden_cache.misses,
        "ff_restores": ff_stats.restores,
        "ff_resyncs": ff_stats.resyncs,
        "ff_ticks_saved": ff_stats.ticks_skipped,
        "ff_tracks": ff_stats.tracks_recorded,
        "vec_groups": vector_stats.groups,
        "vec_rows": vector_stats.rows,
        "vec_batched_ticks": vector_stats.batched_ticks,
        "vec_retired_rows": vector_stats.retired_rows,
        "vec_scalar_fallbacks": vector_stats.scalar_fallbacks,
        "vec_group_capacity": vector_stats.group_capacity,
    }


class DirectWorkload:
    """The whole reproduction through ``ExperimentContext`` +
    ``run_all``."""

    def __init__(self, scale: str, seed: int, batch_width: int,
                 tracer=None):
        self.scale = scale
        self.seed = seed
        self.batch_width = batch_width
        self.tracer = tracer
        self.ctx = None

    def setup(self) -> None:
        """Context, golden runs and checkpoint tracks: the same cache
        entries the campaigns look up, so the timed pass starts with
        every injection ready to dispatch."""
        from repro.experiments.context import ExperimentContext
        from repro.fi.campaign import _target_label
        from repro.fi.executor import golden_cache
        from repro.fi.snapshot import (
            DEFAULT_CHECKPOINT_STRIDE,
            checkpoint_cache,
        )

        self.ctx = ctx = ExperimentContext(
            scale=self.scale, seed=self.seed, batch_width=self.batch_width
        )
        factory = ctx.simulator_factory
        label = _target_label(factory)
        for case in ctx.test_cases:
            golden_cache.get(label, factory, case)
        # permeability tracks carry no monitor bank, detection's do
        for bank in (None, ctx.assertion_specs()):
            for case in ctx.test_cases:
                checkpoint_cache.get(
                    label, factory, case, DEFAULT_CHECKPOINT_STRIDE, bank
                )

    def timed(self) -> float:
        from repro.experiments.runner import run_all

        args = (self.ctx, None, [].append)  # rendered tables are dropped
        started = time.perf_counter()
        if self.tracer is None:
            run_all(*args)
        else:
            self.tracer.call("experiments", run_all, args, {})
        return time.perf_counter() - started

    def close(self) -> None:
        pass

    def collect(self) -> Dict[str, Any]:
        ctx = self.ctx
        results = {
            "permeability": ctx.permeability_estimate(),
            "detection": ctx.detection_result(),
            "memory": ctx.memory_result(),
        }
        campaigns = {}
        for name in CAMPAIGNS:
            telemetry = ctx.telemetries[name]
            campaigns[name] = {
                "digest": _digest(results[name]),
                "planned": telemetry.total_runs,
                "executed": telemetry.executed_runs,
                "failures": len(results[name].task_failures),
                "retries": telemetry.retries,
                "busy_s": telemetry.busy_s,
                "wall_s": telemetry.wall_s,
                "jobs": telemetry.jobs,
            }
        return {"campaigns": campaigns, "counters": _process_counters()}


class ServiceWorkload:
    """Three adaptive jobs through an in-process daemon, then a
    placement solve over the stored permeability run."""

    #: completion poll period; the scheduler itself ticks every 0.2 s
    POLL_S = 0.05

    def __init__(self, scale: str, seed: int, workdir: str):
        self.scale = scale
        self.seed = seed
        self.spool = os.path.join(workdir, "spool")
        self.thread: Optional[threading.Thread] = None
        self.client = None
        self.placement: Dict[str, Any] = {}

    def run_name(self, experiment: str) -> str:
        return f"pb-{experiment}"

    def setup(self) -> None:
        """Golden prewarm, then a daemon that accepts submissions.

        The prewarm fills the same cache entries the daemon's own
        per-job prewarm would; forked job children inherit them."""
        from repro.experiments.context import SCALES
        from repro.fi.campaign import _target_label
        from repro.fi.executor import golden_cache
        from repro.service import ServiceClient, ServiceDaemon
        from repro.service.scheduler import SchedulerConfig
        from repro.targets import get_target

        target = get_target("arrestment")
        factory = target.simulator_factory
        label = _target_label(factory)
        stride = SCALES[self.scale].test_case_stride
        for case in list(target.standard_test_cases())[::stride]:
            golden_cache.get(label, factory, case)
        daemon = ServiceDaemon(
            self.spool,
            SchedulerConfig(budget=SERVICE_BUDGET),
            status_interval_s=0.1,
            echo=lambda *_: None,
        )
        self.thread = threading.Thread(
            target=daemon.serve, name="perfbench-daemon"
        )
        self.thread.start()
        self.client = ServiceClient(self.spool)
        deadline = time.monotonic() + 60
        while not self.client.alive():
            if time.monotonic() > deadline or not self.thread.is_alive():
                raise RuntimeError("the daemon did not come up")
            time.sleep(0.01)

    def timed(self) -> float:
        started = time.perf_counter()
        ids = []
        for experiment, _ in SERVICE_JOBS:
            reply = self.client.submit({
                "experiment": experiment,
                "scale": self.scale,
                "seed": self.seed,
                "jobs": SERVICE_BUDGET,
                "backend": "process",
                "adaptive": True,
                "store": "sqlite",
                "run_name": self.run_name(experiment),
            })
            ids.append(reply["job"])
        states = self._wait(ids)
        # a failed table1 job stored no run; the oracle counts it
        if states.get(ids[0]) == "done":
            self.placement = self._place()
        return time.perf_counter() - started

    def _wait(self, ids: List[int]) -> Dict[int, str]:
        """Until every job is terminal in the queue; returns each job's
        final state.

        While jobs can still be forked, only their files are watched:
        a status request makes a daemon thread run sqlite, and a fork
        taken while another thread is inside sqlite can leave the job
        child blocked on a lock nobody will release.  A job child
        writes ``output.txt`` (or ``error.txt``) just before it exits;
        the scheduler marks the job done when it reaps the child.
        """
        job_dirs = [os.path.join(self.spool, "jobs", str(i)) for i in ids]
        while not all(
            os.path.exists(os.path.join(d, "output.txt")) for d in job_dirs
        ):
            if any(os.path.exists(os.path.join(d, "error.txt"))
                   for d in job_dirs):
                break
            time.sleep(self.POLL_S)
        while True:
            rows = [
                job for job in self.client.status()["jobs"]
                if job["id"] in ids
            ]
            if len(rows) == len(ids) and all(
                job["state"] in ("done", "failed", "cancelled")
                for job in rows
            ):
                return {job["id"]: job["state"] for job in rows}
            time.sleep(self.POLL_S)

    def _place(self) -> Dict[str, Any]:
        """``repro place`` over the stored run, at the PA hand set's
        Table 3 footprint (the CLI default budget)."""
        from repro.edm.catalogue import EH_SET, PA_SET
        from repro.fi.store import SqliteResultStore
        from repro.place import model, solvers
        from repro.place.report import build_report
        from repro.targets import get_target

        run = self.run_name("table1") + "/permeability"
        with SqliteResultStore(os.path.join(self.spool, "results.db")) as db:
            estimate = db.load_result(run)
        target = get_target("arrestment")
        system = target.build_system()
        specs = target.assertion_specs()
        by_signal = {spec.signal: spec for spec in specs}
        pa_specs = [by_signal[s] for s in PA_SET if s in by_signal]
        budget = model.Budget(
            rom_bytes=sum(spec.rom_bytes for spec in pa_specs),
            ram_bytes=sum(spec.ram_bytes for spec in pa_specs),
        )
        instance = model.instance_from_estimate(
            system, estimate, specs, budget
        )
        greedy = solvers.greedy_solve(instance)
        ilp = solvers.ilp_solve(instance)
        hand_sets = [
            (name, model.items_for_signals(
                instance, [s for s in signals if s in by_signal]
            ))
            for name, signals in (("EH", EH_SET), ("PA", PA_SET))
        ]
        report = build_report(target.name, instance, ilp, hand_sets)
        return {
            "selected": list(ilp.selected),
            "optimal": bool(ilp.optimal),
            "dominates_all": bool(report.dominates_all),
            "greedy_agrees": greedy.selected == ilp.selected,
        }

    def close(self) -> None:
        """Drain the daemon and wait until its thread has ended."""
        if self.thread is None:
            return
        if self.thread.is_alive():
            self.client.drain()
        self.thread.join(timeout=120)
        if self.thread.is_alive():
            raise RuntimeError("the daemon did not drain")

    def collect(self) -> Dict[str, Any]:
        """Job records, queue counters, run-event logs, checkpoint and
        results databases, read back after the daemon has drained."""
        from repro.fi.store import SqliteResultStore
        from repro.service.jobs import JobQueue

        with JobQueue(os.path.join(self.spool, "queue.db")) as queue:
            records = queue.jobs()
            counters = queue.counters()
        jobs = []
        events: List[Dict[str, Any]] = []
        store_records = store_bytes = 0
        for job in records:
            job_dir = os.path.join(self.spool, "jobs", str(job.id))
            jobs.append({
                "experiment": job.spec.get("experiment"),
                "state": job.state,
                "attempts": job.attempts,
                "submitted_ts": job.submitted_ts,
                "started_ts": job.started_ts,
                "finished_ts": job.finished_ts,
            })
            events.extend(_read_events(os.path.join(job_dir, "events.jsonl")))
            ckpt = os.path.join(job_dir, "ckpt", "results.db")
            if os.path.exists(ckpt):
                with SqliteResultStore(ckpt) as store:
                    for stored in store.list_campaigns():
                        store_records += stored.completed
            store_bytes += _tree_bytes(os.path.join(job_dir, "ckpt"))
        done = {job["experiment"] for job in jobs if job["state"] == "done"}
        digests = {}
        with SqliteResultStore(os.path.join(self.spool, "results.db")) as db:
            for experiment, campaign in SERVICE_JOBS:
                if experiment not in done:
                    continue  # stored nothing; the oracle counts the job
                run = f"{self.run_name(experiment)}/{campaign}"
                digests[campaign] = _digest(db.load_result(run))
        store_bytes += _tree_bytes(self.spool, top_only=True)
        return {
            "jobs": jobs,
            "counters": counters,
            "events": _event_summary(events),
            "store": {"records": store_records, "bytes": store_bytes},
            "digests": digests,
            "placement": self.placement,
            "process": _process_counters(),
        }


def _read_events(path: str) -> List[Dict[str, Any]]:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _tree_bytes(path: str, top_only: bool = False) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            if name.endswith((".db", ".db-wal")):
                total += os.path.getsize(os.path.join(directory, name))
        if top_only:
            break
    return total


def _event_summary(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the jobs' run-event logs into per-campaign totals."""
    summary: Dict[str, Dict[str, float]] = {}
    for event in events:
        campaign = summary.setdefault(event.get("campaign", ""), {
            "planned": 0, "executed": 0, "failures": 0, "retries": 0,
            "wall_s": 0.0, "capacity_s": 0.0, "busy_s": 0.0,
            "dispatches": 0, "flushes": 0, "runs_saved": 0,
            "strata_early": 0,
        })
        kind = event.get("event")
        if kind == "run_start":
            campaign["planned"] = max(campaign["planned"], event["total"])
            campaign["dispatches"] += 1
            campaign["_jobs"] = event.get("jobs", 1)
        elif kind == "run_end":
            campaign["executed"] += event.get("executed", 0)
            campaign["failures"] += event.get("failures", 0)
            campaign["retries"] += event.get("retries", 0)
            campaign["wall_s"] += event.get("wall_s", 0.0)
            campaign["capacity_s"] += (
                event.get("wall_s", 0.0) * campaign.get("_jobs", 1)
            )
        elif kind == "task_finish":
            campaign["busy_s"] += event.get("busy_s", 0.0)
        elif kind == "checkpoint_flush":
            campaign["flushes"] += 1
        elif kind == "adaptive_summary":
            campaign["runs_saved"] += event.get("runs_saved", 0)
            campaign["strata_early"] += event.get("strata_early", 0)
    for campaign in summary.values():
        campaign.pop("_jobs", None)
    return summary


def make_workload(name: str, scale: str, seed: int, workdir: str,
                  tracer=None):
    if name == "repro-scalar":
        return DirectWorkload(scale, seed, 0, tracer)
    if name == "repro-batched":
        return DirectWorkload(scale, seed, 256, tracer)
    if name == "service-adaptive":
        return ServiceWorkload(scale, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("repro-scalar", "repro-batched", "service-adaptive")
