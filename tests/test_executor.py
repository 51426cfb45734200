"""Tests for the campaign execution engine.

The core contract under test: parallel execution is bit-identical to
serial execution for the same seed, and a checkpointed campaign that
is killed and resumed converges to the same final result as an
uninterrupted run.
"""

import json
import time

import pytest

from repro.edm.catalogue import EA_BY_NAME
from repro.errors import CampaignError
from repro.fi import (
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
    DetectionCampaign,
    FaultTolerancePolicy,
    GoldenRunCache,
    MemoryCampaign,
    MemoryMap,
    PermeabilityCampaign,
    TaskFailure,
)
from repro.target.simulation import ArrestmentSimulator


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


class TestCampaignConfig:
    def test_defaults(self):
        config = CampaignConfig()
        assert config.seed == 2002
        assert config.resolved_backend() == "serial"

    def test_jobs_select_process_backend(self):
        assert CampaignConfig(jobs=4).resolved_backend() == "process"
        assert CampaignConfig(jobs=4, backend="serial").resolved_backend() \
            == "serial"

    def test_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(jobs=0)
        with pytest.raises(CampaignError):
            CampaignConfig(backend="threads")
        with pytest.raises(CampaignError):
            CampaignConfig(checkpoint=CheckpointPolicy(every=0))


class TestExecutorMechanics:
    def test_results_in_task_order(self):
        executor = CampaignExecutor(CampaignConfig(), campaign="unit")
        assert executor.run_tasks(lambda i: i * i, 5, "fp") == [
            0, 1, 4, 9, 16,
        ]
        telemetry = executor.telemetry
        assert telemetry.total_runs == 5
        assert telemetry.executed_runs == 5
        assert telemetry.resumed_runs == 0

    def test_process_backend_matches_serial(self):
        executor = CampaignExecutor(
            CampaignConfig(jobs=2), campaign="unit"
        )
        assert executor.run_tasks(lambda i: i + 1, 8, "fp") == list(
            range(1, 9)
        )
        # falls back to serial only where fork is unavailable
        assert executor.telemetry.backend in ("process", "serial")

    def test_checkpoint_written_and_resumed(self, tmp_path):
        path = str(tmp_path / "cp.json")
        config = CampaignConfig(
            checkpoint=CheckpointPolicy(path=path, every=1)
        )
        CampaignExecutor(config, campaign="unit").run_tasks(
            lambda i: i * 2, 6, "fp"
        )

        # simulate a kill: drop the second half of the results
        with open(path) as handle:
            payload = json.load(handle)
        payload["results"] = {
            k: v for k, v in payload["results"].items() if int(k) < 3
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

        executed = []

        def runner(index):
            executed.append(index)
            return index * 2

        resumed = CampaignExecutor(config, campaign="unit")
        assert resumed.run_tasks(runner, 6, "fp") == [0, 2, 4, 6, 8, 10]
        assert sorted(executed) == [3, 4, 5]
        assert resumed.telemetry.resumed_runs == 3
        assert resumed.telemetry.executed_runs == 3

    def test_fingerprint_mismatch_discards_checkpoint(self, tmp_path):
        path = str(tmp_path / "cp.json")
        config = CampaignConfig(checkpoint=CheckpointPolicy(path=path))
        CampaignExecutor(config, campaign="unit").run_tasks(
            lambda i: i, 4, "fp-a"
        )
        executor = CampaignExecutor(config, campaign="unit")
        executor.run_tasks(lambda i: i, 4, "fp-b")
        assert executor.telemetry.resumed_runs == 0
        assert executor.telemetry.executed_runs == 4


class TestSerialParallelDeterminism:
    def test_permeability_bit_identical(self, two_cases):
        serial = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7
        ).run()
        parallel = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7,
            config=CampaignConfig(jobs=2),
        ).run()
        assert serial.values == parallel.values
        assert serial.direct_counts == parallel.direct_counts
        assert serial.active_runs == parallel.active_runs

    def test_detection_counts_identical(self, two_cases):
        specs = list(EA_BY_NAME.values())

        def run(config=None):
            return DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=4, targets=["ADC", "PACNT"], seed=7,
                config=config,
            ).run()

        serial = run()
        parallel = run(CampaignConfig(jobs=2))
        assert serial.n_injected == parallel.n_injected
        assert serial.n_err == parallel.n_err
        assert serial.detections == parallel.detections
        assert serial.run_records == parallel.run_records
        assert serial.run_latencies == parallel.run_latencies


class TestCampaignCheckpointing:
    def test_memory_campaign_kill_resume(self, two_cases, tmp_path):
        path = str(tmp_path / "memory.json")
        locations = MemoryMap(factory(two_cases[0]).system).locations()[::25]
        specs = list(EA_BY_NAME.values())

        def campaign(config=None):
            return MemoryCampaign(
                factory, two_cases[:1], specs,
                locations=locations, seed=7, config=config,
            )

        fresh = campaign().run()
        campaign(
            CampaignConfig(checkpoint=CheckpointPolicy(path=path, every=1))
        ).run()

        # kill: keep only the first two completed tasks
        with open(path) as handle:
            payload = json.load(handle)
        payload["results"] = {
            k: v for k, v in payload["results"].items() if int(k) < 2
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

        resumed_campaign = campaign(
            CampaignConfig(checkpoint=CheckpointPolicy(path=path))
        )
        resumed = resumed_campaign.run()
        assert resumed.records == fresh.records
        assert resumed_campaign.telemetry.resumed_runs == 2

    def test_seed_flows_from_config(self, two_cases):
        specs = list(EA_BY_NAME.values())

        def run(**kwargs):
            return DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=2, targets=["ADC"], **kwargs,
            ).run()

        assert run(seed=7).detections == run(
            config=CampaignConfig(seed=7)
        ).detections

    def test_test_cases_flow_from_config(self, two_cases):
        campaign = DetectionCampaign(
            factory,
            assertion_specs=list(EA_BY_NAME.values()),
            runs_per_signal=2,
            targets=["ADC"],
            config=CampaignConfig(test_cases=two_cases),
        )
        assert campaign.test_cases == list(two_cases)

    def test_telemetry_populated(self, two_cases):
        campaign = DetectionCampaign(
            factory, two_cases, list(EA_BY_NAME.values()),
            runs_per_signal=2, targets=["ADC"], seed=7,
        )
        campaign.run()
        telemetry = campaign.telemetry
        assert telemetry is not None
        assert telemetry.campaign == "detection"
        assert telemetry.total_runs == 2
        assert telemetry.executed_runs == 2
        assert telemetry.wall_s > 0
        assert 0.0 <= telemetry.worker_utilization <= 1.0
        assert "runs" in telemetry.render()


# ======================================================================
# Fault tolerance: retries, quarantine, timeouts, broken pools.
# ======================================================================
def _fast_config(jobs=1, checkpoint=None, event_log_path=None,
                 **fault_tolerance):
    """No retry back-off; *fault_tolerance* sets the other
    :class:`FaultTolerancePolicy` fields."""
    return CampaignConfig(
        jobs=jobs,
        checkpoint=checkpoint,
        event_log_path=event_log_path,
        fault_tolerance=FaultTolerancePolicy(
            retry_backoff_s=0.0, **fault_tolerance
        ),
    )


class TestCorruptedCheckpoints:
    def _executor(self, path, **kwargs):
        return CampaignExecutor(
            _fast_config(
                checkpoint=CheckpointPolicy(path=str(path)), **kwargs
            ),
            campaign="unit",
        )

    def test_non_numeric_result_keys_discarded(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 4,
            "results": {"not-a-number": 1, "0": 0},
        }))
        executor = self._executor(path)
        assert executor.run_tasks(lambda i: i, 4, "fp") == [0, 1, 2, 3]
        assert executor.telemetry.resumed_runs == 0

    def test_results_not_a_mapping_discarded(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 3,
            "results": [1, 2, 3],
        }))
        executor = self._executor(path)
        assert executor.run_tasks(lambda i: i, 3, "fp") == [0, 1, 2]
        assert executor.telemetry.resumed_runs == 0

    def test_garbage_json_discarded(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("{not json at all")
        executor = self._executor(path)
        assert executor.run_tasks(lambda i: i, 3, "fp") == [0, 1, 2]
        assert executor.telemetry.resumed_runs == 0

    def test_mangled_failure_record_discarded(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 2,
            "results": {"0": {"__task_failure__": 1, "index": "zero"}},
        }))
        executor = self._executor(path)
        assert executor.run_tasks(lambda i: i, 2, "fp") == [0, 1]
        assert executor.telemetry.resumed_runs == 0

    def test_out_of_range_indices_dropped(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 3,
            "results": {"0": 0, "7": 99, "-1": 98},
        }))
        executor = self._executor(path)
        assert executor.run_tasks(lambda i: i, 3, "fp") == [0, 1, 2]
        assert executor.telemetry.resumed_runs == 1


class TestQuarantine:
    def test_poison_task_quarantined_not_fatal(self):
        def runner(index):
            if index == 2:
                raise ValueError("poison")
            return index

        executor = CampaignExecutor(_fast_config(retries=1), campaign="unit")
        results = executor.run_tasks(runner, 5, "fp")
        assert results[0] == 0 and results[4] == 4
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 2
        assert "poison" in failure.error
        telemetry = executor.telemetry
        assert telemetry.failures == 1
        assert telemetry.retries == 1
        assert telemetry.executed_runs == 4
        assert telemetry.faulted

    def test_retry_recovers_transient_failure(self):
        calls = {}

        def runner(index):
            calls[index] = calls.get(index, 0) + 1
            if index == 1 and calls[index] == 1:
                raise RuntimeError("transient")
            return index * 10

        executor = CampaignExecutor(_fast_config(retries=2), campaign="unit")
        assert executor.run_tasks(runner, 3, "fp") == [0, 10, 20]
        assert executor.telemetry.retries == 1
        assert executor.telemetry.failures == 0
        assert calls[1] == 2

    def test_timeout_quarantines(self):
        def runner(index):
            if index == 1:
                time.sleep(5.0)
            return index

        executor = CampaignExecutor(
            _fast_config(task_timeout=0.2, retries=0), campaign="unit"
        )
        results = executor.run_tasks(runner, 3, "fp")
        assert isinstance(results[1], TaskFailure)
        assert results[1].kind == "timeout"
        assert executor.telemetry.timeouts == 1

    def test_task_alarm_restores_outer_timer(self):
        # a per-task alarm nested inside an outer ITIMER_REAL deadline
        # (e.g. a batch-level watchdog) must hand the timer back with
        # its remaining budget instead of silently cancelling it
        import signal

        from repro.fi.executor import _task_alarm

        fired = []
        previous = signal.signal(
            signal.SIGALRM, lambda s, f: fired.append(s)
        )
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            with _task_alarm(5.0):
                inner, _ = signal.getitimer(signal.ITIMER_REAL)
                assert 0.0 < inner <= 5.0
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            assert 0.0 < remaining <= 30.0
            assert signal.getsignal(signal.SIGALRM) is not previous
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert fired == []

    def test_task_alarm_leaves_timer_clear_when_none_ran(self):
        import signal

        from repro.fi.executor import _task_alarm

        with _task_alarm(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_failure_checkpointed_and_resumed(self, tmp_path):
        path = str(tmp_path / "cp.json")

        def runner(index):
            if index == 2:
                raise ValueError("poison")
            return index

        config = _fast_config(
            checkpoint=CheckpointPolicy(path=path), retries=0
        )
        CampaignExecutor(config, campaign="unit").run_tasks(runner, 4, "fp")

        executed = []

        def resumed_runner(index):
            executed.append(index)
            return index

        resumed = CampaignExecutor(config, campaign="unit")
        results = resumed.run_tasks(resumed_runner, 4, "fp")
        assert executed == []  # everything, including the failure, resumed
        assert resumed.telemetry.resumed_runs == 4
        assert isinstance(results[2], TaskFailure)

    def test_interrupt_flushes_checkpoint(self, tmp_path):
        path = str(tmp_path / "cp.json")
        config = _fast_config(
            checkpoint=CheckpointPolicy(path=path, every=100)
        )

        def runner(index):
            if index == 3:
                raise KeyboardInterrupt
            return index

        executor = CampaignExecutor(config, campaign="unit")
        with pytest.raises(KeyboardInterrupt):
            executor.run_tasks(runner, 6, "fp")
        with open(path) as handle:
            saved = json.load(handle)["results"]
        assert sorted(int(k) for k in saved) == [0, 1, 2]


class TestBackendReporting:
    def test_small_workload_reports_serial(self):
        executor = CampaignExecutor(CampaignConfig(jobs=4), campaign="unit")
        executor.run_tasks(lambda i: i, 1, "fp")
        assert executor.telemetry.backend == "serial"
        assert executor.telemetry.jobs == 1

    def test_resumed_workload_reports_serial(self, tmp_path):
        path = str(tmp_path / "cp.json")
        config = CampaignConfig(checkpoint=CheckpointPolicy(path=path))
        CampaignExecutor(config, campaign="unit").run_tasks(
            lambda i: i, 4, "fp"
        )
        resumed = CampaignExecutor(
            CampaignConfig(jobs=4, checkpoint=CheckpointPolicy(path=path)),
            campaign="unit",
        )
        resumed.run_tasks(lambda i: i, 4, "fp")
        assert resumed.telemetry.backend == "serial"
        assert resumed.telemetry.resumed_runs == 4

    def test_chunked_dispatch_without_timeout(self):
        # with no task_timeout and a large workload the dispatch
        # heuristic batches tasks (64 // (4*8) = 2 per chunk); the
        # watchdog must still see a timeout-capable iterator
        # (regression: pool-level chunksize>1 returns a generator
        # without next(timeout), which read as a broken pool and
        # quarantined every task as "lost")
        executor = CampaignExecutor(
            _fast_config(jobs=4), campaign="unit"
        )
        results = executor.run_tasks(lambda i: i * 3, 64, "fp")
        assert results == [i * 3 for i in range(64)]
        telemetry = executor.telemetry
        assert telemetry.backend == "process"
        assert telemetry.failures == 0
        assert telemetry.retries == 0
        assert telemetry.pool_respawns == 0


class TestWorkerCrash:
    """Chaos: a worker hard-dies mid-campaign; the pool is respawned
    and the task re-dispatched, loss-free."""

    def test_killed_worker_respawned(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_KILL_INDEX", "3")
        path = str(tmp_path / "cp.json")
        config = _fast_config(
            jobs=2, retries=2, pool_watchdog_s=1.5,
            checkpoint=CheckpointPolicy(path=path, every=1),
        )
        executor = CampaignExecutor(config, campaign="unit")
        results = executor.run_tasks(lambda i: i * 2, 8, "fp")
        assert results == [i * 2 for i in range(8)]
        telemetry = executor.telemetry
        assert telemetry.pool_respawns >= 1
        assert telemetry.failures == 0
        # the checkpoint survived the crash and covers every task
        with open(path) as handle:
            saved = json.load(handle)["results"]
        assert sorted(int(k) for k in saved) == list(range(8))

    def test_degrades_to_serial_when_pool_unrebuildable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL_INDEX", "2")
        config = _fast_config(
            jobs=2, retries=2, pool_watchdog_s=1.5, max_pool_respawns=0
        )
        executor = CampaignExecutor(config, campaign="unit")
        assert executor.run_tasks(lambda i: i + 1, 6, "fp") == list(
            range(1, 7)
        )
        assert executor.telemetry.degraded

    def test_crash_resume_bit_identical_to_serial(
        self, monkeypatch, tmp_path, two_cases
    ):
        """Kill a worker mid-campaign, resume, and compare against a
        clean serial run of the same seed: no progress lost, no drift."""
        locations = MemoryMap(factory(two_cases[0]).system).locations()[::25]
        specs = list(EA_BY_NAME.values())

        def campaign(config=None):
            return MemoryCampaign(
                factory, two_cases[:1], specs,
                locations=locations, seed=7, config=config,
            )

        clean = campaign().run()

        monkeypatch.setenv("REPRO_CHAOS_KILL_INDEX", "1")
        path = str(tmp_path / "memory.json")
        crashed = campaign(_fast_config(
            jobs=2, retries=2, pool_watchdog_s=2.0,
            checkpoint=CheckpointPolicy(path=path, every=1),
        ))
        first = crashed.run()
        assert crashed.telemetry.pool_respawns >= 1
        assert first.records == clean.records
        assert first.task_failures == []

        monkeypatch.delenv("REPRO_CHAOS_KILL_INDEX")
        resumed_campaign = campaign(
            _fast_config(checkpoint=CheckpointPolicy(path=path))
        )
        resumed = resumed_campaign.run()
        assert resumed.records == clean.records
        assert resumed_campaign.telemetry.executed_runs == 0


class TestCampaignQuarantineAccounting:
    def test_permeability_tolerates_quarantined_task(
        self, monkeypatch, two_cases
    ):
        monkeypatch.setenv("REPRO_CHAOS_FAIL_INDEX", "0")
        faulty = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7,
            config=_fast_config(retries=0),
        )
        estimate = faulty.run()
        assert len(estimate.task_failures) == 1
        assert estimate.task_failures[0].index == 0
        assert faulty.telemetry.failures == 1

    def test_detection_skips_quarantined_runs(self, monkeypatch, two_cases):
        specs = list(EA_BY_NAME.values())

        def run(config=None):
            return DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=4, targets=["ADC"], seed=7, config=config,
            ).run()

        clean = run()
        monkeypatch.setenv("REPRO_CHAOS_FAIL_INDEX", "1")
        faulty = run(_fast_config(retries=0))
        assert len(faulty.task_failures) == 1
        assert faulty.n_injected["ADC"] == clean.n_injected["ADC"] - 1


class TestEventLog:
    def test_events_recorded(self, tmp_path):
        log = str(tmp_path / "events.jsonl")

        def runner(index):
            if index == 1:
                raise ValueError("poison")
            return index

        config = _fast_config(
            retries=1, event_log_path=log,
            checkpoint=CheckpointPolicy(
                path=str(tmp_path / "cp.json"), every=1
            ),
        )
        CampaignExecutor(config, campaign="unit").run_tasks(runner, 3, "fp")
        with open(log) as handle:
            events = [json.loads(line) for line in handle]
        names = [e["event"] for e in events]
        assert names[0] == "run_start"
        assert names[-1] == "run_end"
        assert "task_finish" in names
        assert "task_retry" in names
        assert "task_failure" in names
        assert "checkpoint_flush" in names
        assert all(e["campaign"] == "unit" for e in events)
        end = events[-1]
        assert end["status"] == "ok"
        assert end["failures"] == 1 and end["retries"] == 1

    def test_disabled_by_default(self, tmp_path):
        executor = CampaignExecutor(CampaignConfig(), campaign="unit")
        executor.run_tasks(lambda i: i, 2, "fp")
        assert list(tmp_path.iterdir()) == []


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"task_timeout": 0.0},
        {"task_timeout": -1.0},
        {"retries": -1},
        {"retry_backoff_s": -0.1},
        {"max_pool_respawns": -1},
        {"pool_watchdog_s": 0.0},
    ])
    def test_rejects_bad_fault_tolerance_knobs(self, kwargs):
        with pytest.raises(CampaignError):
            CampaignConfig(fault_tolerance=FaultTolerancePolicy(**kwargs))


class TestGoldenCacheEviction:
    class _StubStore:
        """Stands in for GoldenRunStore: records what it computed."""

        def __init__(self, factory):
            self.factory = factory

        def get(self, test_case):
            return ("run", id(self.factory), test_case.case_id)

    class _Case:
        def __init__(self, case_id):
            self.case_id = case_id

    @pytest.fixture(autouse=True)
    def stub_store(self, monkeypatch):
        import repro.fi.executor as executor_module

        monkeypatch.setattr(
            executor_module, "GoldenRunStore", self._StubStore
        )

    def test_lru_eviction_bounds_runs(self):
        cache = GoldenRunCache(max_runs=2)
        fa, fb = object(), object()
        cache.get("t", fa, self._Case(1))
        cache.get("t", fa, self._Case(2))
        cache.get("t", fb, self._Case(3))
        assert len(cache) == 2
        # the LRU entry (fa, case 1) was evicted: refetch recomputes
        hits0, misses0 = cache.hits, cache.misses
        cache.get("t", fa, self._Case(1))
        assert cache.misses == misses0 + 1 and cache.hits == hits0

    def test_orphaned_stores_and_factories_dropped(self):
        cache = GoldenRunCache(max_runs=1)
        fa, fb = object(), object()
        cache.get("t", fa, self._Case(1))
        cache.get("t", fb, self._Case(2))  # evicts fa's only run
        assert len(cache._stores) == 1
        assert list(cache._factories.values()) == [fb]

    def test_flight_locks_pruned(self):
        cache = GoldenRunCache(max_runs=8)
        factory = object()
        for case_id in range(5):
            cache.get("t", factory, self._Case(case_id))
        assert cache._flight == {}

    def test_hit_refreshes_lru_position(self):
        cache = GoldenRunCache(max_runs=2)
        factory = object()
        cache.get("t", factory, self._Case(1))
        cache.get("t", factory, self._Case(2))
        cache.get("t", factory, self._Case(1))  # refresh case 1
        cache.get("t", factory, self._Case(3))  # evicts case 2, not 1
        misses0 = cache.misses
        cache.get("t", factory, self._Case(1))
        assert cache.misses == misses0  # still cached
