"""Tests for the result store layer.

The core contracts under test: the sqlite backend is a drop-in
replacement for the legacy JSON checkpoint files (bit-identical
campaign results, identical resume schedules, identical integrity
outcomes), and a legacy checkpoint migrates into the database
losslessly.
"""

import json
import os
import sqlite3
import warnings

import pytest

from repro.edm.catalogue import EA_BY_NAME
from repro.errors import CampaignError, IntegrityError
from repro.fi import (
    AdaptivePolicy,
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
    DetectionCampaign,
    IntegrityPolicy,
    JsonCheckpointStore,
    MemoryCampaign,
    MemoryMap,
    PermeabilityCampaign,
    SqliteResultStore,
    backend_for_path,
    open_store,
)
from repro.target.simulation import ArrestmentSimulator

BACKENDS = ("json", "sqlite")


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


def _path(tmp_path, backend, name="cp"):
    suffix = ".json" if backend == "json" else ".db"
    return str(tmp_path / f"{name}{suffix}")


def _drop_tail(path, backend, keep):
    """Simulate a kill: drop every record with index >= *keep*."""
    if backend == "json":
        with open(path) as handle:
            payload = json.load(handle)
        payload["results"] = {
            k: v for k, v in payload["results"].items() if int(k) < keep
        }
        if isinstance(payload.get("digests"), dict):
            payload["digests"] = {
                k: v
                for k, v in payload["digests"].items()
                if int(k) < keep
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)
    else:
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM tasks WHERE idx >= ?", (keep,))
        conn.commit()
        conn.close()


class TestBackendSelection:
    def test_suffix_rules(self):
        assert backend_for_path("cp.json") == "json"
        assert backend_for_path("cp.txt") == "json"
        for suffix in (".db", ".sqlite", ".sqlite3"):
            assert backend_for_path(f"cp{suffix}") == "sqlite"

    def test_explicit_backend_wins(self):
        assert backend_for_path("cp.json", "sqlite") == "sqlite"
        assert backend_for_path("cp.db", "json") == "json"

    def test_unknown_backend_rejected(self):
        with pytest.raises(CampaignError):
            backend_for_path("cp.json", "mongodb")

    def test_open_store_types(self, tmp_path):
        assert isinstance(
            open_store(str(tmp_path / "a.json")), JsonCheckpointStore
        )
        assert isinstance(
            open_store(str(tmp_path / "a.db")), SqliteResultStore
        )


class TestStoreProtocol:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_round_trip(self, tmp_path, backend):
        path = _path(tmp_path, backend)
        with open_store(path) as store:
            assert store.backend == backend
            assert store.open_campaign("unit", "fp", 4) == 0
            assert store.completed_indices() == set()
            for index in range(3):
                store.put_record(index, {"value": index})
            assert store.flush() is True
            assert store.stats.records_written == 3

        with open_store(path) as reopened:
            assert reopened.open_campaign("unit", "fp", 4) == 0
            assert reopened.completed_indices() == {0, 1, 2}
            assert reopened.get_record(1) == {"value": 1}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clean_flush_skipped(self, tmp_path, backend):
        path = _path(tmp_path, backend)
        with open_store(path) as store:
            store.open_campaign("unit", "fp", 2)
            store.put_record(0, {"value": 0})
            assert store.flush() is True
            assert store.flush() is False
            assert store.stats.skipped_flushes == 1
            assert store.stats.flushes == 1

    def test_json_flush_is_atomic(self, tmp_path):
        path = _path(tmp_path, "json")
        with open_store(path) as store:
            store.open_campaign("unit", "fp", 2)
            store.put_record(0, {"value": 0})
            store.flush()
        # write-temp-then-rename leaves no partial sibling behind
        assert os.listdir(tmp_path) == [os.path.basename(path)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fingerprint_mismatch_is_absent(self, tmp_path, backend):
        path = _path(tmp_path, backend)
        with open_store(path) as store:
            store.open_campaign("unit", "fp-a", 3)
            store.put_record(0, {"value": 0})
            store.flush()
        with open_store(path) as reopened:
            reopened.open_campaign("unit", "fp-b", 3)
            assert reopened.completed_indices() == set()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_discard_campaign(self, tmp_path, backend):
        path = _path(tmp_path, backend)
        with open_store(path) as store:
            store.open_campaign("unit", "fp", 3)
            store.put_record(0, {"value": 0})
            store.flush()
        with open_store(path) as again:
            again.discard_campaign("unit")
            again.open_campaign("unit", "fp", 3)
            assert again.completed_indices() == set()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_list_campaigns(self, tmp_path, backend):
        path = _path(tmp_path, backend)
        with open_store(path) as store:
            store.open_campaign("unit", "fp", 5)
            store.put_record(0, {"value": 0})
            store.put_record(1, {"value": 1})
            store.flush()
        with open_store(path) as reopened:
            (entry,) = reopened.list_campaigns()
            assert entry.campaign == "unit"
            assert entry.fingerprint == "fp"
            assert entry.n_tasks == 5
            assert entry.completed == 2
            assert entry.failures == 0

    def test_sqlite_tamper_repair_drops_record(self, tmp_path):
        path = _path(tmp_path, "sqlite")
        with open_store(path) as store:
            store.open_campaign("unit", "fp", 3)
            for index in range(3):
                store.put_record(index, {"value": index})
            store.flush()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE tasks SET record = ? WHERE idx = 1",
            (json.dumps({"value": 666}),),
        )
        conn.commit()
        conn.close()

        violations = []
        with open_store(path) as repaired:
            rejects = repaired.open_campaign(
                "unit", "fp", 3, policy="repair",
                on_violation=violations.append,
            )
            assert rejects == 1
            assert repaired.completed_indices() == {0, 2}
        assert len(violations) == 1

        with open_store(path) as strict:
            conn = sqlite3.connect(path)
            conn.execute(
                "UPDATE tasks SET record = ? WHERE idx = 0",
                (json.dumps({"value": 667}),),
            )
            conn.commit()
            conn.close()
            with pytest.raises(IntegrityError):
                strict.open_campaign("unit", "fp", 3, policy="strict")


@pytest.mark.slow
class TestBackendEquivalence:
    """A/B: the sqlite store must reproduce the JSON store bit for
    bit — same campaign results, same resume schedules, same
    integrity outcomes — serial and parallel, fixed-n and adaptive.
    """

    def _permeability(self, two_cases, config=None):
        return PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7, config=config
        ).run()

    def test_permeability_identical(self, two_cases, tmp_path):
        baseline = self._permeability(two_cases)
        for jobs in (1, 2):
            by_backend = {}
            for backend in BACKENDS:
                config = CampaignConfig(
                    jobs=jobs,
                    checkpoint=CheckpointPolicy(
                        path=_path(tmp_path, backend, f"perm{jobs}")
                    ),
                )
                by_backend[backend] = self._permeability(two_cases, config)
            for estimate in by_backend.values():
                assert estimate.values == baseline.values
                assert estimate.direct_counts == baseline.direct_counts
                assert estimate.active_runs == baseline.active_runs

    def test_resume_schedule_identical(self, tmp_path):
        schedules = {}
        for backend in BACKENDS:
            path = _path(tmp_path, backend)
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(path=path, every=1)
            )
            CampaignExecutor(config, campaign="unit").run_tasks(
                lambda i: i * 2, 6, "fp"
            )
            _drop_tail(path, backend, keep=3)

            executed = []

            def runner(index):
                executed.append(index)
                return index * 2

            resumed = CampaignExecutor(config, campaign="unit")
            results = resumed.run_tasks(runner, 6, "fp")
            assert results == [0, 2, 4, 6, 8, 10]
            assert resumed.telemetry.resumed_runs == 3
            schedules[backend] = sorted(executed)
        assert schedules["json"] == schedules["sqlite"] == [3, 4, 5]

    def test_detection_identical_fixed_and_adaptive(
        self, two_cases, tmp_path
    ):
        specs = list(EA_BY_NAME.values())

        def run(backend, adaptive):
            name = f"det-{'a' if adaptive else 'f'}"
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(
                    path=_path(tmp_path, backend, name)
                ),
                sampling=AdaptivePolicy(
                    enabled=adaptive, ci_halfwidth=0.0
                ),
            )
            return DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=4, targets=["ADC", "PACNT"], seed=7,
                config=config,
            ).run()

        for adaptive in (False, True):
            a = run("json", adaptive)
            b = run("sqlite", adaptive)
            assert a.detections == b.detections
            assert a.n_err == b.n_err
            assert a.run_records == b.run_records

    def test_integrity_audit_outcome_identical(self, two_cases, tmp_path):
        results = {}
        for backend in BACKENDS:
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(
                    path=_path(tmp_path, backend, "audit")
                ),
                integrity=IntegrityPolicy(
                    audit_fraction=0.5, audit_seed=11
                ),
            )
            campaign = PermeabilityCampaign(
                factory, two_cases, runs_per_input=2, seed=7,
                config=config,
            )
            results[backend] = campaign.run()
            assert campaign.integrity_violations == []
        assert results["json"].values == results["sqlite"].values

    def test_recovery_campaign_identical(self, two_cases, tmp_path):
        from repro.fi.campaign import RecoveryCampaign

        system = factory(two_cases[0]).system
        locations = [
            loc for loc in MemoryMap(system).locations()
            if loc.cell in ("mscnt", "pulscnt_acc")
        ]
        specs = list(EA_BY_NAME.values())

        def run(backend):
            return RecoveryCampaign(
                ArrestmentSimulator, two_cases[:1], specs,
                locations=locations, seed=9,
                config=CampaignConfig(
                    checkpoint=CheckpointPolicy(
                        path=_path(tmp_path, backend, "recovery")
                    )
                ),
            ).run()

        a, b = run("json"), run("sqlite")
        assert a.outcomes == b.outcomes

    def test_memory_campaign_kill_resume_sqlite(self, two_cases, tmp_path):
        path = _path(tmp_path, "sqlite", "memory")
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
        _drop_tail(path, "sqlite", keep=2)

        resumed_campaign = campaign(
            CampaignConfig(checkpoint=CheckpointPolicy(path=path))
        )
        resumed = resumed_campaign.run()
        assert resumed.records == fresh.records
        assert resumed_campaign.telemetry.resumed_runs == 2


class TestMigration:
    def test_import_round_trips_losslessly(self, tmp_path):
        json_path = _path(tmp_path, "json")
        db_path = _path(tmp_path, "sqlite")
        config = CampaignConfig(
            checkpoint=CheckpointPolicy(path=json_path, every=1)
        )
        CampaignExecutor(config, campaign="unit").run_tasks(
            lambda i: {"value": i * 2}, 5, "fp"
        )
        with open(json_path) as handle:
            original = json.load(handle)

        with SqliteResultStore(db_path) as store:
            entry = store.import_checkpoint(json_path)
            assert entry.campaign == "unit"
            assert entry.completed == 5
            exported = store.checkpoint_document("unit")
        assert exported == original

    def test_resume_from_imported_checkpoint(self, tmp_path):
        json_path = _path(tmp_path, "json")
        db_path = _path(tmp_path, "sqlite")
        CampaignExecutor(
            CampaignConfig(checkpoint=CheckpointPolicy(path=json_path)),
            campaign="unit",
        ).run_tasks(lambda i: i * 3, 4, "fp")
        with SqliteResultStore(db_path) as store:
            store.import_checkpoint(json_path)

        executed = []

        def runner(index):
            executed.append(index)
            return index * 3

        resumed = CampaignExecutor(
            CampaignConfig(checkpoint=CheckpointPolicy(path=db_path)),
            campaign="unit",
        )
        assert resumed.run_tasks(runner, 4, "fp") == [0, 3, 6, 9]
        assert executed == []
        assert resumed.telemetry.resumed_runs == 4

    def test_import_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a checkpoint"}))
        with SqliteResultStore(_path(tmp_path, "sqlite")) as store:
            with pytest.raises(CampaignError):
                store.import_checkpoint(str(bad))


class TestResultPersistence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_round_trip(self, two_cases, tmp_path, backend):
        estimate = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7
        ).run()
        path = _path(tmp_path, backend, "result")
        with open_store(path) as store:
            run = store.save_result(estimate, run="unit/permeability")
            assert run == "unit/permeability"
        with open_store(path) as reopened:
            loaded = reopened.load_result(
                "unit/permeability" if backend == "sqlite" else None
            )
        assert loaded.values == estimate.values
        assert loaded.direct_counts == estimate.direct_counts

    def test_sqlite_meta_and_catalogue(self, two_cases, tmp_path):
        estimate = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7
        ).run()
        path = _path(tmp_path, "sqlite")
        with SqliteResultStore(path) as store:
            store.save_result(
                estimate, run="a/permeability", meta={"seed": 7}
            )
            (entry,) = store.list_results()
            assert entry.run == "a/permeability"
            assert entry.kind == "permeability_estimate"
            assert store.result_meta("a/permeability") == {"seed": 7}

    def test_sqlite_tampered_result_fails_verification(
        self, two_cases, tmp_path
    ):
        estimate = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7
        ).run()
        path = _path(tmp_path, "sqlite")
        with SqliteResultStore(path) as store:
            store.save_result(estimate, run="a/permeability")
        conn = sqlite3.connect(path)
        (payload,) = conn.execute(
            "SELECT payload FROM results"
        ).fetchone()
        doc = json.loads(payload)
        doc["direct_counts"][0]["count"] += 1
        conn.execute(
            "UPDATE results SET payload = ?", (json.dumps(doc),)
        )
        conn.commit()
        conn.close()
        with SqliteResultStore(path) as store:
            with pytest.raises(IntegrityError):
                store.load_result("a/permeability")


class TestDeprecationShims:
    def test_nested_config_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CampaignConfig(
                checkpoint=CheckpointPolicy(path=str(tmp_path / "cp.json"))
            )
