"""Tests for the result store layer.

The core contracts under test: the results database keeps the
checkpoint protocol (resume, fingerprints, digests) at any path,
whatever its suffix; checkpointing never changes a campaign's
results; a legacy JSON checkpoint imports losslessly, and a malformed
one is refused whole.
"""

import json
import os
import warnings

import pytest
from conftest import raw_db

from repro.edm.catalogue import EA_BY_NAME
from repro.errors import CampaignError, IntegrityError
from repro.fi import (
    AdaptivePolicy,
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
    DetectionCampaign,
    IntegrityPolicy,
    MemoryMap,
    PermeabilityCampaign,
    SqliteResultStore,
    canonical_digest,
)
from repro.target.simulation import ArrestmentSimulator

#: a checkpoint path names a database whatever its suffix, a legacy
#: ``.json`` name included
PATHS = [
    pytest.param("results.db", id="sqlite"),
    pytest.param("cp.json", id="json-suffix"),
]

#: a legacy JSON checkpoint document: three of four tasks done, the
#: third quarantined
FAILURE = {
    "__task_failure__": 1, "index": 2, "kind": "exception",
    "error": "ValueError('poison')", "attempts": 2,
}
LEGACY = {
    "campaign": "unit",
    "fingerprint": "fp",
    "n_tasks": 4,
    "results": {"0": {"value": 0}, "1": {"value": 3}, "2": FAILURE},
    "digests": {
        "0": canonical_digest({"value": 0}),
        "1": canonical_digest({"value": 3}),
        "2": canonical_digest(FAILURE),
    },
}


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


def _legacy_file(tmp_path, document=LEGACY, name="legacy.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestStoreProtocol:
    @pytest.mark.parametrize("name", PATHS)
    def test_checkpoint_round_trip(self, tmp_path, name):
        path = str(tmp_path / name)
        with SqliteResultStore(path) as store:
            assert store.open_campaign("unit", "fp", 4) == 0
            assert store.completed_indices() == set()
            for index in range(3):
                store.put_record(index, {"value": index})
            assert store.flush() is True
            assert store.stats.records_written == 3
        with open(path, "rb") as handle:
            assert handle.read(16) == b"SQLite format 3\x00"

        with SqliteResultStore(path) as reopened:
            assert reopened.open_campaign("unit", "fp", 4) == 0
            assert reopened.completed_indices() == {0, 1, 2}
            assert reopened.get_record(1) == {"value": 1}

    @pytest.mark.parametrize("name", PATHS)
    def test_clean_flush_skipped(self, tmp_path, name):
        with SqliteResultStore(str(tmp_path / name)) as store:
            store.open_campaign("unit", "fp", 2)
            store.put_record(0, {"value": 0})
            assert store.flush() is True
            assert store.flush() is False
            assert store.stats.skipped_flushes == 1
            assert store.stats.flushes == 1

    @pytest.mark.parametrize("name", PATHS)
    def test_fingerprint_mismatch_is_absent(self, tmp_path, name):
        path = str(tmp_path / name)
        with SqliteResultStore(path) as store:
            store.open_campaign("unit", "fp-a", 3)
            store.put_record(0, {"value": 0})
            store.flush()
        with SqliteResultStore(path) as reopened:
            reopened.open_campaign("unit", "fp-b", 3)
            assert reopened.completed_indices() == set()

    @pytest.mark.parametrize("name", PATHS)
    def test_discard_campaign(self, tmp_path, name):
        path = str(tmp_path / name)
        with SqliteResultStore(path) as store:
            store.open_campaign("unit", "fp", 3)
            store.put_record(0, {"value": 0})
            store.flush()
        with SqliteResultStore(path) as again:
            again.discard_campaign("unit")
            again.open_campaign("unit", "fp", 3)
            assert again.completed_indices() == set()

    @pytest.mark.parametrize("name", PATHS)
    def test_list_campaigns(self, tmp_path, name):
        path = str(tmp_path / name)
        with SqliteResultStore(path) as store:
            store.open_campaign("unit", "fp", 5)
            store.put_record(0, {"value": 0})
            store.put_record(1, {"value": 1})
            store.flush()
        with SqliteResultStore(path) as reopened:
            (entry,) = reopened.list_campaigns()
            assert entry.campaign == "unit"
            assert entry.fingerprint == "fp"
            assert entry.n_tasks == 5
            assert entry.completed == 2
            assert entry.failures == 0

    def test_sqlite_tamper_repair_drops_record(self, tmp_path):
        path = str(tmp_path / "results.db")
        with SqliteResultStore(path) as store:
            store.open_campaign("unit", "fp", 3)
            for index in range(3):
                store.put_record(index, {"value": index})
            store.flush()
        with raw_db(path) as db:
            db.execute(
                "UPDATE tasks SET record = ? WHERE idx = 1",
                (json.dumps({"value": 666}),),
            )

        violations = []
        with SqliteResultStore(path) as repaired:
            rejects = repaired.open_campaign(
                "unit", "fp", 3, policy="repair",
                on_violation=violations.append,
            )
            assert rejects == 1
            assert repaired.completed_indices() == {0, 2}
        assert len(violations) == 1

        with SqliteResultStore(path) as strict:
            with raw_db(path) as db:
                db.execute(
                    "UPDATE tasks SET record = ? WHERE idx = 0",
                    (json.dumps({"value": 667}),),
                )
            with pytest.raises(IntegrityError):
                strict.open_campaign("unit", "fp", 3, policy="strict")

    def test_legacy_json_file_refused_with_import_hint(self, tmp_path):
        path = _legacy_file(tmp_path, name="cp.json")
        with open(path, "rb") as handle:
            before = handle.read()
        store = SqliteResultStore(path)
        with pytest.raises(CampaignError) as caught:
            store.open_campaign("unit", "fp", 4)
        store.close()
        message = str(caught.value)
        assert "not a usable sqlite results database" in message
        assert f"repro analyze --db DB import {path}" in message
        # never overwritten, and no journal left beside it
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["cp.json"]


@pytest.mark.slow
class TestCheckpointedEquivalence:
    """A/B: checkpointing into the results database changes no
    campaign result — serial and parallel, fixed-n and adaptive, with
    audits and for recovery campaigns.
    """

    def _permeability(self, two_cases, config=None):
        return PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7, config=config
        ).run()

    def test_permeability_identical(self, two_cases, tmp_path):
        baseline = self._permeability(two_cases)
        for jobs in (1, 2):
            config = CampaignConfig(
                jobs=jobs,
                checkpoint=CheckpointPolicy(
                    path=str(tmp_path / f"perm{jobs}.db")
                ),
            )
            estimate = self._permeability(two_cases, config)
            assert estimate.values == baseline.values
            assert estimate.direct_counts == baseline.direct_counts
            assert estimate.active_runs == baseline.active_runs

    def test_detection_identical_fixed_and_adaptive(
        self, two_cases, tmp_path
    ):
        specs = list(EA_BY_NAME.values())

        def run(adaptive, path=None):
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(path=path),
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
            a = run(adaptive)
            b = run(adaptive, str(tmp_path / f"det-{adaptive}.db"))
            assert a.detections == b.detections
            assert a.n_err == b.n_err
            assert a.run_records == b.run_records

    def test_integrity_audit_outcome_identical(self, two_cases, tmp_path):
        results = {}
        for path in (None, str(tmp_path / "audit.db")):
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(path=path),
                integrity=IntegrityPolicy(
                    audit_fraction=0.5, audit_seed=11
                ),
            )
            campaign = PermeabilityCampaign(
                factory, two_cases, runs_per_input=2, seed=7,
                config=config,
            )
            results[path] = campaign.run()
            assert campaign.integrity_violations == []
        baseline, checkpointed = results.values()
        assert checkpointed.values == baseline.values

    def test_recovery_campaign_identical(self, two_cases, tmp_path):
        from repro.fi.campaign import RecoveryCampaign

        system = factory(two_cases[0]).system
        locations = [
            loc for loc in MemoryMap(system).locations()
            if loc.cell in ("mscnt", "pulscnt_acc")
        ]
        specs = list(EA_BY_NAME.values())

        def run(path=None):
            return RecoveryCampaign(
                ArrestmentSimulator, two_cases[:1], specs,
                locations=locations, seed=9,
                config=CampaignConfig(
                    checkpoint=CheckpointPolicy(path=path)
                ),
            ).run()

        assert run().outcomes == run(str(tmp_path / "recovery.db")).outcomes


#: legacy documents the import refuses, by what is wrong with them
MALFORMED = {
    "non-integer-index": {**LEGACY, "results": {"0": {"v": 1}, "a": {"v": 2}}},
    "index-out-of-range": {**LEGACY, "results": {"0": {"v": 1}, "4": {}}},
    "negative-index": {**LEGACY, "results": {"-1": {"v": 1}}},
    "mangled-quarantine-record": {
        **LEGACY, "results": {"0": {"__task_failure__": 1, "index": "zero"}},
    },
    "results-not-a-mapping": {**LEGACY, "results": [1, 2, 3]},
    "digests-not-a-mapping": {**LEGACY, "digests": ["abc"]},
    "digest-not-a-string": {**LEGACY, "digests": {"0": 7}},
    "n-tasks-not-an-integer": {**LEGACY, "n_tasks": "4"},
    "no-campaign": {k: v for k, v in LEGACY.items() if k != "campaign"},
    "not-an-object": [LEGACY],
}


class TestMigration:
    def test_import_round_trips_losslessly(self, tmp_path):
        db_path = str(tmp_path / "results.db")
        with SqliteResultStore(db_path) as store:
            entry = store.import_checkpoint(_legacy_file(tmp_path))
        assert (entry.campaign, entry.fingerprint, entry.n_tasks) == (
            "unit", "fp", 4
        )
        assert (entry.completed, entry.failures) == (3, 1)
        with raw_db(db_path) as db:
            rows = db.execute(
                "SELECT idx, record, digest FROM tasks ORDER BY idx"
            ).fetchall()
            failures = db.execute(
                "SELECT idx, kind, error, attempts FROM task_failures"
            ).fetchall()
        assert {str(idx): json.loads(text) for idx, text, _ in rows} == (
            LEGACY["results"]
        )
        assert {str(idx): digest for idx, _, digest in rows} == (
            LEGACY["digests"]
        )
        assert failures == [(2, "exception", "ValueError('poison')", 2)]
        with SqliteResultStore(db_path) as store:
            assert store.list_campaigns() == [entry]

    def test_resume_from_imported_checkpoint(self, tmp_path):
        db_path = str(tmp_path / "results.db")
        document = {
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 4,
            "results": {str(i): i * 3 for i in range(4)},
            "digests": {str(i): canonical_digest(i * 3) for i in range(4)},
        }
        with SqliteResultStore(db_path) as store:
            store.import_checkpoint(_legacy_file(tmp_path, document))

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
        with SqliteResultStore(str(tmp_path / "results.db")) as store:
            with pytest.raises(CampaignError):
                store.import_checkpoint(str(bad))

    @pytest.mark.parametrize("problem", sorted(MALFORMED))
    def test_import_refuses_malformed_document(self, tmp_path, problem):
        bad = _legacy_file(tmp_path, MALFORMED[problem], name="bad.json")
        with SqliteResultStore(str(tmp_path / "results.db")) as store:
            with pytest.raises(CampaignError):
                store.import_checkpoint(bad)
            assert store.list_campaigns() == []


class TestResultPersistence:
    @pytest.mark.parametrize("name", PATHS)
    def test_result_round_trip(self, two_cases, tmp_path, name):
        estimate = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7
        ).run()
        path = str(tmp_path / name)
        with SqliteResultStore(path) as store:
            run = store.save_result(estimate, run="unit/permeability")
            assert run == "unit/permeability"
        with SqliteResultStore(path) as reopened:
            loaded = reopened.load_result("unit/permeability")
        assert loaded.values == estimate.values
        assert loaded.direct_counts == estimate.direct_counts

    def test_sqlite_meta_and_catalogue(self, two_cases, tmp_path):
        estimate = PermeabilityCampaign(
            factory, two_cases, runs_per_input=2, seed=7
        ).run()
        with SqliteResultStore(str(tmp_path / "results.db")) as store:
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
        path = str(tmp_path / "results.db")
        with SqliteResultStore(path) as store:
            store.save_result(estimate, run="a/permeability")
        with raw_db(path) as db:
            (payload,) = db.execute("SELECT payload FROM results").fetchone()
            doc = json.loads(payload)
            doc["direct_counts"][0]["count"] += 1
            db.execute("UPDATE results SET payload = ?", (json.dumps(doc),))
        with SqliteResultStore(path) as store:
            with pytest.raises(IntegrityError):
                store.load_result("a/permeability")


class TestDeprecationShims:
    def test_nested_config_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CampaignConfig(
                checkpoint=CheckpointPolicy(path=str(tmp_path / "cp.db"))
            )
