"""Tests for the result-integrity layer (``repro.fi.integrity``).

The contract under test: silent corruption of campaign artefacts —
checkpoint records tampered at rest, saved result files flipped on
disk, fast-forward state drifting from a full replay, pool workers
computing different goldens than the parent — is *detected* (strict
aborts with :class:`IntegrityError`) or *repaired* (results converge
bit-identically to a trusted full recomputation), never silently
merged into the paper's numbers.
"""

import json
import math

import pytest

from repro.edm.catalogue import EA_BY_NAME
from repro.errors import CampaignError, IntegrityError
from repro.fi import (
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
    DetectionCampaign,
    FastForwardPolicy,
    FaultTolerancePolicy,
    IntegrityPolicy,
    IntegrityViolation,
    JsonCheckpointStore,
    RunAuditor,
    canonical_digest,
    field_diff,
    fingerprint_of,
    run_digest,
)
from repro.fi.snapshot import checkpoint_cache
from repro.target.simulation import ArrestmentSimulator


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


def _fast_config(max_pool_respawns=2, **kwargs):
    """No retry back-off; *kwargs* are ``CampaignConfig`` arguments."""
    return CampaignConfig(
        fault_tolerance=FaultTolerancePolicy(
            retry_backoff_s=0.0, max_pool_respawns=max_pool_respawns
        ),
        **kwargs,
    )


def detection(two_cases, **kwargs):
    config = kwargs.pop("config", None)
    return DetectionCampaign(
        factory, two_cases, list(EA_BY_NAME.values()),
        runs_per_signal=4, targets=["ADC", "PACNT"], seed=7,
        config=config, **kwargs,
    )


# ======================================================================
# Canonical content digests.
# ======================================================================
class TestCanonicalDigest:
    def test_deterministic_and_key_order_free(self):
        a = {"x": [1, 2.5, "s"], "y": {"nested": True}}
        b = {"y": {"nested": True}, "x": [1, 2.5, "s"]}
        assert canonical_digest(a) == canonical_digest(b)

    def test_json_round_trip_stable(self):
        value = {"t": [0, 1, 2], "v": [0.1, -0.0, 3e9], "n": None}
        rebuilt = json.loads(json.dumps(value))
        assert canonical_digest(rebuilt) == canonical_digest(value)

    def test_type_distinctions(self):
        assert canonical_digest(1) != canonical_digest(1.0)
        assert canonical_digest(True) != canonical_digest(1)
        assert canonical_digest(0.0) != canonical_digest(-0.0)
        assert canonical_digest("1") != canonical_digest(1)
        assert canonical_digest([]) != canonical_digest({})

    def test_all_nans_collapse(self):
        quiet = float("nan")
        negated = -quiet
        assert canonical_digest(quiet) == canonical_digest(negated)
        assert canonical_digest(math.inf) != canonical_digest(quiet)

    def test_tuples_digest_like_lists(self):
        assert canonical_digest((1, 2)) == canonical_digest([1, 2])

    def test_sets_are_order_free(self):
        assert canonical_digest({3, 1, 2}) == canonical_digest({2, 3, 1})

    def test_undigestable_raises(self):
        with pytest.raises(IntegrityError):
            canonical_digest(object())

    def test_perturbation_changes_digest(self):
        base = {"traces": {"s": [[0, 1], [0.5, 0.25]]}}
        poked = {"traces": {"s": [[0, 1], [0.5, 0.250001]]}}
        assert canonical_digest(base) != canonical_digest(poked)


class TestFieldDiff:
    def test_equal_is_none(self):
        value = {"a": [1, 2.0, None], "b": {"c": "x"}}
        assert field_diff(value, json.loads(json.dumps(value))) is None

    def test_nested_location(self):
        assert field_diff({"x": [1, 2, 3]}, {"x": [1, 2, 4]}) == \
            "$.x[2]: expected 3, observed 4"

    def test_key_set_mismatch(self):
        diff = field_diff({"a": 1}, {"a": 1, "b": 2})
        assert diff is not None and "$" in diff

    def test_float_bits(self):
        assert field_diff([0.0], [-0.0]) is not None
        assert field_diff([float("nan")], [float("nan")]) is None

    def test_length_mismatch(self):
        assert field_diff([1, 2], [1]) is not None


class TestRunDigest:
    def test_stable_across_recomputation(self, mid_case):
        assert run_digest(ArrestmentSimulator(mid_case).run()) == \
            run_digest(ArrestmentSimulator(mid_case).run())

    def test_differs_between_cases(self, test_cases):
        assert run_digest(ArrestmentSimulator(test_cases[4]).run()) != \
            run_digest(ArrestmentSimulator(test_cases[20]).run())

    def test_golden_run_digest(self, two_cases):
        from repro.fi.golden import GoldenRunStore

        golden = GoldenRunStore(factory).get(two_cases[0])
        assert golden.digest() == run_digest(golden.result)


# ======================================================================
# Config plumbing.
# ======================================================================
class TestIntegrityConfig:
    def test_defaults(self):
        config = CampaignConfig()
        assert config.audit_fraction == 0.0
        assert config.audit_seed is None
        assert config.integrity_policy == "repair"

    def test_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(integrity=IntegrityPolicy(audit_fraction=-0.1))
        with pytest.raises(CampaignError):
            CampaignConfig(integrity=IntegrityPolicy(audit_fraction=1.5))
        with pytest.raises(CampaignError):
            CampaignConfig(integrity=IntegrityPolicy(policy="paranoid"))

    class _StubFF:
        enabled = True

    @staticmethod
    def _audit_config(fraction, seed=None):
        return CampaignConfig(
            integrity=IntegrityPolicy(audit_fraction=fraction, audit_seed=seed)
        )

    def test_sampling_deterministic(self):
        auditor = RunAuditor(self._StubFF(), self._audit_config(0.5, 11))
        again = RunAuditor(self._StubFF(), self._audit_config(0.5, 11))
        picks = [auditor.should_audit(i) for i in range(200)]
        assert picks == [again.should_audit(i) for i in range(200)]
        assert 40 < sum(picks) < 160  # roughly half, deterministic

    def test_sampling_extremes(self):
        none = RunAuditor(self._StubFF(), self._audit_config(0.0))
        every = RunAuditor(self._StubFF(), self._audit_config(1.0))
        assert not any(none.should_audit(i) for i in range(50))
        assert all(every.should_audit(i) for i in range(50))


# ======================================================================
# Checkpoint record digests.
# ======================================================================
class TestCheckpointDigests:
    def _run(self, path, policy="repair"):
        config = _fast_config(
            checkpoint=CheckpointPolicy(path=str(path), every=1),
            integrity=IntegrityPolicy(policy=policy),
        )
        executor = CampaignExecutor(config, campaign="unit")
        results = executor.run_tasks(lambda i: {"v": i * 2}, 4, "fp")
        return executor, results

    def _tamper(self, path, index="2", value=None):
        payload = json.loads(path.read_text())
        payload["results"][index] = value if value is not None else {"v": 99}
        path.write_text(json.dumps(payload))
        return payload

    def test_digests_written(self, tmp_path):
        path = tmp_path / "cp.json"
        self._run(path)
        payload = json.loads(path.read_text())
        assert set(payload["digests"]) == {"0", "1", "2", "3"}
        assert payload["digests"]["1"] == canonical_digest({"v": 2})

    def test_repair_reexecutes_tampered_record(self, tmp_path):
        path = tmp_path / "cp.json"
        self._run(path)
        self._tamper(path)
        executor, results = self._run(path, policy="repair")
        assert results == [{"v": 0}, {"v": 2}, {"v": 4}, {"v": 6}]
        assert executor.telemetry.checkpoint_rejects == 1
        assert executor.telemetry.resumed_runs == 3
        assert [v.kind for v in executor.violations] == ["checkpoint_digest"]

    def test_strict_raises_on_tampered_record(self, tmp_path):
        path = tmp_path / "cp.json"
        self._run(path)
        self._tamper(path)
        executor = CampaignExecutor(
            _fast_config(
                checkpoint=CheckpointPolicy(path=str(path)),
                integrity=IntegrityPolicy(policy="strict"),
            ),
            campaign="unit",
        )
        with pytest.raises(IntegrityError):
            executor.run_tasks(lambda i: {"v": i * 2}, 4, "fp")

    def test_off_merges_unverified(self, tmp_path):
        path = tmp_path / "cp.json"
        self._run(path)
        self._tamper(path)
        _, results = self._run(path, policy="off")
        assert results[2] == {"v": 99}  # corruption silently accepted

    def test_pre_digest_checkpoint_resumes(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 3,
            "results": {"0": {"v": 0}, "1": {"v": 2}},
        }))
        executor, results = self._run(path)
        assert results == [{"v": 0}, {"v": 2}, {"v": 4}, {"v": 6}]
        assert executor.telemetry.checkpoint_rejects == 0


# ======================================================================
# Saved campaign files.
# ======================================================================
class TestSaveLoadDigest:
    @pytest.fixture(scope="class")
    def result(self, two_cases):
        return detection(two_cases).run()

    @staticmethod
    def _save(result, tmp_path):
        path = tmp_path / "detection.json"
        JsonCheckpointStore(str(path)).save_result(result)
        return path

    @staticmethod
    def _load(path):
        return JsonCheckpointStore(str(path)).load_result()

    def test_round_trip_verified(self, result, tmp_path):
        path = self._save(result, tmp_path)
        data = json.loads(path.read_text())
        assert "digest" in data
        assert self._load(path) == result

    def test_tampered_file_raises(self, result, tmp_path):
        path = self._save(result, tmp_path)
        data = json.loads(path.read_text())
        data["n_err"] = {k: v + 1 for k, v in data["n_err"].items()}
        path.write_text(json.dumps(data))
        with pytest.raises(IntegrityError):
            self._load(path)

    def test_pre_digest_file_loads(self, result, tmp_path):
        path = self._save(result, tmp_path)
        data = json.loads(path.read_text())
        del data["digest"]
        path.write_text(json.dumps(data))
        assert self._load(path) == result


# ======================================================================
# Sampled audit replay (with the chaos fast-forward corruptor).
# ======================================================================
class TestAuditReplay:
    @pytest.fixture(autouse=True)
    def fresh_checkpoint_cache(self):
        checkpoint_cache.clear()
        yield
        checkpoint_cache.clear()

    def test_clean_audit_passes_and_preserves_results(self, two_cases):
        plain = detection(two_cases).run()
        campaign = detection(
            two_cases,
            config=_fast_config(
                integrity=IntegrityPolicy(audit_fraction=1.0, policy="strict")
            ),
        )
        assert campaign.run() == plain
        assert campaign.telemetry.audits > 0
        assert campaign.telemetry.audit_mismatches == 0
        assert campaign.integrity_violations == []

    def test_strict_detects_corrupted_fast_forward(
        self, monkeypatch, two_cases
    ):
        monkeypatch.setenv("REPRO_CHAOS_CORRUPT_FF_RESTORE", "all")
        campaign = detection(
            two_cases,
            config=_fast_config(
                integrity=IntegrityPolicy(audit_fraction=1.0, policy="strict")
            ),
        )
        with pytest.raises(IntegrityError):
            campaign.run()

    def test_repair_converges_to_full_replay(self, monkeypatch, two_cases):
        trusted = detection(
            two_cases,
            config=_fast_config(fastforward=FastForwardPolicy(enabled=False)),
        ).run()
        monkeypatch.setenv("REPRO_CHAOS_CORRUPT_FF_RESTORE", "all")
        campaign = detection(
            two_cases,
            config=_fast_config(
                integrity=IntegrityPolicy(audit_fraction=1.0, policy="repair")
            ),
        )
        repaired = campaign.run()
        assert repaired == trusted
        telemetry = campaign.telemetry
        assert telemetry.audits > 0
        assert telemetry.audit_mismatches > 0
        assert telemetry.audit_repairs == telemetry.audit_mismatches
        assert campaign.integrity_violations
        violation = campaign.integrity_violations[0]
        assert violation.kind == "audit_mismatch"
        assert violation.campaign == "detection"
        assert "integrity" in telemetry.render()

    def test_violations_and_counters_reach_event_log(
        self, monkeypatch, tmp_path, two_cases
    ):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_CHAOS_CORRUPT_FF_RESTORE", "all")
        monkeypatch.setenv("REPRO_EVENT_LOG_FSYNC", "1")
        detection(
            two_cases,
            config=_fast_config(
                integrity=IntegrityPolicy(audit_fraction=1.0, policy="repair"),
                event_log_path=str(log),
            ),
        ).run()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = {event["event"] for event in events}
        assert "integrity_violation" in kinds
        run_end = [e for e in events if e["event"] == "run_end"][-1]
        assert run_end["audit_mismatches"] > 0
        assert run_end["violations"] > 0

    def test_violation_json_round_trip(self):
        violation = IntegrityViolation(
            kind="audit_mismatch", campaign="detection", index=3,
            detail="$.x: expected 1, observed 2",
        )
        rebuilt = IntegrityViolation.from_json(violation.to_json())
        assert rebuilt == violation
        assert "audit_mismatch" in violation.describe()


# ======================================================================
# Worker drift sentinels.
# ======================================================================
class TestDriftSentinel:
    def test_drifted_pool_degrades_and_stays_correct(
        self, monkeypatch, two_cases
    ):
        plain = detection(two_cases).run()
        monkeypatch.setenv("REPRO_CHAOS_DRIFT_WORKER", "1")
        campaign = detection(
            two_cases,
            config=_fast_config(jobs=2, max_pool_respawns=0),
        )
        assert campaign.run() == plain
        telemetry = campaign.telemetry
        if telemetry.backend == "serial":
            pytest.skip("fork unavailable: no pool to drift")
        assert telemetry.drift_events > 0
        assert telemetry.degraded
        assert any(
            v.kind == "worker_drift" for v in campaign.integrity_violations
        )

    def test_policy_off_skips_sentinel(self, monkeypatch, two_cases):
        monkeypatch.setenv("REPRO_CHAOS_DRIFT_WORKER", "1")
        campaign = detection(
            two_cases,
            config=_fast_config(
                jobs=2, max_pool_respawns=0,
                integrity=IntegrityPolicy(policy="off"),
            ),
        )
        campaign.run()
        assert campaign.telemetry.drift_events == 0
        assert not campaign.telemetry.degraded


# ======================================================================
# Fingerprint salting.
# ======================================================================
class TestFingerprintSalt:
    def test_version_change_invalidates_checkpoints(self, monkeypatch):
        before = fingerprint_of("campaign", 7)
        monkeypatch.setattr("repro.__version__", "0.0.0-test")
        assert fingerprint_of("campaign", 7) != before

    def test_stable_within_a_version(self):
        assert fingerprint_of("campaign", 7) == fingerprint_of("campaign", 7)
        assert fingerprint_of("campaign", 7) != fingerprint_of("campaign", 8)
