"""Tests for the adaptive (sequential-sampling) campaign engine.

The core contracts under test:

* an adaptive campaign with early stopping **disabled**
  (``ci_halfwidth=0``) is bit-identical to the fixed-n campaign on the
  serial and the process backend — the batched scheduler changes the
  dispatch order, never the results;
* early stopping saves injections while preserving the shape verdicts
  (architectural zeros stay zero, saturated pairs stay saturated);
* an adaptive campaign that crashes mid-stratum and resumes from its
  checkpoint reaches the same estimates and the same stop decisions
  as an uninterrupted run, with a clean strict-integrity audit.
"""

import pytest

from repro.edm.catalogue import EA_BY_NAME
from repro.errors import CampaignError
from repro.fi import (
    SKIPPED,
    AdaptiveSampler,
    AdaptivePolicy,
    AdaptiveStratum,
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
    DetectionCampaign,
    FaultTolerancePolicy,
    IntegrityPolicy,
    PermeabilityCampaign,
    StoppingRule,
    canonical_digest,
    stopping_rule_from,
)
from repro.fi.serialization import (
    detection_to_dict,
    permeability_to_dict,
    stratum_reports_from_dict,
    stratum_reports_to_dict,
)
from repro.target.simulation import ArrestmentSimulator


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


def _config(jobs=1, checkpoint=CheckpointPolicy(),
            integrity=IntegrityPolicy(), adaptive=False,
            retries=1, pool_watchdog_s=None, **sampling):
    """No retry back-off; *adaptive* and *sampling* fill the
    :class:`AdaptivePolicy`."""
    return CampaignConfig(
        jobs=jobs,
        checkpoint=checkpoint,
        integrity=integrity,
        fault_tolerance=FaultTolerancePolicy(
            retry_backoff_s=0.0, retries=retries,
            pool_watchdog_s=pool_watchdog_s,
        ),
        sampling=AdaptivePolicy(enabled=adaptive, **sampling),
    )


# ======================================================================
# Stopping rule.
# ======================================================================
class TestStoppingRule:
    def test_zero_certification_needs_enough_misses(self):
        rule = StoppingRule()  # zero_threshold 0.3, one-sided 95 %
        assert rule.classify(0, 4) is None  # upper bound 0.404 > 0.3
        assert rule.classify(0, 8) == "zero"  # upper bound 0.253
        assert rule.classify(1, 50) != "zero"  # a hit forbids zero

    def test_saturation_certification(self):
        rule = StoppingRule()  # saturation_threshold 0.6
        assert rule.classify(8, 8) == "saturated"  # lower bound 0.747
        assert rule.classify(4, 4) is None  # lower bound 0.596
        assert rule.classify(5, 5) == "saturated"

    def test_halfwidth_target(self):
        rule = StoppingRule(halfwidth=0.2)
        assert rule.classify(12, 24) == "halfwidth"
        assert rule.classify(6, 12) is None  # half-width 0.252

    def test_halfwidth_zero_never_stops_on_precision(self):
        rule = StoppingRule(halfwidth=0.0)
        assert rule.classify(12, 24) is None
        assert rule.classify(500, 1000) is None
        # certification still applies (the rule, not the off switch —
        # the engine-level off switch is rule=None)
        assert rule.classify(0, 50) == "zero"

    def test_no_observations_never_decided(self):
        assert StoppingRule().classify(0, 0) is None

    def test_config_off_switch(self):
        assert stopping_rule_from(_config(ci_halfwidth=0.0)) is None
        rule = stopping_rule_from(
            _config(ci_level=0.9, ci_halfwidth=0.15, zero_threshold=0.2)
        )
        assert rule is not None
        assert rule.level == 0.9
        assert rule.halfwidth == 0.15
        assert rule.zero_threshold == 0.2

    def test_config_validation(self):
        with pytest.raises(CampaignError):
            _config(ci_level=1.0)
        with pytest.raises(CampaignError):
            _config(ci_halfwidth=1.0)
        with pytest.raises(CampaignError):
            _config(min_batch=0)
        with pytest.raises(CampaignError):
            _config(max_runs=0)


# ======================================================================
# Sampler mechanics on synthetic tasks (no simulator).
# ======================================================================
def _synthetic_sampler(outcomes, rule, min_batch=4, **config_kwargs):
    """Sampler over len(outcomes) tasks in two equal strata.

    *outcomes* maps task index -> bool (success); counts_of folds the
    executed booleans into one monitored proportion per stratum.
    """
    n = len(outcomes)
    half = n // 2
    strata = [
        AdaptiveStratum("first", tuple(range(half))),
        AdaptiveStratum("second", tuple(range(half, n))),
    ]

    def counts_of(stratum, executed):
        real = [r for r in executed if r is not None]
        return {"p": (sum(1 for r in real if r), len(real))}

    executor = CampaignExecutor(_config(**config_kwargs), campaign="unit")
    sampler = AdaptiveSampler(
        executor, strata, counts_of, rule=rule, min_batch=min_batch
    )
    results = sampler.run(lambda i: outcomes[i], n, "fp")
    return sampler, results


class TestSamplerMechanics:
    def test_early_stop_leaves_skipped_slots(self):
        # first stratum: all failures -> zero-certified after 8;
        # second: all successes -> saturated after 5 (min_batch rounds
        # of 4 -> stops at 8 too)
        outcomes = [False] * 16 + [True] * 16
        sampler, results = _synthetic_sampler(outcomes, StoppingRule())
        assert results[:8] == [False] * 8
        assert results[8:16] == [SKIPPED] * 8
        assert results[16:24] == [True] * 8
        assert results[24:] == [SKIPPED] * 8
        telemetry = sampler.telemetry
        assert telemetry.adaptive
        assert telemetry.strata == 2
        assert telemetry.strata_early == 2
        assert telemetry.runs_saved == 16
        assert telemetry.executed_runs == 16
        assert telemetry.total_runs == 32
        assert telemetry.stop_reasons == {"zero": 1, "saturated": 1}
        assert "adaptive runs_saved=16" in telemetry.render()

    def test_reports_in_stratum_order(self):
        outcomes = [False] * 16 + [True] * 16
        sampler, _ = _synthetic_sampler(outcomes, StoppingRule())
        assert [r.label for r in sampler.reports] == ["first", "second"]
        first, second = sampler.reports
        assert (first.stop_reason, first.spent, first.saved) == ("zero", 8, 8)
        assert second.stop_reason == "saturated"
        assert first.decisions == {"p": "zero"}
        assert first.counts == {"p": (0, 8)}

    def test_undecided_stratum_exhausts_budget(self):
        # alternate hits: p = 0.5, needs n ~ 24 for half-width 0.2
        outcomes = [i % 2 == 0 for i in range(16)] * 2
        sampler, results = _synthetic_sampler(outcomes, StoppingRule())
        assert SKIPPED not in results
        assert sampler.telemetry.runs_saved == 0
        assert sampler.telemetry.stop_reasons == {"budget": 2}
        assert all(r.stop_reason == "budget" for r in sampler.reports)

    def test_rule_none_runs_full_budget(self):
        outcomes = [False] * 32  # would zero-certify instantly
        sampler, results = _synthetic_sampler(outcomes, rule=None)
        assert results == [False] * 32
        assert sampler.telemetry.runs_saved == 0
        assert sampler.telemetry.stop_reasons == {"budget": 2}

    def test_batch_indices_validated(self):
        executor = CampaignExecutor(_config(), campaign="unit")
        with pytest.raises(CampaignError):
            executor.run_tasks(lambda i: i, 4, "fp", indices=[0, 7])

    def test_empty_stratum_rejected(self):
        with pytest.raises(CampaignError):
            AdaptiveStratum("empty", ())

    def test_report_roundtrip(self):
        outcomes = [False] * 16 + [True] * 16
        sampler, _ = _synthetic_sampler(outcomes, StoppingRule())
        data = stratum_reports_to_dict(sampler.reports)
        assert data["budget"] == 32
        assert data["spent"] == 16
        assert data["saved"] == 16
        assert stratum_reports_from_dict(data) == sampler.reports


# ======================================================================
# A/B determinism: stopping disabled == fixed-n, bit for bit.
# ======================================================================
@pytest.mark.slow
class TestAdaptiveDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permeability_disabled_stopping_matches_fixed_n(
        self, two_cases, jobs
    ):
        fixed = PermeabilityCampaign(
            factory, two_cases, runs_per_input=8, seed=7,
            config=_config(jobs=jobs),
        ).run()
        adaptive = PermeabilityCampaign(
            factory, two_cases, runs_per_input=8, seed=7,
            config=_config(jobs=jobs, adaptive=True, ci_halfwidth=0.0),
        ).run()
        assert canonical_digest(
            permeability_to_dict(adaptive)
        ) == canonical_digest(permeability_to_dict(fixed))

    def test_detection_disabled_stopping_matches_fixed_n(self, two_cases):
        specs = list(EA_BY_NAME.values())

        def run(config):
            return DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=6, targets=["ADC", "PACNT"], seed=7,
                config=config,
            ).run()

        fixed = run(_config())
        adaptive = run(_config(adaptive=True, ci_halfwidth=0.0))
        assert canonical_digest(
            detection_to_dict(adaptive)
        ) == canonical_digest(detection_to_dict(fixed))

    def test_adaptive_serial_parallel_identical(self, two_cases):
        def run(jobs):
            campaign = PermeabilityCampaign(
                factory, two_cases, runs_per_input=8, seed=7,
                config=_config(jobs=jobs, adaptive=True, min_batch=2),
            )
            return campaign.run(), campaign.stratum_reports

        serial, serial_reports = run(1)
        parallel, parallel_reports = run(2)
        assert serial.values == parallel.values
        assert serial.direct_counts == parallel.direct_counts
        assert serial_reports == parallel_reports


# ======================================================================
# Early stopping on the real target: spend less, conclude the same.
# ======================================================================
@pytest.mark.slow
class TestAdaptiveSavings:
    def test_saves_runs_and_preserves_shape(self, two_cases):
        fixed = PermeabilityCampaign(
            factory, two_cases, runs_per_input=16, seed=7,
        ).run()
        campaign = PermeabilityCampaign(
            factory, two_cases, runs_per_input=16, seed=7,
            config=_config(adaptive=True),
        )
        adaptive = campaign.run()

        telemetry = campaign.telemetry
        assert telemetry.adaptive
        assert telemetry.runs_saved > 0
        assert telemetry.strata_early > 0
        assert telemetry.executed_runs < sum(
            r.budget for r in campaign.stratum_reports
        )
        # every fixed-n architectural zero stays an exact zero
        fixed_zeros = {k for k, v in fixed.values.items() if v == 0.0}
        adaptive_zeros = {k for k, v in adaptive.values.items() if v == 0.0}
        assert fixed_zeros <= adaptive_zeros
        # every fixed-n pass-through pair stays in the high class
        for key, value in fixed.values.items():
            if value >= 0.7:
                assert adaptive.values[key] >= 0.5

    def test_max_runs_caps_budget(self, two_cases):
        campaign = PermeabilityCampaign(
            factory, two_cases, runs_per_input=16, seed=7,
            config=_config(adaptive=True, max_runs=8),
        )
        campaign.run()
        assert all(r.budget == 8 for r in campaign.stratum_reports)


# ======================================================================
# Crash/resume and integrity interplay.
# ======================================================================
@pytest.mark.slow
class TestAdaptiveResume:
    def test_kill_resume_matches_uninterrupted(
        self, monkeypatch, tmp_path, two_cases
    ):
        """Kill a pool worker mid-stratum; the respawned pool finishes
        the campaign and its estimates, spend accounting and stop
        decisions match a clean serial adaptive run."""

        def campaign(config):
            return PermeabilityCampaign(
                factory, two_cases, runs_per_input=8, seed=7,
                config=config,
            )

        clean_campaign = campaign(_config(adaptive=True))
        clean = clean_campaign.run()

        monkeypatch.setenv("REPRO_CHAOS_KILL_INDEX", "5")
        path = str(tmp_path / "perm.json")
        crashed_campaign = campaign(_config(
            adaptive=True, jobs=2, retries=2, pool_watchdog_s=2.0,
            checkpoint=CheckpointPolicy(path=path, every=1),
        ))
        crashed = crashed_campaign.run()
        assert crashed_campaign.telemetry.pool_respawns >= 1
        assert crashed.values == clean.values
        assert crashed_campaign.stratum_reports == (
            clean_campaign.stratum_reports
        )

        # a resume of the finished campaign re-executes nothing and
        # reaches the identical estimates and decisions
        monkeypatch.delenv("REPRO_CHAOS_KILL_INDEX")
        resumed_campaign = campaign(_config(
            adaptive=True, checkpoint=CheckpointPolicy(path=path),
        ))
        resumed = resumed_campaign.run()
        assert resumed.values == clean.values
        assert resumed_campaign.telemetry.executed_runs == 0
        assert resumed_campaign.stratum_reports == (
            clean_campaign.stratum_reports
        )

    def test_truncated_checkpoint_resume_strict_audit_clean(
        self, tmp_path, two_cases
    ):
        """Drop half the checkpoint mid-stratum and resume under the
        strict integrity policy: the surviving digest-verified records
        are trusted, the tail re-executes, and the outcome matches."""
        import json

        path = str(tmp_path / "perm.json")
        full_campaign = PermeabilityCampaign(
            factory, two_cases, runs_per_input=8, seed=7,
            config=_config(
                adaptive=True, checkpoint=CheckpointPolicy(path=path, every=1),
            ),
        )
        full = full_campaign.run()

        with open(path) as handle:
            payload = json.load(handle)
        kept = {
            k: v for k, v in payload["results"].items() if int(k) % 2 == 0
        }
        payload["results"] = kept
        payload["digests"] = {
            k: v for k, v in payload.get("digests", {}).items() if k in kept
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

        resumed_campaign = PermeabilityCampaign(
            factory, two_cases, runs_per_input=8, seed=7,
            config=_config(
                adaptive=True, checkpoint=CheckpointPolicy(path=path, every=1),
                integrity=IntegrityPolicy(policy="strict", audit_fraction=0.25),
            ),
        )
        resumed = resumed_campaign.run()
        assert resumed.values == full.values
        assert resumed_campaign.telemetry.executed_runs > 0
        assert resumed_campaign.integrity_violations == []
        assert resumed_campaign.stratum_reports == (
            full_campaign.stratum_reports
        )
