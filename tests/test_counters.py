"""The counter registry (``repro.fi.counters``) is the only path from
a layer's increments to campaign telemetry.

* a counter group declared anywhere reaches ``telemetry.counts`` on the
  serial backend, the process backend and through the adaptive
  sampler, with no other edit;
* each increment is counted exactly once, whichever backend ran it,
  and a pool worker's increments reach the parent's registry;
* ``render()`` prints the same text for the same values, section by
  section;
* a run-event record the log fails to write is counted, not lost.
"""

import gc

import pytest

from repro.fi import (
    AdaptiveSampler,
    AdaptiveStratum,
    CampaignConfig,
    CampaignExecutor,
    CampaignTelemetry,
    CheckpointPolicy,
    DetectionCampaign,
    IntegrityPolicy,
    SqliteResultStore,
    StoppingRule,
)
from repro.fi import counters
from repro.fi.counters import Counters
from repro.fi.executor import VectorPolicy
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases


def tank_factory(tc):
    return WaterTankSimulator(tc, mission_ticks=300)


@pytest.fixture(scope="module")
def tank_cases():
    return standard_tank_cases()[:2]


@pytest.fixture
def probe():
    """A throwaway counter group, registered for this test only."""
    return Counters("probe_", "calls", "idle")


# ======================================================================
# The registry itself.
# ======================================================================
class TestRegistry:
    def test_snapshot_keys_are_prefixed_names(self, probe):
        probe.calls += 2
        values = counters.snapshot()
        assert values["probe_calls"] == 2
        assert values["probe_idle"] == 0
        # the layer declarations, under their telemetry spellings
        for key in (
            "ff_restores", "ff_ticks_skipped", "ff_tracks_recorded",
            "audits", "audit_mismatches", "audit_repairs",
            "vec_rows", "vec_group_capacity", "events_dropped",
        ):
            assert key in values

    def test_dropped_group_leaves_the_registry(self):
        probe = Counters("gone_", "calls")
        assert "gone_calls" in counters.snapshot()
        del probe
        gc.collect()
        assert "gone_calls" not in counters.snapshot()

    def test_delta_keeps_only_changes(self):
        before = {"a": 1, "b": 2}
        after = {"a": 1, "b": 5, "c": 4}
        assert counters.delta(before, after) == {"b": 3, "c": 4}

    def test_add_merges_key_by_key(self):
        into = {"a": 1}
        counters.add(into, {"a": 2, "b": 3})
        assert into == {"a": 3, "b": 3}

    def test_telemetry_holds_every_key(self, probe):
        telemetry = CampaignTelemetry("unit", "serial", 1)
        assert telemetry.counts == dict.fromkeys(counters.snapshot(), 0)


# ======================================================================
# The registry is the only path to telemetry.
# ======================================================================
class TestOnlyPath:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_increments_reach_telemetry(self, probe, jobs):
        def runner(index):
            probe.calls += 1
            return index

        executor = CampaignExecutor(CampaignConfig(jobs=jobs), "unit")
        assert executor.run_tasks(runner, 6, "fp") == list(range(6))
        telemetry = executor.telemetry
        assert telemetry.backend == ("process" if jobs > 1 else "serial")
        assert telemetry.counts["probe_calls"] == 6
        assert telemetry.counts["probe_idle"] == 0
        # pool workers count into their own copies, and the parent
        # credits their deltas to its own on arrival
        assert probe.calls == 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_adaptive_rounds_fold_every_counter(self, probe, jobs):
        def runner(index):
            probe.calls += 1
            return False

        strata = [
            AdaptiveStratum("first", tuple(range(16))),
            AdaptiveStratum("second", tuple(range(16, 32))),
        ]
        sampler = AdaptiveSampler(
            CampaignExecutor(CampaignConfig(jobs=jobs), "unit"),
            strata,
            lambda stratum, executed: {
                "p": (sum(1 for r in executed if r), len(executed))
            },
            rule=StoppingRule(),
            min_batch=4,
        )
        sampler.run(runner, 32, "fp")
        telemetry = sampler.telemetry
        # two strata zero-certified after two rounds of four runs each
        assert telemetry.executed_runs == 16
        assert telemetry.counts["probe_calls"] == 16


class TestExactlyOnce:
    def test_backends_count_the_same(self, tank_cases):
        """Fast-forward restores, audit replays and batch fallbacks
        counted in pool workers add up to the serial run's counts."""
        from repro.fi.snapshot import checkpoint_cache

        def run(jobs):
            checkpoint_cache.clear()  # both runs record their tracks
            campaign = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=4, seed=11,
                config=CampaignConfig(
                    jobs=jobs,
                    integrity=IntegrityPolicy(audit_fraction=1.0),
                    vector=VectorPolicy(batch_width=32),
                ),
            )
            result = campaign.run()
            return result.run_records, campaign.telemetry

        serial_records, serial = run(1)
        pool_records, pool = run(2)
        assert pool.backend == "process"
        assert pool_records == serial_records
        assert pool.counts == serial.counts
        counts = serial.counts
        assert counts["ff_restores"] > 0
        assert counts["ff_tracks_recorded"] > 0
        assert counts["audits"] > 0
        assert counts["vec_scalar_fallbacks"] > 0


# ======================================================================
# The telemetry line.
# ======================================================================
#: ``render()`` of :func:`_full_telemetry`, every section populated
FULL_RENDER = (
    "[permeability] 90/120 runs (30 resumed) in 4.50 s | 20.0 runs/s"
    " | backend=process jobs=2 util=80% | golden cache 57 hit / 3 miss"
    " (95%) | fast-forward 304508 ticks saved (75 restores, 34 resyncs,"
    " 3 tracks) | integrity audits=12 mismatches=2 repairs=2 drift=1"
    " ckpt-rejects=4 | store flushes=5+2 skipped, 90 records"
    " / 18432 B | vector 72 rows in 1 groups (437373 batched ticks,"
    " 6 retired, 12 scalar) occupancy=28% cross-case=1 | adaptive"
    " runs_saved=30 (4/13 strata early; budget=9 halfwidth=1 zero=3)"
    " | retries=2 failures=1 timeouts=1 respawns=1 degraded=serial"
)


def _full_telemetry(**counts):
    return CampaignTelemetry(
        campaign="permeability", backend="process", jobs=2,
        total_runs=120, executed_runs=90, resumed_runs=30,
        wall_s=4.5, busy_s=7.2, cache_hits=57, cache_misses=3,
        retries=2, failures=1, timeouts=1, pool_respawns=1, degraded=True,
        drift_events=1, checkpoint_rejects=4,
        store_flushes=5, store_flushes_skipped=2,
        store_records_written=90, store_bytes_written=18432,
        counts={
            "ff_restores": 75, "ff_resyncs": 34,
            "ff_ticks_skipped": 304508, "ff_tracks_recorded": 3,
            "audits": 12, "audit_mismatches": 2, "audit_repairs": 2,
            "vec_rows": 72, "vec_groups": 1, "vec_batched_ticks": 437373,
            "vec_retired_rows": 6, "vec_scalar_fallbacks": 12,
            "vec_cross_case_groups": 1, "vec_group_capacity": 256,
            **counts,
        },
        adaptive=True, strata=13, strata_early=4, runs_saved=30,
        stop_reasons={"zero": 3, "halfwidth": 1, "budget": 9},
    )


class TestRender:
    def test_every_section_pinned(self):
        assert _full_telemetry().render() == FULL_RENDER

    def test_dropped_events_shown_when_nonzero(self):
        assert _full_telemetry(events_dropped=0).render() == FULL_RENDER
        assert _full_telemetry(events_dropped=3).render() == (
            FULL_RENDER + " | events dropped=3"
        )

    def test_quiet_campaign_prints_no_layer_sections(self):
        text = CampaignTelemetry("unit", "serial", 1).render()
        assert text == (
            "[unit] 0/0 runs (0 resumed) in 0.00 s | 0.0 runs/s"
            " | backend=serial jobs=1 util=0% | golden cache 0 hit"
            " / 0 miss (0%)"
        )


# ======================================================================
# Dropped run-event records.
# ======================================================================
class TestDroppedEvents:
    def test_failing_sink_is_counted_not_fatal(
        self, tank_cases, tmp_path, monkeypatch
    ):
        def run(checkpoint):
            campaign = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=2, seed=11,
                config=CampaignConfig(checkpoint=checkpoint),
            )
            return campaign.run(), campaign.telemetry

        clean, clean_telemetry = run(CheckpointPolicy())
        assert clean_telemetry.counts["events_dropped"] == 0

        def log_event(self, record):
            raise OSError("event sink unavailable")

        monkeypatch.setattr(SqliteResultStore, "log_event", log_event)
        result, telemetry = run(
            CheckpointPolicy(path=str(tmp_path / "ckpt.db"))
        )
        assert result.run_records == clean.run_records
        assert result.detections == clean.detections
        assert telemetry.counts["events_dropped"] > 0
        assert " | events dropped=" in telemetry.render()
