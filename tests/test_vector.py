"""The vectorized batch core: bit-identical to the scalar path.

Two layers of A/B coverage: :class:`~repro.fi.vector.BatchRunner`
directly against the campaigns' scalar ``_one_run`` (fast, surgical —
including forced tick-0 dispatch divergence), and whole campaigns with
``batch_width`` on vs off (serial in the default suite, the process
backend under the ``slow`` marker; adaptive batched campaigns on both).
"""

import random
from collections import Counter

import pytest

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
    RecoveryCampaign,
)
from repro.fi import counters
from repro.fi.executor import AdaptivePolicy, CampaignConfig, VectorPolicy
from repro.fi.memory import MemoryMap
from repro.fi.vector import (
    BatchRunner,
    MemoryFlipPlan,
    wrap_runner,
)
from repro.edm.catalogue import EA_BY_NAME
from repro.target.simulation import ArrestmentSimulator
from repro.target.vectorize import ArrestmentVectorKernel
from repro.target.testcases import standard_test_cases
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases


def tank_factory(tc):
    return WaterTankSimulator(tc, mission_ticks=300)


def arrestment_factory(tc):
    return ArrestmentSimulator(tc, timeout_s=6.0)


@pytest.fixture(scope="module")
def tank_cases():
    return standard_tank_cases()[:2]


@pytest.fixture(scope="module")
def arrestment_cases():
    cases = standard_test_cases()
    return [cases[4], cases[20]]


def batch_vs_scalar(kind, campaign, tasks, width=16, **kwargs):
    """Outcomes of a BatchRunner over *tasks* next to the scalar
    reference, plus the vector-stats delta of the batched pass."""

    def scalar(index):
        return campaign._one_run(*tasks[index])

    rows = [campaign._row(task) for task in tasks]
    runner = BatchRunner(
        kind, rows, scalar, width, campaign.factory, **kwargs
    )
    assert runner._kernel is not None, "kernel refused the target"
    before = counters.snapshot()
    batched = [runner(i) for i in range(len(tasks))]
    delta = Counter(counters.delta(before, counters.snapshot()))
    reference = [scalar(i) for i in range(len(tasks))]
    return batched, reference, delta


def memory_tasks(campaign, cases, count, seed):
    """Randomized ``(location, case, bit, phase)`` tuples mixing both
    test cases, the way the memory/recovery campaigns pre-draw them."""
    probe = campaign.factory(cases[0])
    locations = MemoryMap(probe.system).locations()
    rng = random.Random(seed)
    tasks = []
    for index in range(count):
        location = locations[rng.randrange(len(locations))]
        tasks.append((
            location,
            cases[index % len(cases)],
            rng.randrange(location.valid_bits),
            rng.randrange(campaign.period_ticks),
        ))
    return tasks


class TestWatertankKernel:
    def test_permeability_rows_match_scalar(self, tank_cases):
        """Rows of every module share one batch, each flipping and
        recording its own module; the TIMER row's flipped slot number
        diverges from the golden schedule and retires alone."""
        campaign = PermeabilityCampaign(
            tank_factory, tank_cases, runs_per_input=1, seed=3
        )
        tasks = [
            ("LEVEL_S", "LVL_ADC", tank_cases[0], 40, 2),
            ("LEVEL_S", "LVL_ADC", tank_cases[1], 120, 9),
            ("LEVEL_S", "LVL_ADC", tank_cases[0], 299, 0),
            ("TIMER", "tick_nbr", tank_cases[1], 150, 2),
            ("CTRL", "level_f", tank_cases[0], 7, 14),
            ("CTRL", "inflow_rate", tank_cases[1], 55, 3),
            ("CTRL", "ticks", tank_cases[0], 90, 1),
            ("FLOW_S", "FLOW_CNT", tank_cases[1], 33, 7),
            ("FLOW_S", "FLOW_CNT", tank_cases[0], 34, 0),
        ]
        batched, reference, delta = batch_vs_scalar(
            "permeability", campaign, tasks, goldens=campaign.goldens
        )
        assert batched == reference
        assert delta["vec_groups"] == 1  # one batch across modules
        assert delta["vec_retired_rows"] == 1  # the TIMER row retired
        assert delta["vec_rows"] == len(tasks) - 1  # the rest answered by it

    def test_timer_divergence_retires_to_scalar(self, tank_cases):
        """A tick-0 flip of the dispatch slot leaves the golden
        schedule immediately: the rows retire and are recomputed by
        the scalar path, so outcomes still match exactly."""
        campaign = PermeabilityCampaign(
            tank_factory, tank_cases, runs_per_input=1, seed=3
        )
        tasks = [
            ("TIMER", "tick_nbr", tank_cases[0], 0, 0),
            ("TIMER", "tick_nbr", tank_cases[0], 0, 1),
            ("TIMER", "tick_nbr", tank_cases[1], 150, 2),
        ]
        batched, reference, delta = batch_vs_scalar(
            "permeability", campaign, tasks, goldens=campaign.goldens
        )
        assert batched == reference
        # all rows dispatch-diverged
        assert delta["vec_retired_rows"] == len(tasks)
        assert delta["vec_rows"] == 0

    def test_detection_rows_match_scalar(self, tank_cases):
        specs = tank_assertions()
        campaign = DetectionCampaign(
            tank_factory, tank_cases, specs, runs_per_signal=1, seed=3
        )
        tasks = [
            ("LVL_ADC", tank_cases[0], 0, 9),
            ("LVL_ADC", tank_cases[1], 60, 5),
            ("FLOW_CNT", tank_cases[0], 120, 7),
            ("FLOW_CNT", tank_cases[1], 299, 0),
        ]
        batched, reference, delta = batch_vs_scalar(
            "detection", campaign, tasks, specs=specs
        )
        assert batched == reference
        assert delta["vec_rows"] == len(tasks)

    def test_memory_rows_match_scalar(self, tank_cases):
        specs = tank_assertions()
        campaign = MemoryCampaign(
            tank_factory, tank_cases, specs, seed=5
        )
        tasks = memory_tasks(campaign, tank_cases, 12, seed=5)
        batched, reference, delta = batch_vs_scalar(
            "memory", campaign, tasks, specs=specs,
        )
        assert batched == reference
        assert delta["vec_rows"] > 0  # some rows really ran batched

    def test_memory_cross_case_group(self, tank_cases):
        """Two cases sharing one (location, bit, phase) land in the
        same group: per-row golden indirection in action."""
        specs = tank_assertions()
        campaign = MemoryCampaign(
            tank_factory, tank_cases, specs, seed=5
        )
        probe = campaign.factory(tank_cases[0])
        location = MemoryMap(probe.system).locations()[0]
        tasks = [
            (location, tank_cases[0], 0, 3),
            (location, tank_cases[1], 0, 3),
        ]
        batched, reference, delta = batch_vs_scalar(
            "memory", campaign, tasks, specs=specs,
        )
        assert batched == reference
        assert delta["vec_groups"] == 1  # one group for both cases
        assert delta["vec_cross_case_groups"] == 1  # counted as cross-case
        # one group's slots at width 16
        assert delta["vec_group_capacity"] == 16

    def test_recovery_rows_match_scalar(self, tank_cases):
        specs = tank_assertions()
        campaign = RecoveryCampaign(
            tank_factory, tank_cases, specs, seed=5
        )
        tasks = memory_tasks(campaign, tank_cases, 10, seed=7)
        batched, reference, delta = batch_vs_scalar(
            "recovery", campaign, tasks, specs=specs,
            policies=campaign.policies,
        )
        assert batched == reference
        assert delta["vec_rows"] > 0


class TestArrestmentKernel:
    def test_variant_with_other_modules_stays_scalar(self, arrestment_cases):
        """A system with a module the kernel does not transcribe (the
        telemetry variant's REPORT) is never batched."""
        from repro.target.variants import telemetry_simulator

        case = arrestment_cases[0]
        assert ArrestmentVectorKernel.supports(arrestment_factory(case))
        assert not ArrestmentVectorKernel.supports(telemetry_simulator(case))

    def test_permeability_rows_match_scalar(self, arrestment_cases):
        """One batch across modules; the CLOCK row's flipped slot
        number diverges from the golden schedule and retires alone."""
        campaign = PermeabilityCampaign(
            arrestment_factory, arrestment_cases, runs_per_input=1, seed=3
        )
        tasks = [
            ("DIST_S", "PACNT", arrestment_cases[0], 500, 3),
            ("DIST_S", "TIC1", arrestment_cases[1], 1200, 11),
            ("DIST_S", "TCNT", arrestment_cases[0], 40, 0),
            ("CLOCK", "ms_slot_nbr", arrestment_cases[1], 800, 1),
            ("CALC", "pulscnt", arrestment_cases[1], 2500, 8),
            ("CALC", "i", arrestment_cases[0], 700, 1),
            ("CALC", "stopped", arrestment_cases[1], 900, 0),
            ("V_REG", "SetValue", arrestment_cases[0], 3000, 13),
            ("V_REG", "IsValue", arrestment_cases[1], 100, 6),
        ]
        batched, reference, delta = batch_vs_scalar(
            "permeability", campaign, tasks, goldens=campaign.goldens
        )
        assert batched == reference
        assert delta["vec_groups"] == 1  # one batch across modules
        assert delta["vec_retired_rows"] == 1  # the CLOCK row retired
        assert delta["vec_rows"] == len(tasks) - 1  # the rest answered by it

    def test_clock_divergence_retires_to_scalar(self, arrestment_cases):
        campaign = PermeabilityCampaign(
            arrestment_factory, arrestment_cases, runs_per_input=1, seed=3
        )
        tasks = [
            ("CLOCK", "ms_slot_nbr", arrestment_cases[0], 0, 0),
            ("CLOCK", "ms_slot_nbr", arrestment_cases[1], 0, 4),
        ]
        batched, reference, delta = batch_vs_scalar(
            "permeability", campaign, tasks, goldens=campaign.goldens
        )
        assert batched == reference
        assert delta["vec_retired_rows"] == len(tasks)

    def test_detection_rows_match_scalar(self, arrestment_cases):
        specs = list(EA_BY_NAME.values())
        campaign = DetectionCampaign(
            arrestment_factory, arrestment_cases, specs,
            runs_per_signal=1, seed=3,
        )
        tasks = [
            ("PACNT", arrestment_cases[0], 0, 2),
            ("ADC", arrestment_cases[1], 800, 9),
            ("TCNT", arrestment_cases[0], 3000, 15),
            ("TIC1", arrestment_cases[1], 5500, 1),
        ]
        batched, reference, delta = batch_vs_scalar(
            "detection", campaign, tasks, specs=specs
        )
        assert batched == reference
        assert delta["vec_rows"] == len(tasks)

    def test_memory_rows_match_scalar(self, arrestment_cases):
        specs = list(EA_BY_NAME.values())
        campaign = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        tasks = memory_tasks(campaign, arrestment_cases, 10, seed=5)
        batched, reference, delta = batch_vs_scalar(
            "memory", campaign, tasks, specs=specs,
        )
        assert batched == reference
        assert delta["vec_rows"] > 0

    def test_memory_dispatch_chain_rows_stay_batched(self, arrestment_cases):
        """Memory flips on the dispatch chain — CLOCK's slot-successor
        cells and the ``ms_slot_nbr`` backing store — corrupt the
        schedule itself.  Per-row masked dispatch follows each row's
        own (possibly corrupted) slot, so these rows stay in the batch
        (0 retired) and still match the scalar path bit for bit."""
        specs = list(EA_BY_NAME.values())
        campaign = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        probe = campaign.factory(arrestment_cases[0])
        chain = [
            loc for loc in MemoryMap(probe.system).locations()
            if loc.module == "CLOCK"
            and (loc.cell.startswith("slot_succ") or loc.cell == "ms_slot_nbr")
        ]
        assert chain, "no dispatch-chain locations on the arrestment map"
        rng = random.Random(13)
        tasks = []
        for index in range(8):
            location = chain[index % len(chain)]
            tasks.append((
                location,
                arrestment_cases[index % 2],
                rng.randrange(location.valid_bits),
                rng.randrange(campaign.period_ticks),
            ))
        batched, reference, delta = batch_vs_scalar(
            "memory", campaign, tasks, specs=specs,
        )
        assert batched == reference
        # no dispatch-divergence retirements: every row answered by the
        # batch
        assert delta["vec_retired_rows"] == 0
        assert delta["vec_rows"] == len(tasks)

    def test_left_rows_do_not_hold_masked_dispatch(
        self, arrestment_cases, monkeypatch
    ):
        """Dispatch-chain rows on the shorter engagement leave the loop
        on a corrupted slot while rows of the longer engagement keep
        running: only rows still in the loop decide the dispatch, so
        masked invocations stop once the last diverged row has left,
        and outcomes still match the scalar path bit for bit."""
        specs = list(EA_BY_NAME.values())
        campaign = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        # arrestment_cases[1] stops well before arrestment_cases[0]
        short, long = arrestment_cases[1], arrestment_cases[0]
        locations = MemoryMap(campaign.factory(short).system).locations()
        chain = [
            loc for loc in locations
            if loc.module == "CLOCK"
            and (loc.cell.startswith("slot_succ") or loc.cell == "ms_slot_nbr")
        ]
        steady = [loc for loc in locations if loc.module == "V_REG"]
        tasks = [(loc, short, 0, 7) for loc in chain[::4]]
        tasks += [(loc, long, 0, 7) for loc in steady[:3]]
        chain_rows = len(tasks) - 3

        ticks = []
        left = []
        masked_ticks = []
        pre_tick = MemoryFlipPlan.pre_tick
        leave = MemoryFlipPlan.leave
        invoke = ArrestmentVectorKernel._invoke

        def spy_pre_tick(self, tick):
            ticks.append(tick)
            return pre_tick(self, tick)

        def spy_leave(self, rows):
            left.append((ticks[-1], rows.copy()))
            return leave(self, rows)

        def spy_invoke(self, *args, mask=None):
            if mask is not None:
                masked_ticks.append(ticks[-1])
            return invoke(self, *args, mask=mask)

        monkeypatch.setattr(MemoryFlipPlan, "pre_tick", spy_pre_tick)
        monkeypatch.setattr(MemoryFlipPlan, "leave", spy_leave)
        monkeypatch.setattr(ArrestmentVectorKernel, "_invoke", spy_invoke)
        batched, reference, delta = batch_vs_scalar(
            "memory", campaign, tasks, specs=specs,
        )
        assert batched == reference
        assert delta["vec_groups"] == 1 and delta["vec_rows"] == len(tasks)
        # every chain row left the loop; the last of them at chain_left
        assert all(
            any(rows[r] for _, rows in left) for r in range(chain_rows)
        )
        chain_left = max(
            tick for tick, rows in left if rows[:chain_rows].any()
        )
        # the steady rows outlive the chain rows ...
        assert ticks[-1] > chain_left
        # ... and the chain rows diverged while they ran
        assert masked_ticks
        assert max(masked_ticks) <= chain_left

    def test_recovery_rows_match_scalar(self, arrestment_cases):
        specs = list(EA_BY_NAME.values())
        campaign = RecoveryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        tasks = memory_tasks(campaign, arrestment_cases, 8, seed=9)
        batched, reference, delta = batch_vs_scalar(
            "recovery", campaign, tasks, specs=specs,
            policies=campaign.policies,
        )
        assert batched == reference
        assert delta["vec_rows"] > 0


class TestBatchWork:
    """The batches of the test-scale reproduction (seed 2002) do a
    pinned amount of work: a faster tick may change the time per tick,
    never which rows a batch holds, how many row-ticks it simulates or
    which rows retire — even where the outcomes would still match."""

    #: campaign -> (groups, rows answered, batched row-ticks, retired)
    PINNED = {
        "permeability": (1, 72, 437373, 6),
        "detection": (1, 40, 218680, 0),
        "memory": (1, 13, 54006, 0),
    }

    @pytest.fixture(scope="class")
    def counts(self):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(scale="test", seed=2002)
        ctx.permeability_estimate()
        ctx.detection_result()
        ctx.memory_result()
        return {
            campaign: telemetry.counts
            for campaign, telemetry in ctx.telemetries.items()
        }

    @pytest.mark.parametrize("campaign", sorted(PINNED))
    def test_work_is_pinned(self, counts, campaign):
        c = counts[campaign]
        assert (
            c["vec_groups"], c["vec_rows"], c["vec_batched_ticks"],
            c["vec_retired_rows"],
        ) == self.PINNED[campaign]
        assert c["vec_scalar_fallbacks"] == 0


#: the two sides of the campaign A/B tests: the scalar path is the
#: oracle, and it has to be asked for now that batching is the default
SCALAR = CampaignConfig(vector=VectorPolicy(batch_width=0))
BATCHED = CampaignConfig(vector=VectorPolicy(batch_width=32))


class TestCampaignAB:
    """Whole campaigns: batch_width on vs off is invisible in results."""

    def test_tank_permeability_identical(self, tank_cases):
        def run(config):
            estimate = PermeabilityCampaign(
                tank_factory, tank_cases, runs_per_input=4, seed=11,
                config=config,
            ).run()
            return estimate.direct_counts, estimate.active_runs

        assert run(SCALAR) == run(BATCHED)

    def test_tank_detection_identical(self, tank_cases):
        def run(config):
            result = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=8, seed=11, config=config,
            ).run()
            return (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            )

        assert run(SCALAR) == run(BATCHED)

    def test_tank_memory_identical(self, tank_cases):
        def run(config):
            result = MemoryCampaign(
                tank_factory, tank_cases, tank_assertions(),
                seed=11, config=config,
            ).run()
            return [
                (r.region, r.location_label, r.fired, r.failed)
                for r in result.records
            ]

        assert run(SCALAR) == run(BATCHED)

    def test_tank_recovery_identical(self, tank_cases):
        def run(config):
            result = RecoveryCampaign(
                tank_factory, tank_cases, tank_assertions(),
                seed=11, config=config,
            ).run()
            return [
                (
                    o.region, o.location_label, o.detected,
                    o.baseline_failed, o.recovered_failed,
                    o.recovery_actions,
                )
                for o in result.outcomes
            ]

        assert run(SCALAR) == run(BATCHED)

    def test_telemetry_counts_batched_rows(self, tank_cases):
        campaign = DetectionCampaign(
            tank_factory, tank_cases, tank_assertions(),
            runs_per_signal=8, seed=11,
            config=BATCHED,
        )
        campaign.run()
        telemetry = campaign.telemetry
        assert telemetry.counts["vec_rows"] > 0
        assert telemetry.counts["vec_groups"] > 0
        assert telemetry.counts["vec_batched_ticks"] > 0
        assert "vector" in telemetry.render()

    def test_telemetry_occupancy_and_cross_case(self, tank_cases):
        """Group occupancy (rows over offered slots) and cross-case
        group counts reach the telemetry line and run-event log."""
        campaign = MemoryCampaign(
            tank_factory, tank_cases, tank_assertions(),
            seed=11, config=BATCHED,
        )
        campaign.run()
        telemetry = campaign.telemetry
        counts = telemetry.counts
        assert counts["vec_group_capacity"] >= counts["vec_rows"] > 0
        assert 0.0 < telemetry.vec_occupancy <= 1.0
        # a memory sweep pairs every location with every case: the
        # planner must have packed cross-case groups
        assert counts["vec_cross_case_groups"] > 0
        rendered = telemetry.render()
        assert "occupancy=" in rendered
        assert "cross-case=" in rendered

    def test_run_event_carries_vector_fields(self, tank_cases, tmp_path):
        import json

        log = tmp_path / "events.jsonl"
        MemoryCampaign(
            tank_factory, tank_cases, tank_assertions(), seed=11,
            config=CampaignConfig(
                event_log_path=str(log),
                vector=VectorPolicy(batch_width=32),
            ),
        ).run()
        events = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        run_end = [e for e in events if e["event"] == "run_end"][-1]
        assert run_end["vec_rows"] > 0
        assert run_end["vec_cross_case_groups"] > 0
        assert 0.0 < run_end["vec_occupancy"] <= 1.0

    def test_default_config_batches(self, tank_cases):
        def counts(config):
            campaign = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=2, seed=11, config=config,
            )
            campaign.run()
            return campaign.telemetry.counts

        batched = counts(CampaignConfig())
        assert batched["vec_groups"] > 0
        assert batched["vec_rows"] > 0
        scalar = counts(SCALAR)
        assert scalar["vec_rows"] == 0
        assert scalar["vec_groups"] == 0

    def test_wrap_runner_passthrough_when_off(self):
        def runner(index):
            return index

        assert wrap_runner(
            "detection", runner, [],
            CampaignConfig(vector=VectorPolicy(batch_width=0)), tank_factory,
        ) is runner
        assert wrap_runner(
            "detection", runner, [], CampaignConfig(), tank_factory
        ) is runner


class TestAdaptiveBatched:
    """Adaptive sampling stacks on the batched core: results match the
    adaptive scalar run, and every round's vector counters reach the
    campaign's telemetry."""

    @staticmethod
    def run(kind, tank_cases, jobs, batch_width, log=None):
        config = CampaignConfig(
            backend="process" if jobs > 1 else "serial",
            jobs=jobs,
            event_log_path=log,
            sampling=AdaptivePolicy(enabled=True, min_batch=2),
            vector=VectorPolicy(batch_width=batch_width),
        )
        if kind == "permeability":
            campaign = PermeabilityCampaign(
                tank_factory, tank_cases, runs_per_input=4, seed=11,
                config=config,
            )
            estimate = campaign.run()
            outcome = (estimate.direct_counts, estimate.active_runs)
        else:
            campaign = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=8, seed=11, config=config,
            )
            result = campaign.run()
            outcome = (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            )
        return outcome, campaign.telemetry

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["permeability", "detection"])
    def test_identical_and_counted(self, tank_cases, tmp_path, kind, jobs):
        import json

        scalar, _ = self.run(kind, tank_cases, jobs, 0)
        log = tmp_path / "events.jsonl"
        batched, telemetry = self.run(kind, tank_cases, jobs, 32, str(log))
        assert batched == scalar
        run_ends = [
            event
            for event in map(json.loads, log.read_text().splitlines())
            if event["event"] == "run_end"
        ]
        assert len(run_ends) >= 2  # several adaptive rounds
        rows = telemetry.counts["vec_rows"]
        assert rows == sum(event["vec_rows"] for event in run_ends) > 0
        assert f" | vector {rows} rows in " in telemetry.render()
        if jobs > 1:
            # later rounds' pools fork with the outcomes the first
            # round's worker shipped home: each group is computed once
            _, serial = self.run(kind, tank_cases, 1, 32)
            for name in ("vec_groups", "vec_batched_ticks",
                         "vec_retired_rows"):
                assert telemetry.counts[name] == serial.counts[name]


class TestDetectionTracks:
    """Detection rows never retire, so a batched detection campaign
    records checkpoint tracks only for the tasks its batch leaves to
    the scalar path."""

    @staticmethod
    def run(**options):
        from repro.experiments.context import ExperimentContext
        from repro.fi.snapshot import checkpoint_cache

        checkpoint_cache.clear()
        ctx = ExperimentContext(scale="test", **options)
        result = ctx.detection_result()
        outcome = (
            result.n_injected, result.n_err, result.detections,
            result.run_records, result.run_latencies,
        )
        return outcome, ctx.telemetries["detection"].counts

    def test_batch_answered_tasks_record_no_tracks(self):
        scalar, scalar_counts = self.run(batch_width=0)
        batched, counts = self.run()
        assert batched == scalar
        assert counts["vec_rows"] > 0
        assert counts["ff_tracks_recorded"] == 0
        assert scalar_counts["ff_tracks_recorded"] > 0
        # audited rows run scalar, so their tracks are recorded again
        audited, audited_counts = self.run(audit_fraction=1.0)
        assert audited == scalar
        assert audited_counts["ff_tracks_recorded"] == (
            scalar_counts["ff_tracks_recorded"]
        )


@pytest.mark.slow
class TestCampaignABProcess:
    """The batched core composes with the process pool: groups are
    computed whole inside one worker and results stay bit-identical."""

    def test_arrestment_detection_identical(self, arrestment_cases):
        def run(batch_width):
            result = DetectionCampaign(
                arrestment_factory, arrestment_cases,
                list(EA_BY_NAME.values()),
                runs_per_signal=6, seed=11,
                config=CampaignConfig(
                    backend="process", jobs=2,
                    vector=VectorPolicy(batch_width=batch_width),
                ),
            ).run()
            return (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            )

        assert run(0) == run(16)

    def test_tank_permeability_identical(self, tank_cases):
        def run(batch_width):
            estimate = PermeabilityCampaign(
                tank_factory, tank_cases, runs_per_input=4, seed=11,
                config=CampaignConfig(
                    backend="process", jobs=2,
                    vector=VectorPolicy(batch_width=batch_width),
                ),
            ).run()
            return estimate.direct_counts, estimate.active_runs

        assert run(0) == run(16)

    def test_tank_memory_identical(self, tank_cases):
        def run(batch_width):
            result = MemoryCampaign(
                tank_factory, tank_cases, tank_assertions(), seed=11,
                config=CampaignConfig(
                    backend="process", jobs=2,
                    vector=VectorPolicy(batch_width=batch_width),
                ),
            ).run()
            return [
                (r.region, r.location_label, r.fired, r.failed)
                for r in result.records
            ]

        assert run(0) == run(16)

    def test_arrestment_recovery_identical(self, arrestment_cases):
        def run(batch_width):
            result = RecoveryCampaign(
                arrestment_factory, arrestment_cases,
                list(EA_BY_NAME.values()), seed=11,
                config=CampaignConfig(
                    backend="process", jobs=2,
                    vector=VectorPolicy(batch_width=batch_width),
                ),
            ).run()
            return [
                (
                    o.region, o.location_label, o.detected,
                    o.baseline_failed, o.recovered_failed,
                    o.recovery_actions,
                )
                for o in result.outcomes
            ]

        assert run(0) == run(16)
