"""Integration tests for the fault-injection campaign drivers.

Campaigns here run at deliberately tiny scale; the statistically
meaningful runs live in the benchmark harness.  What these tests pin
down is the *mechanics*: determinism, accounting, and the qualitative
signatures that must hold at any scale (e.g. TIC1/TCNT errors never
propagate).
"""

import pytest

from repro.errors import CampaignError
from repro.experiments.context import ExperimentContext
from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
    RecoveryCampaign,
)
from repro.fi.executor import (
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
)
from repro.fi.memory import MemoryMap, Region
from repro.fi.store import SqliteResultStore
from repro.edm.catalogue import EA_BY_NAME
from repro.target.simulation import ArrestmentSimulator
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


class TestPermeabilityCampaign:
    def test_config_validation(self, two_cases):
        with pytest.raises(CampaignError):
            PermeabilityCampaign(factory, two_cases, runs_per_input=0)
        with pytest.raises(CampaignError):
            PermeabilityCampaign(factory, [])

    def test_estimates_cover_all_pairs(self, ctx):
        estimate = ctx.permeability_estimate()
        assert len(estimate.values) == 25
        for value in estimate.values.values():
            assert 0.0 <= value <= 1.0

    def test_deterministic_given_seed(self, two_cases):
        runs = [
            PermeabilityCampaign(
                factory, two_cases, runs_per_input=3, seed=11
            ).run().values
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_capture_inputs_never_propagate(self, ctx):
        """The debounced TIC1/TCNT path: all six pairs exactly zero."""
        estimate = ctx.permeability_estimate()
        for port in ("TIC1", "TCNT"):
            for out in ("pulscnt", "slow_speed", "stopped"):
                assert estimate.values[("DIST_S", port, out)] == 0.0

    def test_pacnt_to_pulscnt_is_high(self, ctx):
        assert ctx.permeability_estimate().values[
            ("DIST_S", "PACNT", "pulscnt")
        ] >= 0.8

    def test_clock_self_permeability_total(self, ctx):
        estimate = ctx.permeability_estimate()
        assert estimate.values[
            ("CLOCK", "ms_slot_nbr", "ms_slot_nbr")
        ] >= 0.8
        assert estimate.values[("CLOCK", "ms_slot_nbr", "mscnt")] == 0.0

    def test_unknown_pair_value_rejected(self, ctx):
        with pytest.raises(CampaignError):
            ctx.permeability_estimate().value("CALC", "nope", "i")


class TestDetectionCampaign:
    def test_config_validation(self, two_cases):
        with pytest.raises(CampaignError):
            DetectionCampaign(
                factory, two_cases, list(EA_BY_NAME.values()),
                runs_per_signal=0,
            )

    def test_targets_default_to_system_inputs(self, ctx):
        result = ctx.detection_result()
        assert set(result.targets) == {"PACNT", "TIC1", "TCNT", "ADC"}

    def test_n_err_at_most_injected(self, ctx):
        result = ctx.detection_result()
        for target in result.targets:
            assert 0 <= result.n_err[target] <= result.n_injected[target]

    def test_coverage_bounded(self, ctx):
        result = ctx.detection_result()
        for target in result.targets:
            for ea in result.ea_names:
                assert 0.0 <= result.coverage(target, ea) <= 1.0
            assert result.total_coverage(target) <= 1.0

    def test_subset_coverage_monotone(self, ctx):
        """A larger EA set can only detect more."""
        result = ctx.detection_result()
        for target in result.targets:
            small = result.total_coverage(target, ["EA4"])
            large = result.total_coverage(target, ["EA4", "EA1", "EA7"])
            full = result.total_coverage(target)
            assert small <= large <= full

    def test_capture_inputs_never_detected(self, ctx):
        """No propagation -> nothing to detect (paper Table 4)."""
        result = ctx.detection_result()
        assert result.total_coverage("TIC1") == 0.0
        assert result.total_coverage("TCNT") == 0.0

    def test_combined_row_consistent(self, ctx):
        result = ctx.detection_result()
        total_err = sum(result.n_err.values())
        combined = result.combined()
        if total_err:
            per_target_hits = sum(result.any_detections.values())
            assert combined["total"] == pytest.approx(
                per_target_hits / total_err
            )


class TestMemoryCampaign:
    def test_records_have_regions(self, ctx):
        result = ctx.memory_result()
        regions = {record.region for record in result.records}
        assert regions <= {Region.RAM, Region.STACK}

    def test_coverage_triple_bounds(self, ctx):
        result = ctx.memory_result()
        triple = result.coverage(["EA1", "EA4"], None)
        for value in (triple.c_tot, triple.c_fail, triple.c_nofail):
            assert 0.0 <= value <= 1.0
        assert triple.n_fail <= triple.n_runs

    def test_empty_selection_zero(self, ctx):
        result = ctx.memory_result()
        triple = result.coverage([], None)
        assert triple.c_tot == 0.0

    def test_superset_dominates(self, ctx):
        result = ctx.memory_result()
        small = result.coverage(["EA4"], None).c_tot
        full = result.coverage(list(EA_BY_NAME), None).c_tot
        assert small <= full

    def test_explicit_locations(self, two_cases, system):
        locations = MemoryMap(system).locations(Region.RAM)[:2]
        result = MemoryCampaign(
            factory, two_cases[:1], list(EA_BY_NAME.values()),
            locations=locations, seed=5,
        ).run()
        assert len(result.records) == 2
        assert all(r.region is Region.RAM for r in result.records)

    def test_requires_test_cases(self):
        with pytest.raises(CampaignError):
            MemoryCampaign(factory, [], list(EA_BY_NAME.values()))


# ======================================================================
# Every campaign runs one plan through one driver.
# ======================================================================
def tank_factory(tc):
    return WaterTankSimulator(tc, mission_ticks=300)


#: the four campaigns over two tank cases, small enough to run twice
TANK_CAMPAIGNS = {
    "permeability": lambda cases, config: PermeabilityCampaign(
        tank_factory, cases, runs_per_input=2, seed=7, config=config,
    ),
    "detection": lambda cases, config: DetectionCampaign(
        tank_factory, cases, tank_assertions(), runs_per_signal=3, seed=7,
        config=config,
    ),
    "memory": lambda cases, config: MemoryCampaign(
        tank_factory, cases, tank_assertions(), seed=7, config=config,
    ),
    "recovery": lambda cases, config: RecoveryCampaign(
        tank_factory, cases, tank_assertions(), seed=7, config=config,
    ),
}


@pytest.fixture(scope="module")
def tank_cases():
    return standard_tank_cases()[:2]


class TestRepeatedRun:
    """A campaign draws its tasks from a fresh RNG on every ``run()``,
    so a second run repeats the first — and, with a checkpoint, resumes
    exactly the records of the draw it repeats."""

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize(
        "kind", ["permeability", "detection", "memory"]
    )
    def test_second_run_equals_fresh_campaign(
        self, tank_cases, tmp_path, kind, checkpoint
    ):
        build = TANK_CAMPAIGNS[kind]
        config = None
        if checkpoint:
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(path=str(tmp_path / "r.db"))
            )
        campaign = build(tank_cases, config)
        first = campaign.run()
        second = campaign.run()
        if checkpoint:
            telemetry = campaign.telemetry
            assert telemetry.resumed_runs == telemetry.total_runs > 0
        assert first == second == build(tank_cases, None).run()


class TestAbortedRun:
    @pytest.mark.parametrize("kind", sorted(TANK_CAMPAIGNS))
    def test_executor_closed_when_execution_raises(
        self, tank_cases, monkeypatch, kind
    ):
        """The driver closes the executor on every exit path."""
        closed = []
        close = CampaignExecutor.close

        def spy_close(executor):
            closed.append(executor)
            close(executor)

        def abort(*args, **kwargs):
            raise RuntimeError("execution aborted")

        monkeypatch.setattr(CampaignExecutor, "close", spy_close)
        monkeypatch.setattr(CampaignExecutor, "run_tasks", abort)
        campaign = TANK_CAMPAIGNS[kind](tank_cases, None)
        with pytest.raises(RuntimeError, match="execution aborted"):
            campaign.run()
        assert len(closed) == 1


class TestDraw:
    @pytest.mark.parametrize("kind", ["permeability", "detection"])
    def test_one_golden_lookup_per_test_case(self, tank_cases, kind):
        """The draw reads each test case's golden run once, not once
        per task, so the golden-cache counters count the runs."""
        campaign = TANK_CAMPAIGNS[kind](tank_cases, None)
        goldens = campaign.goldens
        looked_up = []

        class Spy:
            def get(self, case):
                looked_up.append(case.case_id)
                return goldens.get(case)

        campaign.goldens = Spy()
        plan = campaign._plan(campaign.factory(tank_cases[0]).system)
        assert len(plan.tasks) > len(tank_cases)
        assert sorted(looked_up) == sorted(c.case_id for c in tank_cases)


def _restricted_permeability(ctx):
    return PermeabilityCampaign(
        ctx.simulator_factory, ctx.test_cases,
        runs_per_input=ctx.scale.runs_per_input, modules=["CLOCK"],
        config=ctx.campaign_config("permeability"),
    ).run()


def _recovery(ctx):
    return RecoveryCampaign(
        ctx.simulator_factory,
        ctx.test_cases[:: ctx.scale.memory_case_stride],
        ctx.assertion_specs(),
        locations=MemoryMap(ctx.system).locations()[
            :: ctx.scale.location_stride
        ],
        config=ctx.campaign_config("recovery"),
    ).run()


class TestCheckpointFingerprints:
    """The fingerprint a campaign binds in the results database decides
    whether an existing database resumes: pinned per campaign at test
    scale, seed 2002."""

    #: case -> (context options, run, (campaign, fingerprint, n_tasks))
    PINNED = {
        "permeability": (
            {}, ExperimentContext.permeability_estimate,
            ("permeability", "52f1e2033a99613d", 78),
        ),
        "permeability-clock": (
            {}, _restricted_permeability,
            ("permeability", "f0b3f61a7f9ad41e", 6),
        ),
        "permeability-adaptive": (
            {"adaptive": True, "max_runs": 4},
            ExperimentContext.permeability_estimate,
            ("permeability", "5d6c29734c1df9da", 52),
        ),
        "detection": (
            {}, ExperimentContext.detection_result,
            ("detection", "aabb8d83d0b968ae", 40),
        ),
        "memory": (
            {}, ExperimentContext.memory_result,
            ("memory", "47dd63030ba141c9", 13),
        ),
        "recovery": ({}, _recovery, ("recovery", "0e8f4a990026fdd5", 13)),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_fingerprint_is_pinned(self, tmp_path, case):
        options, run, pinned = self.PINNED[case]
        ctx = ExperimentContext(
            scale="test", seed=2002, checkpoint_dir=str(tmp_path), **options
        )
        run(ctx)
        with SqliteResultStore(str(tmp_path / "results.db")) as store:
            bound = [
                (c.campaign, c.fingerprint, c.n_tasks)
                for c in store.list_campaigns()
            ]
        assert bound == [pinned]
