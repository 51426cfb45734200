"""The vectorized batch core: bit-identical to the scalar path.

Three layers of A/B coverage: :class:`~repro.fi.vector.BatchRunner`
directly against the campaigns' scalar ``_one_run`` (fast, surgical —
including forced tick-0 dispatch divergence), whole campaigns with
``batch_width`` on vs off (two groups on a two-worker pool, serial
and process under the ``slow`` marker; adaptive batched campaigns on
both), and the whole test-scale reproduction, whose campaigns share
one batch.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
    RecoveryCampaign,
)
from repro.fi import counters, vector
from repro.fi.counters import Counters
from repro.fi.executor import (
    AdaptivePolicy,
    CampaignConfig,
    CheckpointPolicy,
    FaultTolerancePolicy,
    VectorPolicy,
)
from repro.fi.memory import MemoryMap
from repro.fi.vector import (
    BatchPart,
    BatchRunner,
    GroupJob,
    InvocationRecorder,
    MemoryFlipPlan,
    RowInjection,
    VectorRow,
    wrap_runners,
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


def batch_vs_scalar(kind, campaign, tasks, **kwargs):
    """Outcomes of a BatchRunner over *tasks* next to the scalar
    reference, plus the vector-stats delta of the batched pass."""

    def scalar(index):
        return campaign._one_run(*tasks[index])

    rows = [campaign._row(task) for task in tasks]
    runner = BatchRunner(
        [BatchPart(kind, rows, scalar, **kwargs)], campaign.factory
    )
    assert runner._kernel is not None, "kernel refused the target"
    before = counters.snapshot()
    batched = [runner(i) for i in range(len(tasks))]
    delta = Counter(counters.delta(before, counters.snapshot()))
    reference = [scalar(i) for i in range(len(tasks))]
    return batched, reference, delta


@pytest.fixture
def scalar_runs(monkeypatch):
    """The task indices a :class:`BatchRunner` sends to its scalar
    path (which then answers ``None``)."""
    seen = []
    monkeypatch.setattr(
        BatchRunner, "_scalar", lambda self, index: seen.append(index)
    )
    return seen


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
        leaves the golden schedule, and the row records its own."""
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
        assert delta["vec_retired_rows"] == 0
        assert delta["vec_rows"] == len(tasks)  # all answered by it

    def test_timer_divergence_stays_in_the_batch(self, tank_cases,
                                                 scalar_runs):
        """A tick-0 flip of the dispatch slot leaves the golden
        schedule immediately: each row dispatches and records its own
        schedule inside the batch, and the scalar path never runs."""
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
        assert delta["vec_retired_rows"] == 0
        assert delta["vec_rows"] == len(tasks)
        assert scalar_runs == []

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
        # both rows planned into the group: the campaign's capacity
        rows = [campaign._row(task) for task in tasks]
        view, = BatchRunner(
            [BatchPart("memory", rows, None, specs=specs)], campaign.factory
        ).views()
        assert view.planned == len(tasks)

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


@pytest.fixture
def loop_only(monkeypatch):
    """No sparse tail and no few-row scalar invocations: every row
    runs the kernel loop to its end, every invocation a numpy pass."""
    monkeypatch.setattr(vector, "SCALAR_ROWS", 0)


@pytest.mark.usefixtures("loop_only")
class TestArrestmentKernel:
    """The kernel loop against the scalar path; its subject is the
    loop, so no row leaves it for the sparse tail."""

    def test_variant_with_other_modules_stays_scalar(self, arrestment_cases):
        """A system with a module the kernel does not transcribe (the
        telemetry variant's REPORT) is never batched."""
        from repro.target.variants import telemetry_simulator

        case = arrestment_cases[0]
        assert ArrestmentVectorKernel.supports(arrestment_factory(case))
        assert not ArrestmentVectorKernel.supports(telemetry_simulator(case))

    def test_permeability_rows_match_scalar(self, arrestment_cases):
        """One batch across modules; the CLOCK row's flipped slot
        number leaves the golden schedule, and the row records its
        own."""
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
        assert delta["vec_retired_rows"] == 0
        assert delta["vec_rows"] == len(tasks)  # all answered by it

    def test_clock_divergence_stays_in_the_batch(self, arrestment_cases,
                                                 scalar_runs):
        """Tick-0 flips of CLOCK's slot number: each row dispatches
        and records its own schedule inside the batch, and the scalar
        path never runs."""
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
        assert delta["vec_retired_rows"] == 0
        assert delta["vec_rows"] == len(tasks)
        assert scalar_runs == []

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
        assert delta["vec_retired_rows"] == 0
        assert delta["vec_rows"] == len(tasks)  # all answered by it

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


def campaign_part(kind, campaign, tasks, **kwargs):
    """*tasks* of *campaign* as one part of a batch, its scalar runs
    as the part's inner runner."""
    return BatchPart(
        kind, [campaign._row(task) for task in tasks],
        lambda i: campaign._one_run(*tasks[i]), **kwargs,
    )


def group_results(runner):
    """Per row of *runner*'s one group, what the kernel pass leaves:
    completion and first injection ticks, failure flag, monitor-bank
    records and the recorded stream, finer than the row's outcome."""
    (group,) = runner._groups
    rows = [
        VectorRow(case.case_id, injection)
        for case, injection in (runner._rows[i] for i in group.indices)
    ]
    result = runner._kernel.run_group(GroupJob(
        rows=rows, cases=runner._cases, templates=runner._templates,
        specs=group.specs, factory=runner._factory,
    ))
    streams = result.streams
    out = []
    for r in range(len(rows)):
        n = int(streams.rec_len[r])
        recorded = None if streams.rec_ins[r] is None else (
            streams.rec_ins[r][:n].tolist(), streams.rec_outs[r][:n].tolist()
        )
        out.append((
            result.completion_tick[r], result.first_injection_tick[r],
            result.failed[r], result.bank.row_records(r), recorded,
        ))
    return out


class TestScalarRowDispatch:
    """A module slot that at most ``SCALAR_ROWS`` live rows take runs
    each of them on the row's own scalar module, unless the module's
    invocation flips or records one of them; every row still matches
    the scalar path bit for bit."""

    @staticmethod
    def chain(campaign, case):
        """The memory locations on the arrestment's dispatch chain:
        CLOCK's successor table and the slot number's backing store."""
        return [
            loc for loc in MemoryMap(campaign.factory(case).system).locations()
            if loc.module == "CLOCK"
            and (loc.cell.startswith("slot_succ") or loc.cell == "ms_slot_nbr")
        ]

    def test_off_schedule_rows_run_on_scalar_modules(
        self, arrestment_cases, monkeypatch
    ):
        """Dispatch-chain memory rows and flipped-slot CLOCK rows leave
        the golden schedule among steady rows: their slots run on the
        scalar modules, the outcomes match the scalar path, and the
        kernel's per-row results equal a pass with every invocation
        in numpy."""
        specs = list(EA_BY_NAME.values())
        mem = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        perm = PermeabilityCampaign(
            arrestment_factory, arrestment_cases, runs_per_input=1, seed=3
        )
        chain = self.chain(mem, arrestment_cases[0])
        locations = MemoryMap(
            mem.factory(arrestment_cases[0]).system
        ).locations()
        steady = [loc for loc in locations if loc.module == "V_REG"]
        mem_tasks = [
            (chain[2], arrestment_cases[0], 1, 40),
            (chain[9], arrestment_cases[1], 3, 7),
            (chain[20], arrestment_cases[0], 0, 11),
            (chain[21], arrestment_cases[1], 2, 3),
        ] + [
            (loc, arrestment_cases[k % 2], 0, 7)
            for k, loc in enumerate(steady[:4])
        ]
        perm_tasks = [
            ("CLOCK", "ms_slot_nbr", arrestment_cases[0], 300, 1),
            ("CLOCK", "ms_slot_nbr", arrestment_cases[1], 1500, 4),
            ("V_REG", "SetValue", arrestment_cases[0], 900, 9),
        ]
        parts = [
            campaign_part("memory", mem, mem_tasks, specs=specs),
            campaign_part(
                "permeability", perm, perm_tasks, goldens=perm.goldens
            ),
        ]
        before = counters.snapshot()
        views = BatchRunner(parts, arrestment_factory).views()
        for part, view in zip(parts, views):
            n = len(part.rows)
            assert [view(i) for i in range(n)] == [
                part.inner(i) for i in range(n)
            ]
        delta = Counter(counters.delta(before, counters.snapshot()))
        assert delta["vec_groups"] == 1
        assert delta["vec_rows"] == len(mem_tasks) + len(perm_tasks)
        assert delta["vec_row_invocations"] > 0

        runner = BatchRunner(parts, arrestment_factory)
        before = counters.snapshot()
        scalar_rows = group_results(runner)
        assert counters.delta(before, counters.snapshot()).get(
            "vec_row_invocations", 0
        ) > 0
        monkeypatch.setattr(vector, "SCALAR_ROWS", 0)
        before = counters.snapshot()
        assert group_results(runner) == scalar_rows
        assert "vec_row_invocations" not in counters.delta(
            before, counters.snapshot()
        )

    def test_hooked_row_keeps_the_numpy_invocation(
        self, arrestment_cases, monkeypatch
    ):
        """A row the module's invocation flips or records — a DIST_S
        ``arg`` row, a PRES_S stack-local memory row — shares a masked
        slot of that module with no more than a few rows, once a
        dispatch-chain row has left the schedule: that module runs the
        slot as a numpy masked invocation, and the other modules run
        their few rows on the scalar modules."""
        specs = list(EA_BY_NAME.values())
        mem = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        perm = PermeabilityCampaign(
            arrestment_factory, arrestment_cases, runs_per_input=1, seed=3
        )
        case = arrestment_cases[0]
        chain = self.chain(mem, case)
        local = next(
            loc for loc in MemoryMap(mem.factory(case).system).locations()
            if loc.module == "PRES_S" and loc.cell == "scaled"
        )
        # rows 0-1 (memory): a successor-table row that leaves the
        # schedule at tick 0 and the PRES_S local row; row 2: DIST_S
        parts = [
            campaign_part("memory", mem, [
                (chain[5], case, 2, 0), (local, case, 3, 5),
            ], specs=specs),
            campaign_part("permeability", perm, [
                ("DIST_S", "PACNT", case, 600, 2),
            ], goldens=perm.goldens),
        ]
        hooked = {"PRES_S": 1, "DIST_S": 2}
        numpy_calls, scalar_calls = [], []
        invoke = ArrestmentVectorKernel._invoke
        invoke_rows = ArrestmentVectorKernel._invoke_rows

        def spy_invoke(self, module, mask=None):
            if mask is not None:
                numpy_calls.append((module, set(np.flatnonzero(mask))))
            return invoke(self, module, mask=mask)

        def spy_invoke_rows(self, module, idx, rows):
            scalar_calls.append((module, set(rows)))
            return invoke_rows(self, module, idx, rows)

        monkeypatch.setattr(ArrestmentVectorKernel, "_invoke", spy_invoke)
        monkeypatch.setattr(
            ArrestmentVectorKernel, "_invoke_rows", spy_invoke_rows
        )
        views = BatchRunner(parts, arrestment_factory).views()
        for part, view in zip(parts, views):
            n = len(part.rows)
            assert [view(i) for i in range(n)] == [
                part.inner(i) for i in range(n)
            ]
        for module, r in hooked.items():
            assert any(
                name == module and r in rows for name, rows in numpy_calls
            )
            assert not any(
                name == module and r in rows for name, rows in scalar_calls
            )
        assert scalar_calls


class TestInvocationRecorder:
    """The ``arg`` rows' flips and streams follow each row's own
    schedule: an invocation flips and records exactly the rows it
    takes, each at its own stream position."""

    @staticmethod
    def recorder(cases, ticks):
        """Three V_REG ``SetValue`` rows due at tick 0, flipping bits
        0, 1 and 2, and their first-injection array."""
        kernel = ArrestmentVectorKernel(arrestment_factory(cases[0]))
        rows = [
            VectorRow(cases[r % 2].case_id, RowInjection(
                kind="arg", tick=0, bit=r, port="SetValue", module="V_REG",
            ))
            for r in range(3)
        ]
        first_inj = np.full(3, -1, dtype=np.int64)
        bitmask = np.array([1, 2, 4], dtype=np.int64)
        return (
            InvocationRecorder(kernel, rows, bitmask, first_inj, ticks),
            first_inj,
        )

    def test_a_due_flip_waits_for_its_rows_invocation(
        self, arrestment_cases
    ):
        rec, first_inj = self.recorder(arrestment_cases, ticks=100)
        rec.tick = 7
        args = np.zeros((2, 3), dtype=np.int64)
        rec.marshal("V_REG", args, np.array([True, False, False]))
        assert args[0].tolist() == [1, 0, 0]
        assert first_inj.tolist() == [7, -1, -1]
        rec.tick = 9
        args = np.zeros((2, 3), dtype=np.int64)
        rec.marshal("V_REG", args)
        assert args[0].tolist() == [0, 2, 4]
        assert first_inj.tolist() == [7, 9, 9]

    def test_rows_record_at_their_own_positions(self, arrestment_cases):
        rec, _ = self.recorder(arrestment_cases, ticks=100)
        masks = [None, [True, False, True], [False, True, False],
                 [True, False, False]]
        for k, mask in enumerate(masks):
            args = np.array([[10 * k + r for r in range(3)],
                             [100 * k + r for r in range(3)]])
            outs = np.array([[1000 * k + r for r in range(3)]])
            rec.record(
                "V_REG", args, outs, None if mask is None else np.array(mask)
            )
        assert rec.rec_len.tolist() == [3, 2, 2]
        taken = {0: [0, 1, 3], 1: [0, 2], 2: [0, 1]}
        for r, invocations in taken.items():
            assert rec.rec_ins[r][:len(invocations)].tolist() == [
                [10 * k + r, 100 * k + r] for k in invocations
            ]
            assert rec.rec_outs[r][:len(invocations)].tolist() == [
                [1000 * k + r] for k in invocations
            ]


class TestSparseTail:
    """Once at most ``TAIL_ROWS`` rows are live and none is a
    permeability row, the arrestment kernel exports each live row's
    state and finishes it on the scalar simulator; outcomes stay
    bit-identical."""

    @pytest.fixture
    def exits(self, monkeypatch):
        """(tick, live arg rows, containment pass, row) per exported
        row."""
        seen = []
        finish = ArrestmentVectorKernel._finish

        def spy(self, job, r, state, bank):
            held = self._rec.n_live if self._rec is not None else 0
            seen.append((state.tick, held, job.recover, r))
            return finish(self, job, r, state, bank)

        monkeypatch.setattr(ArrestmentVectorKernel, "_finish", spy)
        return seen

    def test_tail_rows_match_scalar(self, arrestment_cases, exits,
                                    monkeypatch):
        """The last eight of twelve memory rows finish as scalar runs
        through :meth:`ArrestmentSimulator.run`, so traced runs see
        them; the batch simulates fewer row-ticks than the loop alone."""
        specs = list(EA_BY_NAME.values())
        campaign = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        tasks = memory_tasks(campaign, arrestment_cases, 12, seed=5)
        runs = []
        run = ArrestmentSimulator.run

        def spy_run(self):
            runs.append(self.executor.tick)
            return run(self)

        monkeypatch.setattr(ArrestmentSimulator, "run", spy_run)
        batched, reference, delta = batch_vs_scalar(
            "memory", campaign, tasks, specs=specs,
        )
        assert batched == reference
        assert delta["vec_tail_rows"] == len(exits) == vector.SCALAR_ROWS
        tick = exits[0][0]
        assert tick > 0 and all(exit[0] == tick for exit in exits)
        # the tail's scalar runs resume at the exit tick
        assert runs[:len(exits)] == [tick] * len(exits)
        monkeypatch.setattr(vector, "SCALAR_ROWS", 0)
        _, _, loop = batch_vs_scalar("memory", campaign, tasks, specs=specs)
        assert loop["vec_tail_rows"] == 0
        assert delta["vec_batched_ticks"] < loop["vec_batched_ticks"]

    def test_live_permeability_row_holds_the_tail(self, arrestment_cases,
                                                  exits):
        """A group of four rows is at most eight from tick 0, but its
        permeability row's recorded stream stays in the batch: the
        other rows leave only once it has left."""
        specs = list(EA_BY_NAME.values())
        perm = PermeabilityCampaign(
            arrestment_factory, arrestment_cases, runs_per_input=1, seed=3
        )
        mem = MemoryCampaign(
            arrestment_factory, arrestment_cases, specs, seed=5
        )
        perm_tasks = [("V_REG", "SetValue", arrestment_cases[1], 300, 13)]
        mem_tasks = memory_tasks(mem, arrestment_cases, 3, seed=5)

        def part(kind, campaign, tasks, **kwargs):
            return BatchPart(
                kind, [campaign._row(task) for task in tasks],
                lambda i: campaign._one_run(*tasks[i]), **kwargs,
            )

        parts = [
            part("permeability", perm, perm_tasks, goldens=perm.goldens),
            part("memory", mem, mem_tasks, specs=specs),
        ]
        views = BatchRunner(parts, arrestment_factory).views()
        for p, view in zip(parts, views):
            assert [view(i) for i in range(len(p.rows))] == [
                p.inner(i) for i in range(len(p.rows))
            ]
        assert exits and all(
            tick > 0 and not held for tick, held, _, _ in exits
        )
        assert {r for *_, r in exits} <= {1, 2, 3}

    def test_containment_pass_keeps_its_rows(self, arrestment_cases,
                                             exits):
        """A recovery group's baseline pass may leave for the tail;
        its containment pass, whose bank pokes the store, never does."""
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
        assert exits and not any(recover for _, _, recover, _ in exits)
        assert delta["vec_tail_rows"] == len(exits)


class TestBatchWork:
    """The batches of the test-scale reproduction (seed 2002) do a
    pinned amount of work: a faster tick may change the time per tick,
    never which rows a batch holds, how many row-ticks it simulates or
    how many finish on the scalar simulator — even where the outcomes
    would still match; no row retires."""

    #: campaign -> (groups, rows answered, batched row-ticks, retired,
    #: tail rows), each campaign run alone
    PINNED = {
        "permeability": (1, 78, 433376, 0, 0),
        "detection": (1, 40, 218200, 0, 3),
        "memory": (1, 13, 49893, 0, 3),
    }
    #: the same rows when ``run_all`` runs the three campaigns in one
    #: batch: one group, whose last four rows finish on the scalar
    #: simulator once the permeability rows have settled and left
    PINNED_RUN_ALL = (1, 131, 704762, 0, 4)
    #: each campaign's planned rows, its group capacity in ``run_all``
    CAPACITY = {"permeability": 78, "detection": 40, "memory": 13}

    @staticmethod
    def work(counts):
        return (
            counts["vec_groups"], counts["vec_rows"],
            counts["vec_batched_ticks"], counts["vec_retired_rows"],
            counts["vec_tail_rows"],
        )

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

    @pytest.fixture(scope="class")
    def run_all_telemetries(self):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import run_all

        ctx = ExperimentContext(scale="test", seed=2002)
        run_all(ctx, echo=lambda line: None)
        return ctx.telemetries

    @pytest.mark.parametrize("campaign", sorted(PINNED))
    def test_work_is_pinned(self, counts, campaign):
        c = counts[campaign]
        assert self.work(c) == self.PINNED[campaign]
        assert c["vec_scalar_fallbacks"] == 0

    def test_run_all_is_one_batch(self, run_all_telemetries):
        total = Counter()
        for telemetry in run_all_telemetries.values():
            total.update(telemetry.counts)
        assert self.work(total) == self.PINNED_RUN_ALL
        assert total["vec_scalar_fallbacks"] == 0
        # no live permeability row holds the sparse tail
        assert total["vec_tail_rows"] > 0
        # the campaign that computes the group counts it
        assert run_all_telemetries["permeability"].counts["vec_groups"] == 1

    def test_capacity_is_each_campaigns_planned_rows(
        self, run_all_telemetries
    ):
        """A campaign's occupancy reads its own answered rows over its
        own planned rows, whichever campaign computed the shared
        group."""
        for campaign, planned in self.CAPACITY.items():
            telemetry = run_all_telemetries[campaign]
            c = telemetry.counts
            assert c["vec_group_capacity"] == planned
            occupancy = f"occupancy={c['vec_rows'] / planned:.0%}"
            assert occupancy in telemetry.render()
        assert run_all_telemetries["permeability"].vec_occupancy == 1.0


class TestReproductionAB:
    """The whole test-scale reproduction, whose campaigns share one
    batch, reports byte for byte what the scalar path reports."""

    @staticmethod
    def report(**options):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import run_all

        lines = []
        run_all(ExperimentContext(scale="test", **options), echo=lines.append)
        return lines

    @pytest.mark.parametrize("options", [
        {}, {"jobs": 2}, {"adaptive": True}, {"adaptive": True, "jobs": 2},
    ], ids=["serial", "jobs2", "adaptive", "adaptive-jobs2"])
    def test_batched_equals_scalar(self, options):
        assert self.report(**options) == self.report(
            batch_width=0, **options
        )


#: the two sides of the campaign A/B tests: the scalar path is the
#: oracle, and it has to be asked for now that batching is the default;
#: the batched side runs two workers, so its rows form two groups
SCALAR = CampaignConfig(vector=VectorPolicy(batch_width=0))
BATCHED = CampaignConfig(jobs=2)


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

        parts = [BatchPart("detection", [], runner)]
        assert wrap_runners(
            parts, [CampaignConfig(vector=VectorPolicy(batch_width=0))],
            [tank_factory],
        ) == [runner]
        assert wrap_runners(
            parts, [CampaignConfig()], [tank_factory]
        ) == [runner]


class TestBatchPass:
    """The batch pass computes every group in an executor run of its
    own, on the first round that asks for a row the batch answers."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_group_falls_back_to_scalar(
        self, tank_cases, monkeypatch, jobs
    ):
        """A group whose computation raises is retried inside the pass,
        then leaves its rows to the scalar path: no campaign task is
        quarantined and the results are the scalar ones."""
        # a counter group: pool workers' attempts reach the parent too
        computed = Counters("failing_", "groups")

        def fail(self, group):
            computed.groups += 1
            raise RuntimeError("kernel fault")

        def run(batch_width):
            config = CampaignConfig(
                jobs=jobs,
                fault_tolerance=FaultTolerancePolicy(retry_backoff_s=0.0),
                vector=VectorPolicy(batch_width=batch_width),
            )
            campaign = PermeabilityCampaign(
                tank_factory, tank_cases, runs_per_input=1, seed=3,
                config=config,
            )
            estimate = campaign.run()
            outcome = (estimate.direct_counts, estimate.active_runs)
            return outcome, campaign.telemetry

        scalar, _ = run(0)
        monkeypatch.setattr(BatchRunner, "_compute_group", fail)
        batched, telemetry = run(32)
        assert batched == scalar
        assert telemetry.total_runs == 8
        # each of the jobs groups: retries + 1 attempts in all
        retries = FaultTolerancePolicy().retries
        assert computed.groups == jobs * (retries + 1)
        assert telemetry.failures == 0
        assert telemetry.counts["vec_scalar_fallbacks"] == 8
        assert telemetry.counts["vec_rows"] == 0

    def test_resumed_campaign_runs_no_pass(self, tank_cases, tmp_path):
        """A campaign whose every row the checkpoint holds asks the
        batch for nothing, so no batch pass runs."""
        import json

        def run(log):
            config = CampaignConfig(
                checkpoint=CheckpointPolicy(path=str(tmp_path / "r.db")),
                event_log_path=str(log),
                vector=VectorPolicy(batch_width=32),
            )
            campaign = DetectionCampaign(
                tank_factory, tank_cases, tank_assertions(),
                runs_per_signal=4, seed=11, config=config,
            )
            result = campaign.run()
            starts = [
                event["campaign"]
                for event in map(json.loads, log.read_text().splitlines())
                if event["event"] == "run_start"
            ]
            return result.run_records, campaign.telemetry, starts

        first, telemetry, starts = run(tmp_path / "first.jsonl")
        assert telemetry.counts["vec_groups"] == 1
        assert starts == ["batch", "detection"]
        resumed, telemetry, starts = run(tmp_path / "resumed.jsonl")
        assert resumed == first
        assert telemetry.resumed_runs == telemetry.total_runs
        assert telemetry.counts["vec_groups"] == 0
        assert starts == ["detection"]


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
            # the first round's batch pass computes each of the jobs
            # groups once, and later rounds serve what it kept
            _, serial = self.run(kind, tank_cases, 1, 32)
            assert telemetry.counts["vec_groups"] == jobs
            for name in ("vec_batched_ticks", "vec_retired_rows"):
                assert telemetry.counts[name] == serial.counts[name]

    def test_only_the_batch_pass_forks(
        self, tank_cases, tmp_path, monkeypatch
    ):
        """The batch pass computes the groups on the one pool (and runs
        the drift sentinel there); every campaign round is answered
        from the pass and runs serially."""
        import json
        import multiprocessing.pool

        forked = []
        pool_type = multiprocessing.pool.Pool

        class CountingPool(pool_type):
            def __init__(self, *args, **kwargs):
                forked.append(1)
                super().__init__(*args, **kwargs)

        scalar, _ = self.run("detection", tank_cases, 2, 0)
        monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
        log = tmp_path / "events.jsonl"
        batched, telemetry = self.run(
            "detection", tank_cases, 2, 32, str(log)
        )
        assert batched == scalar
        starts = [
            event
            for event in map(json.loads, log.read_text().splitlines())
            if event["event"] == "run_start"
        ]
        rounds = [s for s in starts if s["campaign"] == "detection"]
        assert len(rounds) >= 2  # several adaptive rounds
        assert forked == [1]
        assert [(s["campaign"], s["backend"]) for s in starts] == (
            [("batch", "process")] + [("detection", "serial")] * len(rounds)
        )
        assert telemetry.counts["vec_groups"] == 2


class TestBatchedTracks:
    """A batch answers every row it holds, so a batched campaign
    records checkpoint tracks only for the tasks its batch leaves to
    the scalar path."""

    @staticmethod
    def run(kind, **options):
        from repro.experiments.context import ExperimentContext
        from repro.fi.snapshot import checkpoint_cache

        checkpoint_cache.clear()
        ctx = ExperimentContext(scale="test", **options)
        if kind == "permeability":
            result = ctx.permeability_estimate()
            outcome = (result.direct_counts, result.active_runs)
        else:
            result = ctx.detection_result()
            outcome = (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            )
        return outcome, ctx.telemetries[kind].counts

    @pytest.mark.parametrize("kind", ["detection", "permeability"])
    def test_batch_answered_tasks_record_no_tracks(self, kind):
        scalar, scalar_counts = self.run(kind, batch_width=0)
        batched, counts = self.run(kind)
        assert batched == scalar
        assert counts["vec_rows"] > 0
        assert counts["ff_tracks_recorded"] == 0
        assert scalar_counts["ff_tracks_recorded"] > 0
        # audited rows run scalar, so their tracks are recorded again
        audited, audited_counts = self.run(kind, audit_fraction=1.0)
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
