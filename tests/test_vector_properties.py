"""Property tests: a batch of N rows equals N scalar runs.

Hypothesis drives random modules/ports/signals, injection ticks, bits
and group counts through :class:`~repro.fi.vector.BatchRunner` on both
targets and requires bit-identical outcomes against the campaigns'
scalar ``_one_run``.  Permeability batches always mix modules.
Explicit examples pin the two structural edge cases: tick-0 dispatch
divergence (the diverged rows record their own schedule) and rows
whose flip lands on the very last tick; the arrestment memory examples
pin flips on the dispatch chain, on stack cells and on RAM cells that
re-quantize.  The arrestment tests draw ``SCALAR_ROWS`` too, which
sets both the kernel's sparse tail and the few-row slots run on the
rows' scalar modules (0 keeps every row in the loop and every
invocation in numpy), and its examples pin rows that leave for the
scalar simulator with a stack strike armed, a completion latched, or
a flip tick or phase still ahead; for those rows the kernel's per-row
results must equal the loop's, not only their outcomes.  Permeability rows that leave the arrestment loop once their
outcome is fixed end with what the outcome reads equal to a pass
without that exit.  Mixed groups — permeability, detection and memory
rows of three campaigns in one batch, as a reproduction runs them —
answer every row exactly as single-kind groups of the same rows do.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
)
from repro.fi import vector
from repro.fi.memory import MemoryMap
from repro.fi.vector import (
    BatchPart,
    BatchRunner,
    GroupJob,
    InvocationRecorder,
    VectorRow,
)
from repro.edm.catalogue import EA_BY_NAME
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import standard_test_cases
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases

TANK_TICKS = 200
ARREST_TIMEOUT_S = 6.0
ARREST_TICKS = 6000
#: long enough that no golden run of the exit tests' cases times out
EXIT_TIMEOUT_S = 8.0


def tank_prop_factory(tc):
    return WaterTankSimulator(tc, mission_ticks=TANK_TICKS)


def arrest_prop_factory(tc):
    return ArrestmentSimulator(tc, timeout_s=ARREST_TIMEOUT_S)


def exit_prop_factory(tc):
    return ArrestmentSimulator(tc, timeout_s=EXIT_TIMEOUT_S)


TANK_PORTS = {
    "TIMER": ["tick_nbr"],
    "LEVEL_S": ["LVL_ADC"],
    "FLOW_S": ["FLOW_CNT"],
    "CTRL": ["level_f", "inflow_rate", "ticks"],
    "ALARM": ["level_f"],
    "VALVE_A": ["valve_cmd"],
}
ARREST_PORTS = {
    "CLOCK": ["ms_slot_nbr"],
    "DIST_S": ["PACNT", "TIC1", "TCNT"],
    "CALC": ["i", "mscnt", "pulscnt", "slow_speed", "stopped"],
    "PRES_S": ["ADC"],
    "V_REG": ["SetValue", "IsValue"],
    "PRES_A": ["OutValue"],
}


@pytest.fixture(scope="module")
def tank_perm():
    return PermeabilityCampaign(
        tank_prop_factory, standard_tank_cases()[:2],
        runs_per_input=1, seed=5,
    )


@pytest.fixture(scope="module")
def tank_det():
    return DetectionCampaign(
        tank_prop_factory, standard_tank_cases()[:2], tank_assertions(),
        runs_per_signal=1, seed=5,
    )


@pytest.fixture(scope="module")
def tank_mem():
    return MemoryCampaign(
        tank_prop_factory, standard_tank_cases()[:2], tank_assertions(),
        seed=5,
    )


@pytest.fixture(scope="module")
def arrest_mem():
    cases = standard_test_cases()
    return MemoryCampaign(
        arrest_prop_factory, [cases[4], cases[20]],
        list(EA_BY_NAME.values()), seed=5,
    )


@pytest.fixture(scope="module")
def arrest_perm():
    cases = standard_test_cases()
    return PermeabilityCampaign(
        arrest_prop_factory, [cases[4], cases[20]],
        runs_per_input=1, seed=5,
    )


@pytest.fixture(scope="module")
def exit_perm():
    """Permeability rows on two engagements (tc24 and tc20) whose
    golden runs end well inside the timeout, so a row can outlive its
    golden run."""
    cases = standard_test_cases()
    return PermeabilityCampaign(
        exit_prop_factory, [cases[24], cases[20]], runs_per_input=1, seed=5,
    )


@pytest.fixture(scope="module")
def arrest_det():
    cases = standard_test_cases()
    return DetectionCampaign(
        arrest_prop_factory, [cases[4], cases[20]],
        list(EA_BY_NAME.values()), runs_per_signal=1, seed=5,
    )


def part_of(kind, campaign, tasks, **kwargs):
    """*tasks* of *campaign* as one part of a batch."""

    def scalar(index):
        return campaign._one_run(*tasks[index])

    rows = [campaign._row(task) for task in tasks]
    return BatchPart(kind, rows, scalar, **kwargs)


def check_batch(kind, campaign, tasks, groups, **kwargs):
    part = part_of(kind, campaign, tasks, **kwargs)
    runner = BatchRunner([part], campaign.factory, groups)
    batched = [runner(i) for i in range(len(tasks))]
    assert batched == [part.inner(i) for i in range(len(tasks))]


def tail_rows(tail, rows):
    """The shared :data:`~repro.fi.vector.SCALAR_ROWS` at *tail* modulo
    one more than *rows*, a value in [0, rows], which draws both of
    its mechanisms: the arrestment kernel's sparse tail (0 keeps every
    row in the loop, and *rows* exports every row at tick 0) and the
    few-row invocations on the rows' scalar modules (0 runs every
    invocation as a numpy pass)."""
    return mock.patch.object(vector, "SCALAR_ROWS", tail % (rows + 1))


def check_mixed(factory, parts, groups):
    """Every part's rows answered by groups mixing all parts equal
    their answers from a batch of that part alone."""
    views = BatchRunner(parts, factory, groups).views()
    for part, view in zip(parts, views):
        alone = BatchRunner([part], factory)
        n = len(part.rows)
        assert [view(i) for i in range(n)] == [alone(i) for i in range(n)]


def perm_rows(ports, max_tick):
    """(rows of (module, port_i, case_i, tick, bit_i), groups); the
    first two rows differ in module, so every example whose first
    group holds both runs a mixed-module batch."""
    return st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(ports)),
                st.integers(0, 7),  # port index (mod len(ports))
                st.integers(0, 1),  # test-case index
                st.integers(0, max_tick - 1),
                st.integers(0, 63),  # bit (mod signal width)
            ),
            min_size=2,
            max_size=5,
        ).filter(lambda rows: rows[0][0] != rows[1][0]),
        st.integers(1, 3),  # groups
    )


def build_perm_tasks(campaign, ports, rows):
    system = campaign.factory(campaign.test_cases[0]).system
    tasks = []
    for module, port_i, case_i, tick, bit in rows:
        port = ports[module][port_i % len(ports[module])]
        signal = system.signal_of_input(module, port)
        width = system.signal(signal).width
        tasks.append(
            (module, port, campaign.test_cases[case_i], tick, bit % width)
        )
    return tasks


def det_rows(max_tick):
    return st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 7),  # signal index (mod len(signals))
                st.integers(0, 1),
                st.integers(0, max_tick - 1),
                st.integers(0, 63),
            ),
            min_size=2,
            max_size=5,
        ),
        st.integers(1, 3),
    )


def mem_rows():
    """(rows of (location_i, case_i, bit_i, phase_i), groups)."""
    return st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 511),  # location (mod len(locations))
                st.integers(0, 1),  # test-case index
                st.integers(0, 7),  # bit (mod valid_bits)
                st.integers(0, 511),  # phase (mod period)
            ),
            min_size=2,
            max_size=5,
        ),
        st.integers(1, 3),
    )


def mixed_rows(ports, max_tick):
    """(permeability rows, detection rows, memory rows, groups), one
    to three rows of each kind, drawn as :func:`perm_rows`,
    :func:`det_rows` and :func:`mem_rows` draw theirs."""
    return st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(ports)), st.integers(0, 7),
                st.integers(0, 1), st.integers(0, max_tick - 1),
                st.integers(0, 63),
            ),
            min_size=1, max_size=3,
        ),
        st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 1),
                st.integers(0, max_tick - 1), st.integers(0, 63),
            ),
            min_size=1, max_size=3,
        ),
        st.lists(
            st.tuples(
                st.integers(0, 511), st.integers(0, 1),
                st.integers(0, 7), st.integers(0, 511),
            ),
            min_size=1, max_size=3,
        ),
        st.integers(1, 2),
    )


def check_mixed_drawn(perm, det, mem, ports, drawn):
    perm_rows, det_rows, mem_rows, groups = drawn
    check_mixed(perm.factory, [
        part_of(
            "permeability", perm, build_perm_tasks(perm, ports, perm_rows),
            goldens=perm.goldens,
        ),
        part_of(
            "detection", det, build_det_tasks(det, det_rows),
            specs=det.specs,
        ),
        part_of(
            "memory", mem, build_mem_tasks(mem, mem_rows), specs=mem.specs,
        ),
    ], groups)


def kernel_results(part, factory):
    """Per row of *part*, planned into one group: the kernel pass's
    completion tick, first injection tick, failure flag and
    monitor-bank records, finer than the row's outcome."""
    runner = BatchRunner([part], factory)
    (group,) = runner._groups
    job = GroupJob(
        rows=[VectorRow(case.case_id, inj) for case, inj in part.rows],
        cases=runner._cases, templates=runner._templates,
        specs=group.specs, factory=factory,
    )
    result = runner._kernel.run_group(job)
    return [
        (
            result.completion_tick[r], result.first_injection_tick[r],
            result.failed and result.failed[r], result.bank.row_records(r),
        )
        for r in range(len(job.rows))
    ]


#: the recorder-mask trap: a memory flip of a CLOCK/TIMER successor
#: cell (location 4) sends its row through a module slot off the
#: golden schedule while a permeability row of that module waits for
#: its flip; the off-schedule invocation must neither flip nor record
#: the permeability row
MASK_TRAP = {
    "tank": ([("LEVEL_S", 0, 0, 30, 6)], [(0, 1, 50, 3)], [(4, 0, 4, 3)], 1),
    "arrestment": (
        [("PRES_S", 0, 0, 30, 6)], [(0, 1, 50, 3)], [(4, 0, 4, 3)], 1,
    ),
}


def build_mem_tasks(campaign, rows):
    """Memory tasks mixing test cases freely: the batch planner must
    resolve each row against its own case's golden run (per-row golden
    indirection), exactly like per-case scalar execution does."""
    probe = campaign.factory(campaign.test_cases[0])
    locations = MemoryMap(probe.system).locations()
    tasks = []
    for loc_i, case_i, bit_i, phase_i in rows:
        location = locations[loc_i % len(locations)]
        tasks.append((
            location,
            campaign.test_cases[case_i],
            bit_i % location.valid_bits,
            phase_i % campaign.period_ticks,
        ))
    return tasks


def build_det_tasks(campaign, rows):
    system = campaign.factory(campaign.test_cases[0]).system
    signals = list(system.system_inputs())
    tasks = []
    for sig_i, case_i, tick, bit in rows:
        signal = signals[sig_i % len(signals)]
        width = system.signal(signal).width
        tasks.append(
            (signal, campaign.test_cases[case_i], tick, bit % width)
        )
    return tasks


class TestWatertankProperties:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=perm_rows(TANK_PORTS, TANK_TICKS))
    @example(
        drawn=(
            [("TIMER", 0, 0, 0, 0), ("TIMER", 0, 1, 0, 1),
             ("LEVEL_S", 0, 1, 0, 3)],
            1,
        )
    )
    @example(
        drawn=(
            [("CTRL", 0, 0, TANK_TICKS - 1, 2), ("FLOW_S", 0, 1, 0, 0),
             ("CTRL", 2, 0, 77, 5)],
            1,
        )
    )
    def test_permeability_batch_equals_scalar(self, tank_perm, drawn):
        rows, groups = drawn
        tasks = build_perm_tasks(tank_perm, TANK_PORTS, rows)
        check_batch(
            "permeability", tank_perm, tasks, groups,
            goldens=tank_perm.goldens,
        )

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=det_rows(TANK_TICKS))
    @example(drawn=([(0, 0, 0, 9), (1, 1, TANK_TICKS - 1, 0)], 1))
    def test_detection_batch_equals_scalar(self, tank_det, drawn):
        rows, groups = drawn
        tasks = build_det_tasks(tank_det, rows)
        check_batch(
            "detection", tank_det, tasks, groups, specs=tank_det.specs
        )

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=mem_rows())
    @example(drawn=([(0, 0, 0, 0), (0, 1, 0, 0)], 1))  # cross-case pair
    @example(drawn=([(79, 0, 3, 19), (79, 1, 3, 19), (200, 0, 1, 0)], 1))
    def test_memory_batch_equals_scalar(self, tank_mem, drawn):
        rows, groups = drawn
        tasks = build_mem_tasks(tank_mem, rows)
        check_batch(
            "memory", tank_mem, tasks, groups, specs=tank_mem.specs,
        )


    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=mixed_rows(TANK_PORTS, TANK_TICKS))
    @example(drawn=MASK_TRAP["tank"])
    def test_mixed_groups_equal_single_kind_groups(
        self, tank_perm, tank_det, tank_mem, drawn
    ):
        check_mixed_drawn(tank_perm, tank_det, tank_mem, TANK_PORTS, drawn)


class TestArrestmentTail:
    """Rows that leave the arrestment kernel for the scalar simulator
    end with the kernel results the loop gives them: the scalar finish
    resumes each part of the exported state."""

    @pytest.mark.parametrize("kind, rows, tail", [
        # at tick 4762 the CALC.i argument row is armed, its strike due
        # at CALC's next invocation
        ("memory", [(255, 1, 1, 189), (90, 0, 3, 10)], 1),
        # at tick 4762 the first row has latched completion (tick 4756)
        # and its bank holds reference values
        ("memory", [(17, 1, 0, 287), (255, 1, 1, 189)], 1),
        # at tick 0, before either row's phase
        ("memory", [(81, 0, 4, 19), (72, 0, 7, 6)], 2),
        # at tick 4802, before the second row's flip tick
        ("detection", [(3, 1, 4844, 24), (7, 0, 5455, 49)], 1),
    ], ids=["armed", "latched", "phase-ahead", "flip-ahead"])
    def test_tail_results_equal_loop_results(
        self, arrest_mem, arrest_det, kind, rows, tail
    ):
        if kind == "memory":
            part = part_of(
                kind, arrest_mem, build_mem_tasks(arrest_mem, rows),
                specs=arrest_mem.specs,
            )
        else:
            part = part_of(
                kind, arrest_det, build_det_tasks(arrest_det, rows),
                specs=arrest_det.specs,
            )
        with tail_rows(tail, len(rows)):
            tailed = kernel_results(part, arrest_prop_factory)
        with tail_rows(0, len(rows)):
            looped = kernel_results(part, arrest_prop_factory)
        assert tailed == looped


def permeability_fields(part, factory, settle):
    """Per row of *part*, planned into one group: what its
    permeability outcome reads of the kernel pass — injected, first
    injection tick, whether the flip came after completion, and the
    recorded streams up to the golden length — and the tick at which
    the row left the loop.  *settle* hands the kernel the golden
    lengths, so rows leave once their outcome is fixed."""
    runner = BatchRunner([part], factory)
    rows = [VectorRow(case.case_id, inj) for case, inj in part.rows]
    golden = [
        len(runner._golden_streams[(row.case_id, row.injection.module)][0])
        for row in rows
    ]
    left = {}
    leave = InvocationRecorder.leave

    def spy(self, mask):
        for r in (mask & self._live).nonzero()[0].tolist():
            left[r] = self.tick
        return leave(self, mask)

    with mock.patch.object(InvocationRecorder, "leave", spy):
        result = runner._kernel.run_group(GroupJob(
            rows=rows, cases=runner._cases, templates=runner._templates,
            factory=factory, golden=golden if settle else None,
        ))
    streams = result.streams
    fields = []
    for r, length in enumerate(golden):
        first = result.first_injection_tick[r]
        completed = result.completion_tick[r]
        n = min(length, int(streams.rec_len[r]))
        fields.append((
            result.injected[r], first,
            None not in (first, completed) and first > completed,
            streams.rec_ins[r][:n].tolist(), streams.rec_outs[r][:n].tolist(),
        ))
    return fields, [left.get(r) for r in range(len(rows))]


class TestPermeabilityExit:
    """A permeability row leaves the arrestment loop once its flip has
    struck and its recorded stream is as long as its golden stream;
    what its outcome reads equals a pass in which it runs to its end."""

    @pytest.mark.parametrize("rows", [
        # CLOCK's slot number flipped at tick 0: each row records its
        # own schedule, and both outlive the golden run (7,082 ticks)
        [("CLOCK", 0, 0, 0, 5), ("CLOCK", 0, 0, 0, 3)],
        # flips that delay the arrest: the rows outlive their golden
        # runs (354 and 240 invocations), so their completion ticks
        # are never reached
        [("V_REG", 0, 0, 4328, 14), ("CALC", 2, 1, 2033, 12)],
        # flips due at ticks 7,061 and 4,790 strike at the last
        # invocation of their golden streams (ticks 7,070 and 4,790),
        # after completion: the streams reach golden length only then
        [("V_REG", 0, 0, 7061, 3), ("V_REG", 1, 1, 4790, 11)],
    ], ids=["clock-tick-0", "outlives-golden", "flip-at-golden-length"])
    def test_settled_rows_read_as_if_run_to_the_end(self, exit_perm, rows):
        part = part_of(
            "permeability", exit_perm,
            build_perm_tasks(exit_perm, ARREST_PORTS, rows),
            goldens=exit_perm.goldens,
        )
        settled, settled_left = permeability_fields(
            part, exit_prop_factory, True
        )
        ran, ran_left = permeability_fields(part, exit_prop_factory, False)
        assert settled == ran
        # every row took the exit, before it would have left
        assert all(
            early < late for early, late in zip(settled_left, ran_left)
        )


@pytest.mark.slow
class TestArrestmentProperties:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=perm_rows(ARREST_PORTS, ARREST_TICKS))
    @example(
        drawn=(
            [("CLOCK", 0, 0, 0, 0), ("CLOCK", 0, 1, 0, 3),
             ("V_REG", 1, 0, 0, 4)],
            1,
        )
    )
    @example(
        drawn=(
            [("DIST_S", 0, 0, ARREST_TICKS - 1, 1), ("CALC", 1, 1, 10, 0)],
            1,
        )
    )
    def test_permeability_batch_equals_scalar(self, arrest_perm, drawn):
        rows, groups = drawn
        tasks = build_perm_tasks(arrest_perm, ARREST_PORTS, rows)
        check_batch(
            "permeability", arrest_perm, tasks, groups,
            goldens=arrest_perm.goldens,
        )

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=det_rows(ARREST_TICKS), tail=st.integers(0, 5))
    @example(drawn=([(3, 0, 0, 2), (0, 1, ARREST_TICKS - 1, 0)], 1), tail=0)
    # the tail starts at tick 4802, before the second row's flip tick
    @example(drawn=([(3, 1, 4844, 24), (7, 0, 5455, 49)], 1), tail=1)
    def test_detection_batch_equals_scalar(self, arrest_det, drawn, tail):
        rows, groups = drawn
        tasks = build_det_tasks(arrest_det, rows)
        with tail_rows(tail, len(rows)):
            check_batch(
                "detection", arrest_det, tasks, groups,
                specs=arrest_det.specs,
            )

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=mem_rows(), tail=st.integers(0, 5))
    # CLOCK's successor table: flips re-wire the dispatch cycle
    @example(drawn=([(4, 0, 0, 3), (13, 1, 2, 17), (21, 0, 1, 0)], 1), tail=0)
    # the ms_slot_nbr backing store: the slot number itself
    @example(drawn=([(22, 0, 1, 5), (22, 1, 0, 11)], 1), tail=0)
    # stack cells: CLOCK's next_slot local, V_REG.err's sign byte and
    # the DIST_S.TIC1 argument
    @example(
        drawn=([(79, 0, 2, 0), (107, 1, 7, 9), (81, 0, 4, 19)], 1), tail=0
    )
    # RAM cells that re-quantize after the flip: V_REG.integ's sign bit
    # (INT) and the stopped flag's backing store (BOOL)
    @example(drawn=([(72, 0, 7, 6), (45, 1, 0, 13)], 1), tail=0)
    # the sparse tail: at tick 4762 the CALC.i argument row is armed,
    # its strike not yet due
    @example(drawn=([(255, 1, 1, 189), (90, 0, 3, 10)], 1), tail=1)
    # ... at tick 4762 a row has latched completion (tick 4756) but is
    # still inside its post-stop window
    @example(drawn=([(17, 1, 0, 287), (255, 1, 1, 189)], 1), tail=1)
    # ... at tick 0, before either row's phase (19 and 6)
    @example(drawn=([(81, 0, 4, 19), (72, 0, 7, 6)], 1), tail=2)
    def test_memory_batch_equals_scalar(self, arrest_mem, drawn, tail):
        rows, groups = drawn
        tasks = build_mem_tasks(arrest_mem, rows)
        with tail_rows(tail, len(rows)):
            check_batch(
                "memory", arrest_mem, tasks, groups,
                specs=arrest_mem.specs,
            )

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        drawn=mixed_rows(ARREST_PORTS, ARREST_TICKS),
        tail=st.integers(0, 9),
    )
    @example(drawn=MASK_TRAP["arrestment"], tail=0)
    def test_mixed_groups_equal_single_kind_groups(
        self, arrest_perm, arrest_det, arrest_mem, drawn, tail
    ):
        rows = sum(len(kind) for kind in drawn[:3])
        with tail_rows(tail, rows):
            check_mixed_drawn(
                arrest_perm, arrest_det, arrest_mem, ARREST_PORTS, drawn
            )
