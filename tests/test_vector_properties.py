"""Property tests: a batch of N rows equals N scalar runs.

Hypothesis drives random modules/ports/signals, injection ticks, bits
and batch widths through :class:`~repro.fi.vector.BatchRunner` on both
targets and requires bit-identical outcomes against the campaigns'
scalar ``_one_run``.  Permeability batches always mix modules.
Explicit examples pin the two structural edge cases: tick-0 dispatch
divergence (the diverged rows retire) and rows whose flip lands on
the very last tick; the arrestment memory examples pin flips on the
dispatch chain, on stack cells and on RAM cells that re-quantize.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
)
from repro.fi.memory import MemoryMap
from repro.fi.vector import BatchRunner
from repro.edm.catalogue import EA_BY_NAME
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import standard_test_cases
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases

TANK_TICKS = 200
ARREST_TIMEOUT_S = 6.0
ARREST_TICKS = 6000


def tank_prop_factory(tc):
    return WaterTankSimulator(tc, mission_ticks=TANK_TICKS)


def arrest_prop_factory(tc):
    return ArrestmentSimulator(tc, timeout_s=ARREST_TIMEOUT_S)


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
def arrest_det():
    cases = standard_test_cases()
    return DetectionCampaign(
        arrest_prop_factory, [cases[4], cases[20]],
        list(EA_BY_NAME.values()), runs_per_signal=1, seed=5,
    )


def check_batch(kind, campaign, tasks, width, **kwargs):
    def scalar(index):
        return campaign._one_run(*tasks[index])

    rows = [campaign._row(task) for task in tasks]
    runner = BatchRunner(
        kind, rows, scalar, width, campaign.factory, **kwargs
    )
    batched = [runner(i) for i in range(len(tasks))]
    assert batched == [scalar(i) for i in range(len(tasks))]


def perm_rows(ports, max_tick):
    """(rows of (module, port_i, case_i, tick, bit_i), width); the
    first two rows — batched together at any width — differ in module,
    so every example runs a mixed-module batch."""
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
        st.integers(2, 6),  # batch width
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
        st.integers(2, 6),
    )


def mem_rows():
    """(rows of (location_i, case_i, bit_i, phase_i), width)."""
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
        st.integers(2, 6),
    )


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
            4,
        )
    )
    @example(
        drawn=(
            [("CTRL", 0, 0, TANK_TICKS - 1, 2), ("FLOW_S", 0, 1, 0, 0),
             ("CTRL", 2, 0, 77, 5)],
            2,
        )
    )
    def test_permeability_batch_equals_scalar(self, tank_perm, drawn):
        rows, width = drawn
        tasks = build_perm_tasks(tank_perm, TANK_PORTS, rows)
        check_batch(
            "permeability", tank_perm, tasks, width,
            goldens=tank_perm.goldens,
        )

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=det_rows(TANK_TICKS))
    @example(drawn=([(0, 0, 0, 9), (1, 1, TANK_TICKS - 1, 0)], 3))
    def test_detection_batch_equals_scalar(self, tank_det, drawn):
        rows, width = drawn
        tasks = build_det_tasks(tank_det, rows)
        check_batch(
            "detection", tank_det, tasks, width, specs=tank_det.specs
        )

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=mem_rows())
    @example(drawn=([(0, 0, 0, 0), (0, 1, 0, 0)], 4))  # cross-case pair
    @example(drawn=([(79, 0, 3, 19), (79, 1, 3, 19), (200, 0, 1, 0)], 2))
    def test_memory_batch_equals_scalar(self, tank_mem, drawn):
        rows, width = drawn
        tasks = build_mem_tasks(tank_mem, rows)
        check_batch(
            "memory", tank_mem, tasks, width, specs=tank_mem.specs,
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
            4,
        )
    )
    @example(
        drawn=(
            [("DIST_S", 0, 0, ARREST_TICKS - 1, 1), ("CALC", 1, 1, 10, 0)],
            2,
        )
    )
    def test_permeability_batch_equals_scalar(self, arrest_perm, drawn):
        rows, width = drawn
        tasks = build_perm_tasks(arrest_perm, ARREST_PORTS, rows)
        check_batch(
            "permeability", arrest_perm, tasks, width,
            goldens=arrest_perm.goldens,
        )

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=det_rows(ARREST_TICKS))
    @example(drawn=([(3, 0, 0, 2), (0, 1, ARREST_TICKS - 1, 0)], 3))
    def test_detection_batch_equals_scalar(self, arrest_det, drawn):
        rows, width = drawn
        tasks = build_det_tasks(arrest_det, rows)
        check_batch(
            "detection", arrest_det, tasks, width, specs=arrest_det.specs
        )

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=mem_rows())
    # CLOCK's successor table: flips re-wire the dispatch cycle
    @example(drawn=([(4, 0, 0, 3), (13, 1, 2, 17), (21, 0, 1, 0)], 3))
    # the ms_slot_nbr backing store: the slot number itself
    @example(drawn=([(22, 0, 1, 5), (22, 1, 0, 11)], 2))
    # stack cells: CLOCK's next_slot local, V_REG.err's sign byte and
    # the DIST_S.TIC1 argument
    @example(drawn=([(79, 0, 2, 0), (107, 1, 7, 9), (81, 0, 4, 19)], 4))
    # RAM cells that re-quantize after the flip: V_REG.integ's sign bit
    # (INT) and the stopped flag's backing store (BOOL)
    @example(drawn=([(72, 0, 7, 6), (45, 1, 0, 13)], 2))
    def test_memory_batch_equals_scalar(self, arrest_mem, drawn):
        rows, width = drawn
        tasks = build_mem_tasks(arrest_mem, rows)
        check_batch(
            "memory", arrest_mem, tasks, width, specs=arrest_mem.specs,
        )
