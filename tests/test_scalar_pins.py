"""Pinned outputs of the scalar simulators.

The scalar simulator is the oracle every faster path is checked
against, so tier-1 pins its outputs as literal values: a change to the
tick loop, the executor, the hook plumbing or a module body that moves
one simulated value fails here, without the end-to-end benchmark.
The telemetry variant is pinned too: the vector kernels refuse it, so
no A/B suite compares it against anything.

A deliberate change to the target re-records these values together
with ``perfbench/references.json``.
"""

from __future__ import annotations

import pytest

from repro.edm.catalogue import EA_BY_NAME
from repro.edm.monitors import MonitorBank
from repro.fi.injector import FaultInjector
from repro.fi.integrity import run_digest
from repro.fi.memory import MemoryMap
from repro.fi.models import PeriodicMemoryFlip
from repro.target import constants as C
from repro.target.hardware import SensorSuite
from repro.target.physics import ArrestmentPlant
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import standard_test_cases
from repro.target.variants import telemetry_simulator
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases

#: (factory, case id) -> (digest, verdict kinds, stop distance m,
#: peak retardation g, ticks run, completion tick)
ARRESTMENT_PINS = {
    (ArrestmentSimulator, 0): (
        "b7e278a36e5886734e60fd474402f43e937da9d28563d397bddce94af338517c",
        (), 86.84724068698222, 1.5256141444879414, 4162, 4121,
    ),
    (ArrestmentSimulator, 12): (
        "efcafc4f5c55b1cf955a83ba1d145977b49593251c809cff04ab1e81ae399aab",
        (), 159.7481089140562, 1.387073909693973, 5502, 5461,
    ),
    (ArrestmentSimulator, 24): (
        "0c3957dde71238a9b2077028bdaad6549590366c9b0c56c7c6a152a55de5daed",
        (), 264.4891699351262, 1.3344576452328487, 7082, 7041,
    ),
    (telemetry_simulator, 12): (
        "9a381c95d604b0fe36f3a3396d10d733971ab09a33e6f9f0b5b79784f209cb5d",
        (), 159.7481089140562, 1.387073909693973, 5502, 5461,
    ),
}

#: case id -> (digest, failed, kinds, peak level m, min level m)
TANK_PINS = {
    0: (
        "156eafec4ac0428b8f191599ca18578703542605c608cd122aaac2039b618410",
        False, [], 2.011445526605224, 2.0,
    ),
    8: (
        "41dc3ba5fd8363671db04c314818a973b0450185f848adb2ab0c6ec4a5747a3e",
        False, [], 2.035236734945701, 1.9847455460156096,
    ),
}

#: injected mid-case runs, one per injector hook point (pre-tick RAM
#: flip, argument marshal, local write), every 500 ticks from tick 40
#: with the full EA bank attached: (location, bit) -> (digest, stop
#: distance m, flips applied, EAs fired)
INJECTED_PINS = {
    ("ram:V_REG.integ+3", 7): (
        "5e1d71912803038f93d994c8f6d6a00757cbb5cfaa72062f065e9cae2f738298",
        130.55621808000595, 10, ["EA2", "EA7"],
    ),
    ("stack:PRES_S.ADC", 6): (
        "1b96ba5e674bf00be06426ce2296683c75ae20514272dbfbd4f0020f90b751a6",
        159.76194413502157, 12, [],
    ),
    ("stack:V_REG.err+1", 5): (
        "f21df79be019bd09b80562d2a7bc8d8ee428c824ee430d3ea0c990f0a8f0202d",
        158.06122458492328, 12, [],
    ),
}


@pytest.mark.parametrize(
    "factory, case_id", list(ARRESTMENT_PINS),
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_arrestment_golden_run_is_pinned(factory, case_id):
    digest, kinds, stop_m, peak_g, ticks, completion = ARRESTMENT_PINS[
        (factory, case_id)
    ]
    result = factory(standard_test_cases()[case_id]).run()
    assert run_digest(result) == digest
    assert tuple(kind.value for kind in result.verdict.kinds) == kinds
    assert result.stop_distance_m == stop_m
    assert result.verdict.peak_retardation_g == peak_g
    assert (result.ticks_run, result.completion_tick) == (ticks, completion)


@pytest.mark.parametrize("case_id", list(TANK_PINS))
def test_watertank_golden_run_is_pinned(case_id):
    digest, failed, kinds, peak_m, min_m = TANK_PINS[case_id]
    result = WaterTankSimulator(standard_tank_cases()[case_id]).run()
    assert run_digest(result) == digest
    verdict = result.verdict
    assert (verdict.failed, verdict.kinds) == (failed, kinds)
    assert (verdict.peak_level_m, verdict.min_level_m) == (peak_m, min_m)


@pytest.mark.parametrize(
    "label, bit", list(INJECTED_PINS), ids=lambda v: str(v)
)
def test_injected_run_is_pinned(label, bit):
    digest, stop_m, flips, fired = INJECTED_PINS[(label, bit)]
    simulator = ArrestmentSimulator(standard_test_cases()[12])
    location = next(
        loc for loc in MemoryMap(simulator.system).locations()
        if loc.label == label
    )
    injector = FaultInjector(
        PeriodicMemoryFlip(location, bit, period_ticks=500, start_tick=40)
    ).attach(simulator)
    bank = MonitorBank(list(EA_BY_NAME.values())).attach(simulator)
    result = simulator.run()
    assert run_digest(result) == digest
    assert result.stop_distance_m == stop_m
    assert len(injector.events) == flips
    assert sorted(bank.fired_eas()) == fired


# ======================================================================
# The per-tick clamps are min/max spelled as comparisons.
# ======================================================================
EDGES = [
    float("nan"), float("-inf"), -1e9, -1.0, -0.0, 0.0, 1e-300, 0.5,
    0.999999, 1.0, 1.0000001, 2.0, 1e9, float("inf"),
]


def _same(a, b):
    """Same type and value, NaN equal to NaN, -0.0 unlike 0.0."""
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("fraction", EDGES)
def test_clamps_resolve_ties_and_nan_as_min_max(fraction):
    full = (1 << C.TOC2_BITS) - 1
    toc2 = fraction * full
    assert _same(
        SensorSuite.commanded_pressure(toc2),
        min(max(toc2 / full, 0.0), 1.0) * C.P_MAX_PA,
    )

    pressure = fraction * C.ADC_FULL_SCALE_PA
    adc_full = (1 << C.ADC_BITS) - 1
    sensors = SensorSuite()
    try:
        expected = min(adc_full, int(
            min(max(pressure / C.ADC_FULL_SCALE_PA, 0.0), 1.0) * adc_full
        ))
    except ValueError:  # int(nan)
        with pytest.raises(ValueError):
            sensors.advance(0.0, pressure)
    else:
        sensors.advance(0.0, pressure)
        assert _same(sensors.adc, expected)

    commanded = fraction * C.P_MAX_PA
    plant = ArrestmentPlant(14000.0, 55.0)
    plant.step(commanded)
    clamped = min(max(commanded, 0.0), C.P_MAX_PA)
    assert _same(
        plant.state.pressure_pa,
        0.0 + (clamped - 0.0) * C.TICK_S / C.ACTUATOR_TAU_S,
    )
