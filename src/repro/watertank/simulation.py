"""Closed-loop water-tank mission simulation.

Shares its hook plumbing with the arrestment simulator
(:class:`~repro.model.system.HookedSimulator`: ``add_pre_tick`` /
``add_marshal`` / ``add_local_write`` / ``add_post_invoke`` /
``add_post_tick``, ``corrupt_input``, ``executor``) and runs the same
``run()`` contract, so every campaign driver of :mod:`repro.fi` works
against this target unchanged.

The mission is fixed-duration regulation: a run *completes* when the
full mission has been simulated (so every injection within the mission
is active), and it *fails* if any of the vessel's safety criteria was
violated: overflow (level >= 3.5 m), dry-run (level <= 0.5 m), or a
missed alarm (level above 3.0 m for more than a second with the alarm
line deasserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.model.system import HookedSimulator, SignalTraces, SlotSchedule
from repro.target.simulation import SimulatorState
from repro.watertank import constants as C
from repro.watertank.physics import InflowProfile, TankPlant, TankSensorSuite
from repro.watertank.testcases import TankTestCase
from repro.watertank.wiring import build_watertank_system

__all__ = ["TankVerdict", "TankMissionResult", "WaterTankSimulator"]


@dataclass
class TankVerdict:
    """Safety outcome of one mission."""

    failed: bool
    kinds: List[str] = field(default_factory=list)
    peak_level_m: float = 0.0
    min_level_m: float = 0.0

    def describe(self) -> str:
        if not self.failed:
            return (
                f"OK (level {self.min_level_m:.2f}..{self.peak_level_m:.2f} m)"
            )
        return (
            f"FAILURE [{', '.join(self.kinds)}] "
            f"(level {self.min_level_m:.2f}..{self.peak_level_m:.2f} m)"
        )


@dataclass
class TankMissionResult:
    test_case: TankTestCase
    ticks_run: int
    completion_tick: Optional[int]
    verdict: TankVerdict
    traces: SignalTraces

    @property
    def arrested(self) -> bool:  # campaign-compat alias: mission done
        return self.completion_tick is not None

    @property
    def failed(self) -> bool:
        return self.verdict.failed


class WaterTankSimulator(HookedSimulator):
    """One fixed-duration regulation mission."""

    _REGISTER_OF = {"LVL_ADC": "lvl_adc", "FLOW_CNT": "flow_cnt"}

    def __init__(
        self,
        test_case: TankTestCase,
        mission_ticks: int = C.MISSION_TICKS,
        record_traces: bool = True,
    ):
        self.test_case = test_case
        self.mission_ticks = mission_ticks
        schedule = SlotSchedule(C.N_SLOTS)
        schedule.every_tick("TIMER")
        for module, slot in C.MODULE_SLOTS.items():
            schedule.assign(slot, module)
        super().__init__(build_watertank_system(), schedule, record_traces)
        self.plant = TankPlant(
            InflowProfile(test_case.base_inflow_m3s, test_case.step_m3s)
        )
        self.sensors = TankSensorSuite()
        #: consecutive ticks with level above the alarm threshold while
        #: the alarm line is deasserted
        self._missed_alarm_ticks = 0
        self._failure_kinds: List[str] = []
        self._start_tick = 0

    # ------------------------------------------------------------------
    # The mission loop.
    # ------------------------------------------------------------------
    def _observe_safety(self, tick: int) -> None:
        level = self.plant.state.level_m
        if level >= C.MAX_LEVEL_M and "overflow" not in self._failure_kinds:
            self._failure_kinds.append("overflow")
        if level <= C.MIN_LEVEL_M and "dry_run" not in self._failure_kinds:
            self._failure_kinds.append("dry_run")
        alarm = self.executor.store["ALARM_OUT"]
        if level > C.ALARM_LEVEL_M and not alarm:
            self._missed_alarm_ticks += 1
            if (
                self._missed_alarm_ticks > C.ALARM_GRACE_TICKS
                and "missed_alarm" not in self._failure_kinds
            ):
                self._failure_kinds.append("missed_alarm")
        else:
            self._missed_alarm_ticks = 0

    # ------------------------------------------------------------------
    # Checkpointing (same contract as ArrestmentSimulator).
    # ------------------------------------------------------------------
    def capture_state(self) -> SimulatorState:
        """Freeze the full closed loop at the top of the current tick."""
        return SimulatorState(
            tick=self.executor.tick,
            signals=self.executor.store.snapshot(),
            modules={
                module.name: module.state.snapshot()
                for module in self.system.modules()
            },
            plant=self.plant.snapshot(),
            sensors=self.sensors.snapshot(),
            classifier=None,
            loop={
                "missed_alarm_ticks": self._missed_alarm_ticks,
                "failure_kinds": tuple(self._failure_kinds),
            },
            trace_lengths=self.traces.lengths() if self._record_traces else {},
            traces=self.traces if self._record_traces else None,
        )

    def restore_state(
        self, state: SimulatorState, restore_traces: bool = True
    ) -> None:
        """Resume from a :meth:`capture_state` snapshot (see the
        arrestment simulator for the contract)."""
        self.executor.tick = state.tick
        self._start_tick = state.tick
        self.executor.store.restore(state.signals)
        for module in self.system.modules():
            module.state.restore(state.modules[module.name])
        self.plant.restore(state.plant)
        self.sensors.restore(state.sensors)
        loop = state.loop
        self._missed_alarm_ticks = loop["missed_alarm_ticks"]
        self._failure_kinds = list(loop["failure_kinds"])
        if restore_traces and self._record_traces and state.traces is not None:
            self.traces.splice_prefix(state.traces, state.trace_lengths)

    def run(self) -> TankMissionResult:
        executor = self.executor
        run_tick = executor.run_tick
        values = executor.store.values
        plant = self.plant
        sensors = self.sensors
        registers = self._registers
        traces = self.traces if self._record_traces else None
        probe = self._tick_probe
        tick = self._start_tick
        while tick < self.mission_ticks:
            if probe is not None and probe(tick):
                break
            sensors.advance(plant.state.level_m, plant.total_inflow_m3)
            for signal, attr, quantize in registers:
                value = values[signal] = quantize(getattr(sensors, attr))
                if traces is not None:
                    traces.record(signal, tick, value)
            run_tick("tick_nbr")
            plant.step(TankSensorSuite.commanded_valve(values["VALVE_POS"]))
            self._observe_safety(tick)
            tick += 1
        return TankMissionResult(
            test_case=self.test_case,
            ticks_run=self.mission_ticks,
            completion_tick=self.mission_ticks - 1,
            verdict=TankVerdict(
                failed=bool(self._failure_kinds),
                kinds=list(self._failure_kinds),
                peak_level_m=self.plant.peak_level_m,
                min_level_m=self.plant.min_level_m,
            ),
            traces=self.traces,
        )
