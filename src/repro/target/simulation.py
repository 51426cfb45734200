"""Closed-loop arrestment simulation: software, plant, and verdict.

One :class:`ArrestmentSimulator` owns one engagement: it drives the
slot-scheduled software at the 1 ms tick, feeds the peripheral
registers from the plant's true state, applies the commanded brake
pressure back to the plant, and classifies the outcome.  Hooks expose
every marshaling, local write, and invocation to the fault injector;
:class:`SignalTraces` records the per-signal write streams that the
golden-run comparison diffs.

The simulator is checkpointable: :meth:`ArrestmentSimulator.capture_state`
freezes the full closed loop (store, module locals, plant, registers,
classifier accumulators, loop bookkeeping) at the top of a tick and
:meth:`ArrestmentSimulator.restore_state` resumes from it
bit-identically — the substrate of the fast-forward engine in
``repro.fi.snapshot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.model.signal import Number
from repro.model.system import (
    HookedSimulator,
    SignalTraces,
    SlotSchedule,
    SystemModel,
)
from repro.target import constants as C
from repro.target.failure import FailureClassifier, FailureVerdict
from repro.target.hardware import SensorSuite
from repro.target.physics import ArrestmentPlant
from repro.target.testcases import TestCase
from repro.target.wiring import build_arrestment_system

__all__ = [
    "SignalTraces",
    "SimulatorState",
    "ArrestmentResult",
    "ArrestmentSimulator",
]


@dataclass
class SimulatorState:
    """Full closed-loop simulator state at the top of one tick.

    Captured before the sensor advance of ``tick``; restoring into a
    fresh simulator of the same test case and resuming ``run()``
    replays the remaining ticks bit-identically.  ``traces`` is a
    reference to the capturing simulator's trace object (golden
    checkpoints keep it so a restorer can splice the recorded prefix);
    :meth:`matches` ignores trace bookkeeping.
    """

    tick: int
    signals: Dict[str, Number]
    modules: Dict[str, Dict[str, Number]]
    plant: dict
    sensors: dict
    classifier: object
    loop: dict
    trace_lengths: Dict[str, int] = field(default_factory=dict)
    traces: Optional[SignalTraces] = None

    def matches(self, other: "SimulatorState") -> bool:
        """Exact state equality, ignoring trace bookkeeping."""
        return (
            self.tick == other.tick
            and self.signals == other.signals
            and self.modules == other.modules
            and self.plant == other.plant
            and self.sensors == other.sensors
            and self.classifier == other.classifier
            and self.loop == other.loop
        )


@dataclass
class ArrestmentResult:
    """Outcome of one simulated engagement."""

    test_case: TestCase
    ticks_run: int
    completion_tick: Optional[int]
    verdict: FailureVerdict
    traces: SignalTraces
    stop_distance_m: float
    stop_time_s: float

    @property
    def arrested(self) -> bool:
        return self.completion_tick is not None

    @property
    def failed(self) -> bool:
        return self.verdict.failed


class ArrestmentSimulator(HookedSimulator):
    """One engagement of the arrestment system."""

    _REGISTER_OF = {
        "PACNT": "pacnt",
        "TIC1": "tic1",
        "TCNT": "tcnt",
        "ADC": "adc",
    }

    def __init__(
        self,
        test_case: TestCase,
        timeout_s: float = C.DEFAULT_TIMEOUT_S,
        record_traces: bool = True,
        system: Optional[SystemModel] = None,
        module_slots: Optional[Dict[str, int]] = None,
    ):
        self.test_case = test_case
        self.timeout_s = timeout_s
        if system is None:
            system = build_arrestment_system(
                pressure_scale=C.pressure_scale_counts(test_case.mass_kg)
            )
        if module_slots is None:
            module_slots = dict(C.MODULE_SLOTS)
        self.module_slots = dict(module_slots)
        schedule = SlotSchedule(C.N_SLOTS)
        schedule.every_tick("CLOCK")
        for module, slot in self.module_slots.items():
            schedule.assign(slot, module)
        super().__init__(system, schedule, record_traces)
        self.plant = ArrestmentPlant(
            test_case.mass_kg, test_case.engaging_velocity_ms
        )
        self.sensors = SensorSuite()
        self.classifier = FailureClassifier(test_case)
        self._completion: Optional[int] = None
        self._stop_tick: Optional[int] = None
        self._ticks_run = 0
        self._start_tick = 0

    # ------------------------------------------------------------------
    # Checkpointing.
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
            classifier=self.classifier.snapshot(),
            loop={
                "completion": self._completion,
                "stop_tick": self._stop_tick,
                "ticks_run": self._ticks_run,
            },
            trace_lengths=self.traces.lengths() if self._record_traces else {},
            traces=self.traces if self._record_traces else None,
        )

    def restore_state(
        self, state: SimulatorState, restore_traces: bool = True
    ) -> None:
        """Resume from a :meth:`capture_state` snapshot: the next
        :meth:`run` starts at ``state.tick`` and replays the remaining
        ticks bit-identically.  With ``restore_traces`` (and recording
        enabled on both sides) the recorded prefix is spliced in, so
        the final traces equal an uninterrupted run's."""
        self.executor.tick = state.tick
        self._start_tick = state.tick
        self.executor.store.restore(state.signals)
        for module in self.system.modules():
            module.state.restore(state.modules[module.name])
        self.plant.restore(state.plant)
        self.sensors.restore(state.sensors)
        self.classifier.restore(state.classifier)
        loop = state.loop
        self._completion = loop["completion"]
        self._stop_tick = loop["stop_tick"]
        self._ticks_run = loop["ticks_run"]
        if restore_traces and self._record_traces and state.traces is not None:
            self.traces.splice_prefix(state.traces, state.trace_lengths)

    # ------------------------------------------------------------------
    # The engagement loop.
    # ------------------------------------------------------------------
    def run(self) -> ArrestmentResult:
        executor = self.executor
        run_tick = executor.run_tick
        values = executor.store.values
        plant = self.plant
        sensors = self.sensors
        observe = self.classifier.observe
        commanded_pressure = SensorSuite.commanded_pressure
        registers = self._registers
        traces = self.traces if self._record_traces else None
        max_ticks = int(self.timeout_s / C.TICK_S)
        abort_distance = C.MAX_STOPPING_DISTANCE_M + C.OVERRUN_ABORT_MARGIN_M
        probe = self._tick_probe
        tick = self._start_tick
        while tick < max_ticks:
            if probe is not None and probe(tick):
                break
            state = plant.state
            sensors.advance(state.distance_m, state.pressure_pa)
            for signal, attr, quantize in registers:
                value = values[signal] = quantize(getattr(sensors, attr))
                if traces is not None:
                    traces.record(signal, tick, value)
            run_tick("ms_slot_nbr")
            state = plant.step(commanded_pressure(values["TOC2"]))
            observe(state)
            self._ticks_run = tick + 1
            if state.velocity_ms == 0.0:
                if self._stop_tick is None:
                    self._stop_tick = tick
                if self._completion is None and values["stopped"]:
                    self._completion = tick
            if (
                self._completion is not None
                and tick >= self._completion + C.POST_STOP_TICKS
            ):
                break
            if state.distance_m > abort_distance:
                break
            tick += 1
        ticks_run = self._ticks_run
        stop_tick = self._stop_tick
        return ArrestmentResult(
            test_case=self.test_case,
            ticks_run=ticks_run,
            completion_tick=self._completion,
            verdict=self.classifier.verdict(
                arrested=self._completion is not None
            ),
            traces=self.traces,
            stop_distance_m=self.plant.state.distance_m,
            stop_time_s=(
                stop_tick if stop_tick is not None else ticks_run
            ) * C.TICK_S,
        )
