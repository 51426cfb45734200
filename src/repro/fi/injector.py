"""Fault injector: applies an error-model specification to a run.

One :class:`FaultInjector` executes exactly one injection
specification (see :mod:`repro.fi.models`) against one simulator run,
through the simulator's hook points:

* system-input flips strike in the pre-tick phase, right after the
  environment refreshed the sensor registers;
* module-input flips strike in the argument-marshaling hook of the
  targeted module;
* periodic RAM flips strike state cells / signal backing stores in the
  pre-tick phase at every period boundary;
* periodic stack flips are *armed* at every period boundary and strike
  the owning module's next argument marshaling or local write.

Every applied flip is recorded as an :class:`InjectionEvent`, so a
campaign can tell whether (and when) the error was actually introduced
— the paper only counts errors "injected before the arrestment ... was
completed" as active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import InjectionError
from repro.fi.memory import CellKind, MemoryLocation, Region
from repro.fi.models import (
    InputSignalFlip,
    ModuleInputFlip,
    PeriodicMemoryFlip,
)
from repro.model.signal import Number, flip_bit

__all__ = ["InjectionEvent", "FaultInjector"]

InjectionSpec = Union[InputSignalFlip, ModuleInputFlip, PeriodicMemoryFlip]


@dataclass(frozen=True)
class InjectionEvent:
    """One applied bit flip."""

    tick: int
    target: str
    before: Number
    after: Number


class FaultInjector:
    """Applies one injection specification to one simulator run.

    Create a fresh injector per run and attach it *before* calling
    ``simulator.run()``.
    """

    def __init__(self, spec: InjectionSpec):
        self.spec = spec
        self.events: List[InjectionEvent] = []
        self._armed = False
        self._done = False
        self._simulator = None

    # ------------------------------------------------------------------
    # Attachment.
    # ------------------------------------------------------------------
    def attach(self, simulator) -> "FaultInjector":
        """Register this injector's handlers on *simulator*."""
        if self._simulator is not None:
            raise InjectionError("injector is already attached to a run")
        self._simulator = simulator
        spec = self.spec
        if isinstance(spec, InputSignalFlip):
            self._check_input_signal(simulator, spec)
            simulator.add_pre_tick(self._input_flip_pre_tick)
        elif isinstance(spec, ModuleInputFlip):
            self._check_module_input(simulator, spec)
            simulator.add_marshal(self._module_input_marshal)
        elif isinstance(spec, PeriodicMemoryFlip):
            simulator.add_pre_tick(self._memory_pre_tick)
            if spec.location.kind is CellKind.ARG:
                simulator.add_marshal(self._stack_arg_marshal)
            elif spec.location.kind is CellKind.LOCAL:
                simulator.add_local_write(self._stack_local_write)
        else:
            raise InjectionError(
                f"unsupported injection specification {spec!r}"
            )
        return self

    @staticmethod
    def _check_input_signal(simulator, spec: InputSignalFlip) -> None:
        sig = simulator.system.signal(spec.signal)
        if not sig.is_system_input:
            raise InjectionError(
                f"{spec.signal!r} is not a system input signal"
            )
        if spec.bit >= sig.width:
            raise InjectionError(
                f"bit {spec.bit} out of range for {spec.signal!r} "
                f"(width {sig.width})"
            )

    @staticmethod
    def _check_module_input(simulator, spec: ModuleInputFlip) -> None:
        module = simulator.system.module(spec.module)
        if spec.port not in module.inputs:
            raise InjectionError(
                f"module {spec.module!r} has no input port {spec.port!r}"
            )
        signal = simulator.system.signal_of_input(spec.module, spec.port)
        width = simulator.system.signal(signal).width
        if spec.bit >= width:
            raise InjectionError(
                f"bit {spec.bit} out of range for {spec.module}.{spec.port} "
                f"(width {width})"
            )

    # ------------------------------------------------------------------
    # Status.
    # ------------------------------------------------------------------
    @property
    def injected(self) -> bool:
        """Whether at least one flip was actually applied."""
        return bool(self.events)

    @property
    def first_injection_tick(self) -> Optional[int]:
        return self.events[0].tick if self.events else None

    @property
    def ff_quiescent(self) -> bool:
        """Whether this injector can no longer perturb the run: its
        one-shot flip has been applied and nothing is armed.  Periodic
        specs never quiesce, so fast-forward resynchronization (which
        requires a provably undisturbed future) stays disabled for
        them."""
        if isinstance(self.spec, PeriodicMemoryFlip):
            return False
        return self._done and not self._armed

    def _record(self, tick: int, target: str, before: Number, after: Number) -> None:
        self.events.append(InjectionEvent(tick, target, before, after))

    def resume(
        self, first_tick: Optional[int], armed: bool = False
    ) -> "FaultInjector":
        """Seed this injector for a run restored mid-engagement from a
        state in which its spec already struck: first at *first_tick*
        (``None``: not yet, so a one-shot flip is still ahead), and
        with a stack strike *armed* but not yet consumed.  The flips
        before the resume point stand as one event at *first_tick*
        without values, which is all :attr:`injected` and
        :attr:`first_injection_tick` read."""
        if first_tick is not None:
            self._record(first_tick, self.spec.label, None, None)
            self._done = True
        self._armed = armed
        return self

    # ------------------------------------------------------------------
    # InputSignalFlip.
    # ------------------------------------------------------------------
    def _input_flip_pre_tick(self, tick: int) -> None:
        spec = self.spec
        if self._done or tick != spec.tick:
            return
        corrupt = getattr(self._simulator, "corrupt_input", None)
        if corrupt is not None:
            # persistent register corruption (see the simulator's
            # corrupt_input docstring)
            before, after = corrupt(spec.signal, spec.bit)
        else:
            store = self._simulator.executor.store
            sig = self._simulator.system.signal(spec.signal)
            before = store[spec.signal]
            after = sig.flip_bit(before, spec.bit)
            store.poke(spec.signal, after)
        self._record(tick, spec.signal, before, after)
        self._done = True

    # ------------------------------------------------------------------
    # ModuleInputFlip.
    # ------------------------------------------------------------------
    def _module_input_marshal(
        self, module: str, args: Dict[str, Number]
    ) -> Dict[str, Number]:
        spec = self.spec
        if self._done or module != spec.module:
            return args
        tick = self._simulator.executor.tick
        if tick < spec.from_tick:
            return args
        signal = self._simulator.system.signal_of_input(module, spec.port)
        sig = self._simulator.system.signal(signal)
        before = args[spec.port]
        after = sig.flip_bit(before, spec.bit)
        args = dict(args)
        args[spec.port] = after
        self._record(tick, f"{module}.{spec.port}", before, after)
        self._done = True
        return args

    # ------------------------------------------------------------------
    # PeriodicMemoryFlip.
    # ------------------------------------------------------------------
    def _memory_pre_tick(self, tick: int) -> None:
        spec = self.spec
        # strike only at period boundaries
        if tick < spec.start_tick or (tick - spec.start_tick) % spec.period_ticks:
            return
        location = spec.location
        if location.kind is CellKind.STATE:
            module = self._simulator.system.module(location.module)
            cell = module.state.spec(location.cell)
            before = module.state.peek(location.cell)
            after = flip_bit(
                before,
                location.bit_in_cell(spec.bit_in_byte),
                cell.cell_type,
                cell.width,
            )
            module.state.poke(location.cell, after)
            self._record(tick, location.label, before, after)
        elif location.kind is CellKind.SIGNAL:
            store = self._simulator.executor.store
            sig = self._simulator.system.signal(location.cell)
            before = store[location.cell]
            after = sig.flip_bit(
                before, location.bit_in_cell(spec.bit_in_byte)
            )
            store.poke(location.cell, after)
            self._record(tick, location.label, before, after)
        else:
            # stack location: arm the corruption for the next use
            self._armed = True

    def _stack_arg_marshal(
        self, module: str, args: Dict[str, Number]
    ) -> Dict[str, Number]:
        spec = self.spec
        location = spec.location
        if not self._armed or module != location.module:
            return args
        signal = self._simulator.system.signal_of_input(module, location.cell)
        sig = self._simulator.system.signal(signal)
        before = args[location.cell]
        after = sig.flip_bit(before, location.bit_in_cell(spec.bit_in_byte))
        args = dict(args)
        args[location.cell] = after
        self._record(
            self._simulator.executor.tick, location.label, before, after
        )
        self._armed = False
        return args

    def _stack_local_write(
        self, module: str, name: str, value: Number
    ) -> Number:
        spec = self.spec
        location = spec.location
        if (
            not self._armed
            or module != location.module
            or name != location.cell
        ):
            return value
        local_spec = next(
            cell
            for cell in self._simulator.system.module(module).local_specs
            if cell.name == name
        )
        after = flip_bit(
            value,
            location.bit_in_cell(spec.bit_in_byte),
            local_spec.cell_type,
            local_spec.width,
        )
        self._record(
            self._simulator.executor.tick, location.label, value, after
        )
        self._armed = False
        return after
