"""System model: modules wired together by signals, plus execution.

A :class:`SystemModel` is the static description of a modular software
system in the sense of the paper's Section 3: a set of black-box
modules, a set of signals, and the wiring between them.  Every signal
is driven either by exactly one module output port or, for system
input signals, by the environment; every module input port reads
exactly one signal.

The runtime side consists of:

* :class:`SignalStore` — current value of every signal (the shared
  memory through which the modules communicate);
* :class:`SlotSchedule` — the slot-based, non-preemptive schedule of
  the target class of systems ("The scheduling is slot-based and
  non-preemptive", Section 4.1);
* :class:`SystemExecutor` — drives the modules tick by tick, with hook
  points used by the fault-injection substrate (argument marshaling,
  local writes, post-invocation output stores) and by the EDM
  substrate (signal monitors evaluated after each producing
  invocation);
* :class:`SignalTraces` — the per-signal write streams of one run;
* :class:`HookedSimulator` — the hook plumbing every closed-loop
  simulator shares: handler registration, trace recording, the
  top-of-tick probe and register corruption.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ModelError,
    SchedulingError,
    UnknownModuleError,
    UnknownSignalError,
    WiringError,
)
from repro.model.module import ExecutionContext, Module
from repro.model.signal import Number, SignalRole, SignalSpec

__all__ = [
    "PortRef",
    "IOPair",
    "SystemModel",
    "SignalStore",
    "SlotSchedule",
    "InvocationRecord",
    "ExecutorHooks",
    "SystemExecutor",
    "SignalTraces",
    "HookedSimulator",
]


@dataclass(frozen=True)
class PortRef:
    """Reference to one port of one module."""

    module: str
    port: str

    def __str__(self) -> str:
        return f"{self.module}.{self.port}"


@dataclass(frozen=True)
class IOPair:
    """One input/output pair of a module — the unit of permeability.

    ``in_index``/``out_index`` are the 1-based indices used in the
    paper's ``P^M_{i,k}`` notation; ``in_signal``/``out_signal`` are the
    signals wired to those ports.
    """

    module: str
    in_index: int
    out_index: int
    in_port: str
    out_port: str
    in_signal: str
    out_signal: str

    @property
    def label(self) -> str:
        """The paper's name for this permeability, e.g. ``P^CALC_{3,1}``."""
        return f"P^{self.module}_{{{self.in_index},{self.out_index}}}"


class SystemModel:
    """Static wiring of modules and signals."""

    def __init__(self, name: str = "system"):
        self.name = name
        self._modules: Dict[str, Module] = {}
        self._signals: Dict[str, SignalSpec] = {}
        #: signal -> producing (module, output port); absent for system inputs
        self._producer: Dict[str, PortRef] = {}
        #: signal -> consuming (module, input port) list
        self._consumers: Dict[str, List[PortRef]] = {}
        #: (module, input port) -> signal
        self._input_binding: Dict[Tuple[str, str], str] = {}
        #: (module, output port) -> signal
        self._output_binding: Dict[Tuple[str, str], str] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        if module.name in self._modules:
            raise ModelError(f"duplicate module name {module.name!r}")
        self._modules[module.name] = module
        return module

    def add_signal(self, spec: SignalSpec) -> SignalSpec:
        if spec.name in self._signals:
            raise ModelError(f"duplicate signal name {spec.name!r}")
        self._signals[spec.name] = spec
        self._consumers[spec.name] = []
        return spec

    def bind_output(self, signal: str, module: str, port: str) -> None:
        """Declare *signal* to be produced by ``module.port``."""
        self._require_signal(signal)
        mod = self._require_module(module)
        if port not in mod.outputs:
            raise WiringError(f"module {module!r} has no output port {port!r}")
        if signal in self._producer:
            raise WiringError(
                f"signal {signal!r} already driven by {self._producer[signal]}"
            )
        if (module, port) in self._output_binding:
            raise WiringError(
                f"output {module}.{port} already drives signal "
                f"{self._output_binding[(module, port)]!r}"
            )
        if self._signals[signal].role is SignalRole.SYSTEM_INPUT:
            raise WiringError(
                f"system input signal {signal!r} cannot be driven by a module"
            )
        self._producer[signal] = PortRef(module, port)
        self._output_binding[(module, port)] = signal

    def connect_input(self, signal: str, module: str, port: str) -> None:
        """Wire *signal* into ``module.port``."""
        self._require_signal(signal)
        mod = self._require_module(module)
        if port not in mod.inputs:
            raise WiringError(f"module {module!r} has no input port {port!r}")
        if (module, port) in self._input_binding:
            raise WiringError(
                f"input {module}.{port} already reads signal "
                f"{self._input_binding[(module, port)]!r}"
            )
        self._input_binding[(module, port)] = signal
        self._consumers[signal].append(PortRef(module, port))

    def validate(self) -> None:
        """Check the wiring is complete and consistent.

        Raises :class:`WiringError` listing every problem found.
        """
        problems: List[str] = []
        for mod in self._modules.values():
            for port in mod.inputs:
                if (mod.name, port) not in self._input_binding:
                    problems.append(f"input {mod.name}.{port} is unconnected")
            for port in mod.outputs:
                if (mod.name, port) not in self._output_binding:
                    problems.append(f"output {mod.name}.{port} drives no signal")
        for name, spec in self._signals.items():
            if spec.role is SignalRole.SYSTEM_INPUT:
                if name in self._producer:
                    problems.append(
                        f"system input {name!r} must not have a producer"
                    )
            elif name not in self._producer:
                problems.append(f"signal {name!r} has no producer")
            if spec.role is not SignalRole.SYSTEM_OUTPUT and not self._consumers[name]:
                problems.append(f"signal {name!r} has no consumer")
        if problems:
            raise WiringError(
                "invalid system wiring:\n  " + "\n  ".join(problems)
            )

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def _require_module(self, name: str) -> Module:
        mod = self._modules.get(name)
        if mod is None:
            raise UnknownModuleError(name, self._modules)
        return mod

    def _require_signal(self, name: str) -> SignalSpec:
        spec = self._signals.get(name)
        if spec is None:
            raise UnknownSignalError(name, self._signals)
        return spec

    def module(self, name: str) -> Module:
        return self._require_module(name)

    def modules(self) -> List[Module]:
        return list(self._modules.values())

    def module_names(self) -> List[str]:
        return list(self._modules)

    def signal(self, name: str) -> SignalSpec:
        return self._require_signal(name)

    def signals(self) -> List[SignalSpec]:
        return list(self._signals.values())

    def signal_names(self) -> List[str]:
        return list(self._signals)

    def system_inputs(self) -> List[str]:
        return [s.name for s in self._signals.values() if s.is_system_input]

    def system_outputs(self) -> List[str]:
        return [s.name for s in self._signals.values() if s.is_system_output]

    def producer_of(self, signal: str) -> Optional[PortRef]:
        """The (module, output port) driving *signal*; None for system inputs."""
        self._require_signal(signal)
        return self._producer.get(signal)

    def consumers_of(self, signal: str) -> List[PortRef]:
        self._require_signal(signal)
        return list(self._consumers[signal])

    def signal_of_input(self, module: str, port: str) -> str:
        sig = self._input_binding.get((module, port))
        if sig is None:
            raise WiringError(f"input {module}.{port} is unconnected")
        return sig

    def signal_of_output(self, module: str, port: str) -> str:
        sig = self._output_binding.get((module, port))
        if sig is None:
            raise WiringError(f"output {module}.{port} drives no signal")
        return sig

    def io_pairs(self, module: Optional[str] = None) -> List[IOPair]:
        """All input/output pairs (the rows of the paper's Table 1).

        With *module* given, restrict to that module's pairs.  Pairs are
        ordered by module insertion order, then input index, then output
        index — matching the paper's table layout.
        """
        mods: Iterable[Module]
        if module is None:
            mods = self._modules.values()
        else:
            mods = [self._require_module(module)]
        pairs: List[IOPair] = []
        for mod in mods:
            for i, in_port in enumerate(mod.inputs, start=1):
                for k, out_port in enumerate(mod.outputs, start=1):
                    pairs.append(
                        IOPair(
                            module=mod.name,
                            in_index=i,
                            out_index=k,
                            in_port=in_port,
                            out_port=out_port,
                            in_signal=self.signal_of_input(mod.name, in_port),
                            out_signal=self.signal_of_output(mod.name, out_port),
                        )
                    )
        return pairs

    def pairs_into_signal(self, signal: str) -> List[IOPair]:
        """All I/O pairs whose output drives *signal*.

        These are the permeabilities summed by the signal error
        exposure measure.
        """
        self._require_signal(signal)
        return [p for p in self.io_pairs() if p.out_signal == signal]

    def pairs_from_signal(self, signal: str) -> List[IOPair]:
        """All I/O pairs whose input reads *signal* (fan-out edges)."""
        self._require_signal(signal)
        return [p for p in self.io_pairs() if p.in_signal == signal]


class SignalStore:
    """Current value of every signal, quantized to its spec.

    The value dict keeps its identity across :meth:`reset` and
    :meth:`restore`, so the executor and the simulators' run loops
    bind :attr:`values` once and store already-quantized values into
    it directly.
    """

    def __init__(self, system: SystemModel):
        self._system = system
        self._values: Dict[str, Number] = {}
        # precompiled per-signal quantizers: stores are the hottest
        # operation of a fault-injection campaign
        from repro.model.signal import make_quantizer

        self._quantizers = {
            spec.name: make_quantizer(spec.sig_type, spec.width)
            for spec in system.signals()
        }
        self.reset()

    @property
    def values(self) -> Dict[str, Number]:
        """The live value dict.  Writes through it bypass quantization:
        quantize with :meth:`quantizer` first."""
        return self._values

    def quantizer(self, signal: str) -> Callable[[Number], Number]:
        """The precompiled quantizer of *signal*."""
        quantizer = self._quantizers.get(signal)
        if quantizer is None:
            raise UnknownSignalError(signal, self._quantizers)
        return quantizer

    def reset(self) -> None:
        for spec in self._system.signals():
            self._values[spec.name] = spec.quantize(spec.initial)

    def __getitem__(self, signal: str) -> Number:
        try:
            return self._values[signal]
        except KeyError:
            raise UnknownSignalError(signal, self._values) from None

    def __setitem__(self, signal: str, value: Number) -> None:
        self._values[signal] = self.quantizer(signal)(value)

    def poke(self, signal: str, value: Number) -> None:
        """Overwrite a signal value bit-for-bit (injector interface)."""
        self[signal] = value

    def snapshot(self) -> Dict[str, Number]:
        return dict(self._values)

    def restore(self, snapshot: Dict[str, Number]) -> None:
        """Overwrite every value, in place, from a :meth:`snapshot` of
        the same system.  Values bypass re-quantization: a snapshot
        only ever holds already-quantized values."""
        self._values.clear()
        self._values.update(snapshot)


class SlotSchedule:
    """Slot-based, non-preemptive schedule.

    The schedule cycles through ``n_slots`` slots, one slot per tick.
    Each slot runs an ordered list of modules.  Modules listed under
    slot ``None`` (the *every-tick* list) run at the start of every
    tick, before the slot's own modules — the target's ``CLOCK`` is
    scheduled this way so that ``mscnt`` counts every tick.
    """

    def __init__(self, n_slots: int):
        if n_slots <= 0:
            raise SchedulingError(f"n_slots must be positive, got {n_slots}")
        self.n_slots = n_slots
        self._every_tick: List[str] = []
        self._slots: Dict[int, List[str]] = {i: [] for i in range(n_slots)}

    def every_tick(self, module: str) -> "SlotSchedule":
        self._every_tick.append(module)
        return self

    def assign(self, slot: int, module: str) -> "SlotSchedule":
        if not 0 <= slot < self.n_slots:
            raise SchedulingError(
                f"slot {slot} out of range 0..{self.n_slots - 1}"
            )
        self._slots[slot].append(module)
        return self

    def modules_for_tick(self, tick: int) -> List[str]:
        slot = tick % self.n_slots
        return self._every_tick + self._slots[slot]

    def all_modules(self) -> List[str]:
        seen: List[str] = []
        for name in self._every_tick + [
            m for slot in range(self.n_slots) for m in self._slots[slot]
        ]:
            if name not in seen:
                seen.append(name)
        return seen

    def validate_against(self, system: SystemModel) -> None:
        known = set(system.module_names())
        scheduled = set(self.all_modules())
        unknown = scheduled - known
        if unknown:
            raise SchedulingError(
                f"schedule references unknown modules {sorted(unknown)}"
            )
        unscheduled = known - scheduled
        if unscheduled:
            raise SchedulingError(
                f"modules never scheduled: {sorted(unscheduled)}"
            )


@dataclass(slots=True)
class InvocationRecord:
    """What one module invocation consumed and produced."""

    tick: int
    module: str
    inputs: Dict[str, Number]
    outputs: Dict[str, Number]


@dataclass(slots=True)
class ExecutorHooks:
    """Hook points for fault injection and monitoring.

    All hooks are optional.  ``marshal`` may rewrite the argument dict
    (stack-area injection into arguments); ``local_write`` may rewrite
    a local's stored value (stack-area injection into locals);
    ``pre_tick`` runs before any module of the tick (RAM-area
    injection between invocations); ``post_invoke`` observes each
    completed invocation (EDM monitors, tracing).
    """

    pre_tick: Optional[Callable[[int], None]] = None
    marshal: Optional[
        Callable[[str, Dict[str, Number]], Dict[str, Number]]
    ] = None
    local_write: Optional[Callable[[str, str, Number], Number]] = None
    post_invoke: Optional[Callable[[InvocationRecord], None]] = None
    post_tick: Optional[Callable[[int], None]] = None


class SystemExecutor:
    """Tick-by-tick executor for a validated system model."""

    def __init__(
        self,
        system: SystemModel,
        schedule: SlotSchedule,
        hooks: Optional[ExecutorHooks] = None,
    ):
        system.validate()
        schedule.validate_against(system)
        self.system = system
        self.schedule = schedule
        self.hooks = hooks or ExecutorHooks()
        self.store = SignalStore(system)
        self._values = self.store.values
        self.tick = 0
        # resolved wiring, precomputed for the per-invocation hot path:
        # (port, signal) per input, (port, signal, quantizer) per output
        self._bindings: Dict[str, Tuple[Module, Tuple, Tuple]] = {}
        for module in system.modules():
            inputs = tuple(
                (port, system.signal_of_input(module.name, port))
                for port in module.inputs
            )
            outputs = []
            for port in module.outputs:
                signal = system.signal_of_output(module.name, port)
                outputs.append((port, signal, self.store.quantizer(signal)))
            self._bindings[module.name] = (module, inputs, tuple(outputs))

    def reset(self) -> None:
        self.store.reset()
        for module in self.system.modules():
            module.reset()
        self.tick = 0

    def run_tick(self, slot_signal: Optional[str] = None) -> None:
        """Run one scheduler tick: the every-tick modules, then the
        modules of one slot.

        The slot is ``tick % n_slots`` or, with *slot_signal*, the value
        the every-tick modules left in that signal: the target systems'
        schedulers read the slot number produced during the tick, and
        an out-of-range (corrupted) slot number dispatches no module.
        The ``pre_tick`` hook fires before any module runs (RAM-area
        injection point), the ``post_tick`` hook after the last.
        """
        hooks = self.hooks
        tick = self.tick
        if hooks.pre_tick is not None:
            hooks.pre_tick(tick)
        schedule = self.schedule
        invoke = self.invoke
        for name in schedule._every_tick:
            invoke(name)
        slot = (
            tick % schedule.n_slots
            if slot_signal is None
            else self._values[slot_signal]
        )
        for name in schedule._slots.get(slot, ()):
            invoke(name)
        if hooks.post_tick is not None:
            hooks.post_tick(tick)
        self.tick = tick + 1

    def invoke(self, module_name: str) -> Optional[InvocationRecord]:
        """Run one invocation of *module_name*.

        Its :class:`InvocationRecord` is built, handed to the
        ``post_invoke`` hook and returned only when that hook is
        installed (the record's one reader); otherwise this returns
        None.
        """
        binding = self._bindings.get(module_name)
        if binding is None:
            raise UnknownModuleError(module_name, self._bindings)
        module, input_binding, output_binding = binding
        values = self._values
        hooks = self.hooks
        args = {}
        for port, signal in input_binding:
            args[port] = values[signal]
        if hooks.marshal is not None:
            args = hooks.marshal(module_name, args)
        outputs = module.invoke(
            ExecutionContext(module, args, hooks.local_write)
        )
        post_invoke = hooks.post_invoke
        if post_invoke is None:
            for port, signal, quantize in output_binding:
                values[signal] = quantize(outputs[port])
            return None
        stored: Dict[str, Number] = {}
        for port, signal, quantize in output_binding:
            stored[port] = values[signal] = quantize(outputs[port])
        record = InvocationRecord(self.tick, module_name, args, stored)
        post_invoke(record)
        return record

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.run_tick()


_EMPTY: Tuple = ()


class SignalTraces:
    """Per-signal streams of (tick, value) writes.

    Stored as parallel tick/value arrays per signal, so the golden-run
    comparison can diff whole streams at C speed without materializing
    pair lists, and the fast-forward engine can splice golden prefixes
    and suffixes by index (ticks within one stream are nondecreasing).
    """

    __slots__ = ("_ticks", "_values")

    def __init__(self) -> None:
        self._ticks: Dict[str, List[int]] = {}
        self._values: Dict[str, List[Number]] = {}

    def record(self, signal: str, tick: int, value: Number) -> None:
        ticks = self._ticks.get(signal)
        if ticks is None:
            ticks = self._ticks[signal] = []
            self._values[signal] = []
        ticks.append(tick)
        self._values[signal].append(value)

    def stream(self, signal: str) -> List[Tuple[int, Number]]:
        """The recorded write stream as (tick, value) pairs (a fresh
        list); empty for unknown signals."""
        return list(
            zip(self._ticks.get(signal, _EMPTY), self._values.get(signal, _EMPTY))
        )

    def signals(self) -> List[str]:
        return list(self._ticks)

    # ------------------------------------------------------------------
    # No-copy accessors (comparison hot path).
    # ------------------------------------------------------------------
    def ticks_of(self, signal: str) -> Sequence[int]:
        """Write ticks of *signal*, nondecreasing.  The internal array:
        treat as read-only."""
        return self._ticks.get(signal, _EMPTY)

    def values_of(self, signal: str) -> Sequence[Number]:
        """Write values of *signal*, parallel to :meth:`ticks_of`.
        The internal array: treat as read-only."""
        return self._values.get(signal, _EMPTY)

    def lengths(self) -> Dict[str, int]:
        """Per-signal stream lengths (a checkpoint's trace cut marks)."""
        return {signal: len(ticks) for signal, ticks in self._ticks.items()}

    # ------------------------------------------------------------------
    # Fast-forward splicing.
    # ------------------------------------------------------------------
    def splice_prefix(
        self, source: "SignalTraces", lengths: Mapping[str, int]
    ) -> None:
        """Replace this trace's streams with *source*'s first
        ``lengths[signal]`` writes (the golden prefix up to a
        checkpoint)."""
        for signal, n in lengths.items():
            if n:
                self._ticks[signal] = source._ticks[signal][:n]
                self._values[signal] = source._values[signal][:n]

    def extend_suffix(self, source: "SignalTraces", from_tick: int) -> None:
        """Append *source*'s writes at or after *from_tick* (the golden
        suffix after a resynchronization point)."""
        for signal, ticks in source._ticks.items():
            start = bisect_left(ticks, from_tick)
            if start < len(ticks):
                mine = self._ticks.get(signal)
                if mine is None:
                    mine = self._ticks[signal] = []
                    self._values[signal] = []
                mine.extend(ticks[start:])
                self._values[signal].extend(source._values[signal][start:])

    def first_difference(
        self, other: "SignalTraces", signal: str
    ) -> Optional[int]:
        """First tick at which the two streams of *signal* diverge.

        A difference is a changed value, a shifted write tick, or a
        write present in only one stream; ``None`` means the streams
        are identical.
        """
        mine_t = self._ticks.get(signal, _EMPTY)
        mine_v = self._values.get(signal, _EMPTY)
        theirs_t = other._ticks.get(signal, _EMPTY)
        theirs_v = other._values.get(signal, _EMPTY)
        # identical streams (the overwhelmingly common case) compare as
        # two array equalities at C speed
        if mine_t == theirs_t and mine_v == theirs_v:
            return None
        shorter = min(len(mine_t), len(theirs_t))
        for i in range(shorter):
            if mine_t[i] != theirs_t[i] or mine_v[i] != theirs_v[i]:
                return min(mine_t[i], theirs_t[i])
        longer = mine_t if len(mine_t) > len(theirs_t) else theirs_t
        return longer[shorter]


#: the hook kinds whose handlers rewrite a value: each receives the
#: previous handler's return value as its last argument
_CHAINED_HOOKS = ("marshal", "local_write")


def _dispatcher(handlers: Sequence[Callable], chained: bool):
    """What the executor calls for one hook kind: nothing, the single
    handler itself, or a loop over the handlers in registration order."""
    if len(handlers) < 2:
        return handlers[0] if handlers else None
    handlers = tuple(handlers)
    if chained:
        def dispatch(*args):
            *context, value = args
            for handler in handlers:
                value = handler(*context, value)
            return value
    else:
        def dispatch(*args):
            for handler in handlers:
                handler(*args)
    return dispatch


class HookedSimulator:
    """Hook plumbing shared by the closed-loop simulators.

    Owns the system, its executor and the signal traces.  Handlers
    attach per hook kind (``add_pre_tick`` / ``add_marshal`` /
    ``add_local_write`` / ``add_post_invoke`` / ``add_post_tick``)
    and fire in registration order; ``marshal`` and ``local_write``
    handlers chain, and the executor receives the last one's value.
    Only kinds with work to do are installed on the executor, and a
    kind with one handler gets that handler itself, so an unused hook
    costs nothing and a used one no dispatch frame.  With
    :attr:`record_traces` on, the invocation's outputs are recorded
    before any ``post_invoke`` handler sees it.

    Subclasses map their system input signals to sensor-suite
    attributes in ``_REGISTER_OF`` and provide ``self.sensors``.
    """

    #: system input signal -> register attribute of ``self.sensors``
    _REGISTER_OF: Dict[str, str] = {}

    def __init__(
        self, system: SystemModel, schedule: SlotSchedule, record_traces: bool
    ):
        self.system = system
        self.executor = SystemExecutor(system, schedule)
        self._hooks = self.executor.hooks
        self.traces = SignalTraces()
        self._record_traces = bool(record_traces)
        self._handlers: Dict[str, List[Callable]] = {
            hook.name: [] for hook in fields(ExecutorHooks)
        }
        self._tick_probe: Optional[Callable[[int], bool]] = None
        self._output_signals = {
            module.name: tuple(
                system.signal_of_output(module.name, port)
                for port in module.outputs
            )
            for module in system.modules()
        }
        store = self.executor.store
        #: (signal, register attribute, quantizer) per system input
        self._registers = tuple(
            (signal, attr, store.quantizer(signal))
            for signal, attr in self._REGISTER_OF.items()
        )
        self._rewire_hooks()

    def _rewire_hooks(self) -> None:
        hooks = self._hooks
        for kind, handlers in self._handlers.items():
            if kind == "post_invoke" and self._record_traces:
                handlers = [self._record_outputs, *handlers]
            setattr(hooks, kind, _dispatcher(handlers, kind in _CHAINED_HOOKS))

    def _record_outputs(self, record: InvocationRecord) -> None:
        traces = self.traces
        tick = record.tick
        for signal, value in zip(
            self._output_signals[record.module], record.outputs.values()
        ):
            traces.record(signal, tick, value)

    @property
    def record_traces(self) -> bool:
        return self._record_traces

    @record_traces.setter
    def record_traces(self, enabled: bool) -> None:
        self._record_traces = bool(enabled)
        self._rewire_hooks()

    def _add(self, kind: str, handler: Callable) -> None:
        self._handlers[kind].append(handler)
        self._rewire_hooks()

    def add_pre_tick(self, handler: Callable[[int], None]) -> None:
        self._add("pre_tick", handler)

    def add_marshal(
        self, handler: Callable[[str, Dict[str, Number]], Dict[str, Number]]
    ) -> None:
        self._add("marshal", handler)

    def add_local_write(self, handler: Callable[[str, str, Number], Number]) -> None:
        self._add("local_write", handler)

    def add_post_invoke(self, handler: Callable[[InvocationRecord], None]) -> None:
        self._add("post_invoke", handler)

    def add_post_tick(self, handler: Callable[[int], None]) -> None:
        self._add("post_tick", handler)

    def set_tick_probe(self, probe: Optional[Callable[[int], bool]]) -> None:
        """Install a callable run at the top of every tick, before any
        simulation work.  Returning True stops the run immediately (the
        fast-forward engine's resynchronization exit); checkpoint
        recorders return False to keep the run going.  A run reads the
        probe once, when it starts."""
        self._tick_probe = probe

    def corrupt_input(self, signal: str, bit: int) -> Tuple[Number, Number]:
        """Flip a bit of a peripheral register (a system input signal).

        The corruption lands in the register itself, so its persistence
        follows the register's refresh semantics: counters carry the
        error forward, a converter result is overwritten at the next
        conversion.  Returns (before, after).
        """
        attr = self._REGISTER_OF[signal]
        spec = self.system.signal(signal)
        before = getattr(self.sensors, attr)
        after = spec.flip_bit(before, bit)
        setattr(self.sensors, attr, after)
        self.executor.store.poke(signal, after)
        return before, after
