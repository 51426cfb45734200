"""Golden runs and golden-run comparison (paper Section 5.3).

"We produced a Golden Run (GR) for each test case.  Then, we injected
errors ... and monitored the produced output signals. ... The raw data
obtained in the IR's was used in a Golden Run Comparison where the
trace of each signal (input and output) was compared to its
corresponding GR trace.  The comparison stopped as soon as the first
difference between the GR trace and the IR trace was encountered."

This module provides:

* :class:`InvocationLog` — per-module streams of (inputs, outputs) per
  invocation, the raw data needed to attribute *direct* output errors
  to the injected input ("We only took into account the direct errors
  on the outputs");
* :class:`GoldenRun` — one test case's fault-free artefacts: signal
  traces, invocation log, completion tick;
* :func:`golden_run` — simulates one test case's golden run;
* :class:`ArtefactCache` — the one single-flight, LRU-bounded cache of
  fault-free artefacts, behind both the golden-run cache
  (:class:`~repro.fi.executor.GoldenRunCache`) and the checkpoint-track
  cache (:class:`~repro.fi.snapshot.CheckpointStore`);
* :func:`first_output_differences` — lock-step comparison of a
  module's golden and injected invocation streams, classifying the
  first difference of each output port as *direct* (no other input
  disturbed at that invocation) or *indirect* (the error came back
  through another input — e.g. around the CALC ``i`` feedback loop).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError
from repro.fi.integrity import run_digest
from repro.model.system import InvocationRecord
from repro.target.simulation import ArrestmentResult, ArrestmentSimulator
from repro.target.testcases import TestCase

__all__ = [
    "InvocationLog",
    "GoldenRun",
    "ArtefactCache",
    "golden_run",
    "OutputDifference",
    "first_output_differences",
    "SimulatorFactory",
]

#: builds a fresh simulator for a test case.
SimulatorFactory = Callable[[TestCase], ArrestmentSimulator]

#: one invocation: (tick, inputs in port order, outputs in port order)
Invocation = Tuple[int, Tuple, Tuple]


class InvocationLog:
    """Records every invocation of selected modules during a run.

    Attach to a simulator with :meth:`attach`; restrict recording with
    *modules* to keep injected runs cheap.
    """

    def __init__(self, modules: Optional[Sequence[str]] = None):
        self._filter = set(modules) if modules is not None else None
        self._streams: Dict[str, List[Invocation]] = {}
        self._port_order: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}

    def attach(self, simulator: ArrestmentSimulator) -> "InvocationLog":
        for module in simulator.system.modules():
            if self._filter is None or module.name in self._filter:
                self._port_order[module.name] = (
                    tuple(module.inputs),
                    tuple(module.outputs),
                )
        simulator.add_post_invoke(self._on_invoke)
        return self

    def _on_invoke(self, record: InvocationRecord) -> None:
        order = self._port_order.get(record.module)
        if order is None:
            return
        in_ports, out_ports = order
        self._streams.setdefault(record.module, []).append(
            (
                record.tick,
                tuple(record.inputs[p] for p in in_ports),
                tuple(record.outputs[p] for p in out_ports),
            )
        )

    def stream(self, module: str) -> List[Invocation]:
        return self._streams.get(module, [])

    def prime(self, source: "InvocationLog", before_tick: int) -> None:
        """Seed this log with *source*'s invocations strictly before
        *before_tick*.

        A fast-forwarded run skips the golden prefix, so its own log
        starts at the restored checkpoint; priming with the golden
        log's prefix keeps the lock-step golden comparison aligned.
        Entries are copied (slices of immutable tuples) — *source*
        stays untouched.
        """
        if before_tick <= 0:
            return
        for module in self._port_order:
            entries = source._streams.get(module)
            if not entries:
                continue
            cut = bisect_left(entries, before_tick, key=lambda e: e[0])
            if cut:
                self._streams[module] = entries[:cut]

    def modules(self) -> List[str]:
        return list(self._streams)


@dataclass
class GoldenRun:
    """Fault-free reference artefacts for one test case."""

    test_case: TestCase
    result: ArrestmentResult
    invocations: InvocationLog

    @property
    def completion_tick(self) -> int:
        if self.result.completion_tick is None:
            raise CampaignError(
                f"golden run for {self.test_case.label} did not complete — "
                f"the fault-free system must always arrest the aircraft"
            )
        return self.result.completion_tick

    def digest(self) -> str:
        """Canonical content digest of the golden run's observables.

        Every downstream comparison (first differences, EA reference
        values, resynchronization) derives from these; two golden runs
        with equal digests are interchangeable references.
        """
        return run_digest(self.result)


def golden_run(factory: SimulatorFactory, test_case: TestCase) -> GoldenRun:
    """Simulate *test_case*'s fault-free golden run with its full
    invocation log; a run that violates the system specification
    raises :class:`~repro.errors.CampaignError`."""
    simulator = factory(test_case)
    log = InvocationLog().attach(simulator)
    result = simulator.run()
    if result.verdict.failed:
        raise CampaignError(
            f"golden run for {test_case.label} violates the system "
            f"specification: {result.verdict.describe()}"
        )
    return GoldenRun(test_case, result, log)


class ArtefactCache:
    """Process-wide cache of fault-free artefacts, with single-flight
    computation and a least-recently-used bound.

    Golden runs and checkpoint tracks are both functions of one
    fault-free simulation; each subclass builds its key, which starts
    ``(target name, id(factory), case id)``, and passes its compute
    call to :meth:`_fetch`.  The factory object itself is part of the
    key — two factories building differently configured simulators
    never alias — and the cache holds a strong reference to it while
    any of its entries are cached, so a live key is never reused for a
    different configuration.

    At most ``bound`` entries are kept.  An evicted entry is recomputed
    on its next lookup, so every miss is one computation; a factory
    whose last entry is evicted is released, and single-flight locks
    are pruned as soon as their computation completes.
    """

    def __init__(self, bound: int, name: str) -> None:
        if bound < 1:
            raise CampaignError(f"{name} must be >= 1, got {bound}")
        self.bound = bound
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._flight: Dict[Tuple, threading.Lock] = {}
        self._factories: Dict[int, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _fetch(self, key: Tuple, factory, compute: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._entries:
                return self._hit_locked(key)
            flight = self._flight.setdefault(key, threading.Lock())
        with flight:
            with self._lock:
                if key in self._entries:
                    # someone else computed it while we waited
                    self._flight.pop(key, None)
                    return self._hit_locked(key)
            entry = compute()
            with self._lock:
                self._entries[key] = entry
                self._factories[id(factory)] = factory
                self.misses += 1
                self._flight.pop(key, None)
                self._evict_locked()
            return entry

    def _hit_locked(self, key: Tuple) -> Any:
        self._entries.move_to_end(key)
        self.hits += 1
        return self._entries[key]

    def _evict_locked(self) -> None:
        """Drop LRU entries beyond the bound and orphaned factories."""
        while len(self._entries) > self.bound:
            (_, factory_id, *_), _ = self._entries.popitem(last=False)
            if not any(key[1] == factory_id for key in self._entries):
                self._factories.pop(factory_id, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._flight.clear()
            self._factories.clear()
            self.hits = 0
            self.misses = 0


@dataclass(frozen=True)
class OutputDifference:
    """First difference of one output port between GR and IR."""

    out_port: str
    invocation_index: int
    tick: int
    direct: bool  #: no other input was disturbed at that invocation


def first_output_differences(
    golden: List[Invocation],
    injected: List[Invocation],
    in_ports: Sequence[str],
    out_ports: Sequence[str],
    injected_port: str,
) -> Dict[str, OutputDifference]:
    """Classify the first difference of each output port (Section 5.3).

    Walks the two invocation streams in lock-step.  For every output
    port, the first invocation whose output value differs from the
    golden run is found; the difference counts as *direct* when, at
    that same invocation, no input other than *injected_port* differed
    from the golden run — otherwise the error travelled out through
    another output and back in ("errors that propagated via one of the
    other outputs and then came back"), which the paper excludes.

    Comparison stops at the first difference per output; extra or
    missing invocations (a derailed scheduler) end the walk.
    """
    port_index = {port: idx for idx, port in enumerate(in_ports)}
    if injected_port not in port_index:
        raise CampaignError(
            f"injected port {injected_port!r} is not among inputs {in_ports}"
        )
    injected_idx = port_index[injected_port]
    pending = set(out_ports)
    found: Dict[str, OutputDifference] = {}
    for idx, ((g_tick, g_in, g_out), (i_tick, i_in, i_out)) in enumerate(
        zip(golden, injected)
    ):
        if not pending:
            break
        for k, port in enumerate(out_ports):
            if port not in pending or g_out[k] == i_out[k]:
                continue
            other_inputs_clean = all(
                g_in[j] == i_in[j]
                for j in range(len(in_ports))
                if j != injected_idx
            )
            found[port] = OutputDifference(
                out_port=port,
                invocation_index=idx,
                tick=i_tick,
                direct=other_inputs_clean,
            )
            pending.discard(port)
    return found
