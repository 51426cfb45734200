"""Vectorized batch simulation core for injection campaigns.

The scalar campaign path simulates every injected run on its own:
one Python interpreter loop over ticks, module invocations, quantized
stores and hook dispatches per run.  Across all four campaigns —
permeability, detection, and the enumerative memory and recovery
sweeps — almost all of that work is identical across runs, even runs
of *different test cases* and *different campaigns*: same target
system, same schedule, same per-tick arithmetic; only the tiny
injected disturbance and the per-case seed state differ.  This module
batches such runs: plant state, module state cells, sensor registers
and the signal store become numpy arrays with **one row per run**
(each row is seeded from its own case's tick-0 snapshot and diffed
against its own golden stream via per-row indirection), and a
target-specific kernel (``repro.watertank.vectorize`` /
``repro.target.vectorize``) advances *all* rows of a group through
each tick at once.

A tick costs nearly the same at any width, so the campaigns of one
reproduction share one :class:`BatchRunner`: each campaign hands in
its rows as a :class:`BatchPart`, and rows of every kind share a
group.  The kernel takes each row's injection from the row
(:attr:`RowInjection.kind`): ``arg`` rows flip and record their own
module's invocations (:class:`InvocationRecorder`), ``input`` rows
flip a sensor register, and ``memory`` rows take the periodic
single-bit flips of :class:`repro.fi.injector.PeriodicMemoryFlip`
(:class:`MemoryFlipPlan`) and the failure classifier; rows of a
campaign with assertions are watched by the group's monitor bank.
The rows planned together form ``jobs`` groups (one on the serial
backend), each holding an equal slice of every campaign's rows, so a
pool computes them side by side.  Recovery groups run twice — a plain
detection pass and a containment pass with a
:class:`RecoveringBankArrays` poking substitutions into the store —
so recovery rows, like the rows of campaigns whose monitor banks
differ, keep groups of their own.

Correctness contract
--------------------
Batching is a pure execution strategy: outcomes are **bit-identical**
to the scalar path.  Five mechanisms keep that true:

* every kernel is a transcription of the scalar simulator's per-tick
  arithmetic onto int64/float64 arrays (same operation order, same
  quantization points), seeded from the same tick-0
  ``capture_state()`` snapshots;
* every row dispatches per row: like the scalar loop, each row runs
  the modules of its own — possibly corrupted — slot number, through
  masked invocations or, in a module slot only a few rows take, on
  each row's own scalar module (:meth:`BatchKernel._invoke_rows`),
  which is the scalar path's own code;
* *permeability* rows flip and record only the invocations their own
  schedule takes, each at its own stream position, as the scalar
  ``InvocationLog`` does, so a row whose flip corrupts the slot number
  stays in the batch and records its own schedule; an invocation run
  only for other rows neither flips nor records a row;
* rows selected for an integrity audit, or running under chaos-test
  instrumentation, never enter a batch at all;
* rows that finish on the scalar simulator — the arrestment kernel's
  sparse tail, its last :data:`SCALAR_ROWS` live rows — resume from
  their state exported out of the batch (:meth:`BatchCells.column`),
  with their injector (:meth:`repro.fi.injector.FaultInjector.resume`)
  and monitor bank (:meth:`BankArrays.row_snapshot`) where the batch
  left them, so the scalar path itself computes their remaining
  ticks.

Layout and dispatch
-------------------
Both kernels derive from :class:`BatchKernel`, which owns the state,
the dispatch, the rows' injections and the module invocation; a
kernel transcribes only its tick loop and module bodies.  The signal
store and every module's state cells are rows of one dense ``(cells,
rows)`` int64 array (:class:`BatchCells`); a cell name reads as a view
of its row (:class:`CellBlock`), so a module's state is one block and
the dispatch successor table is a 2-D slice that memory flips write
straight into.  A masked invocation restores the rows outside its
mask with one ``np.copyto`` of the module's block.  Per-row dispatch
counts the live rows per module slot with one table lookup and one
``np.bincount``: a slot holding every live row runs unmasked, one
holding some runs masked, and a tick with no live row on a module
slot invokes nothing.  A slot that at most :data:`SCALAR_ROWS` rows
take — the rows a flip of the slot number or the successor table has
sent off the schedule — runs each of them on its own test case's
scalar module instead: one gather of the rows' args and state cells,
the scalar ``invoke``, one scatter of their quantized outputs and
state cells.  A module whose invocation flips or records one of
those rows (its ``arg`` rows, the ``memory`` rows of its args and
locals) keeps the numpy masked invocation.  :class:`MemoryFlipPlan`
is indexed by tick residue modulo the flip period, so a tick touches
only the rows due then.  In the bench-scale reproduction (one group of
466 rows, seed 2002) a masked invocation costs about 43 µs and a
few-row slot about 20 µs, 11 µs a row; 21,461 of the 23,338 masked
invocations run on the scalar modules (measurements in
docs/campaigns.md).

Golden invocation streams — the reference side of the permeability
comparison — are built once as numpy arrays before the worker pool
forks, and the workers inherit them through the fork.
Each group is computed once per reproduction, in the batch pass: the
first campaign round that asks for a row a batch answers runs every
group as one task of an executor run of its own
(:meth:`BatchRunner.outcomes`), and the runner keeps the outcomes for
the later rounds and the other campaigns sharing the groups, so no row
is computed twice.  The executor records a round's batch outcomes in
process and runs only the other rows as tasks.

On by default: ``CampaignConfig(vector=VectorPolicy(batch_width=N))``
/ ``--batch-width N`` with any ``N > 0`` turns batching on (the
default, 256); ``0`` selects the scalar path, which is the oracle.
"""

from __future__ import annotations

import bisect
import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.edm.monitors import MonitorBank
from repro.fi.counters import Counters
from repro.fi.executor import (
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
    TaskFailure,
)
from repro.fi.injector import FaultInjector
from repro.fi.integrity import golden_sentinel
from repro.fi.memory import CellKind, MemoryLocation, Region
from repro.fi.models import InputSignalFlip, PeriodicMemoryFlip
from repro.model.module import ExecutionContext
from repro.model.signal import SignalType, make_quantizer

__all__ = [
    "vector_stats",
    "SCALAR_ROWS",
    "RowInjection",
    "VectorRow",
    "GroupJob",
    "GroupResult",
    "BankArrays",
    "RecoveringBankArrays",
    "CellBlock",
    "BatchCells",
    "MemoryFlipPlan",
    "InvocationRecorder",
    "BatchKernel",
    "flip_cells",
    "BatchPart",
    "BatchRunner",
    "BatchView",
    "wrap_runners",
]


#: the process-wide counters used by all batching machinery (the
#: ``vec_`` keys of the counter table in docs/campaigns.md);
#: ``retired_rows`` stays 0, since a batch answers every row it holds
vector_stats = Counters(
    "vec_", "batched_ticks", "retired_rows", "groups", "rows",
    "scalar_fallbacks", "cross_case_groups", "group_capacity", "tail_rows",
    "row_invocations",
)

#: at most this many rows run cheaper on the scalar code than in a
#: numpy pass over the whole batch.  A module slot that only this many
#: live rows take runs each of them on its own scalar module
#: (:meth:`BatchKernel._dispatch`), and the arrestment kernel's loop
#: hands its last this-many live rows to the scalar simulator (its
#: sparse tail, :mod:`repro.target.vectorize`); 0 turns both off.
#: Measured in the bench-scale reproduction on a 2-core host: a masked
#: invocation over its 466 rows costs about 43 us, a slot's rows on
#: their scalar modules about 11 us a row; a tick of the loop's tail
#: about 125 us, a scalar row-tick about 13 us.  Sweeps of 4-32 did
#: not separate above the host's run-to-run noise.
SCALAR_ROWS = 8


# ======================================================================
# Work descriptions exchanged with the target kernels.
# ======================================================================
@dataclass(frozen=True)
class RowInjection:
    """One row's injection: an ``"input"`` (system-input register
    flip at tick ``tick``), an ``"arg"`` (flip of input ``port`` of
    ``module`` at its first invocation at or after ``tick``), or a
    ``"memory"`` (periodic single-bit flip of one memory cell, phase
    ``tick``, every ``period`` ticks — see
    :class:`repro.fi.injector.PeriodicMemoryFlip`)."""

    kind: str
    tick: int
    bit: int
    signal: Optional[str] = None  #: input kind: the target signal
    port: Optional[str] = None  #: arg kind: the module input port
    #: memory kind: cell class ("state" | "signal" | "arg" | "local")
    memory_kind: Optional[str] = None
    #: arg kind: the flipped and recorded module; memory kind: the
    #: owning module
    module: Optional[str] = None
    cell: Optional[str] = None  #: memory kind: cell/signal/port name
    period: int = 0  #: memory kind: flip period in ticks


@dataclass(frozen=True)
class VectorRow:
    """One run of a batch: which test case, which injection."""

    case_id: int
    injection: RowInjection


@dataclass
class GroupJob:
    """One batch handed to a target kernel; each row carries its own
    injection kind."""

    rows: List[VectorRow]
    cases: Dict[int, Any]  #: case_id -> test case
    templates: Dict[int, Any]  #: case_id -> tick-0 SimulatorState
    #: the group's monitor bank (``()``: none); it watches every row,
    #: and only the rows of campaigns with assertions read it
    specs: Sequence[Any] = ()
    policies: Any = None  #: recovery: {ea name -> RecoveryPolicy}
    recover: bool = False  #: recovery: containment pass (vs baseline)
    #: test case -> a fresh simulator, for rows a kernel finishes on
    #: the scalar path (``None``: every row stays in the batch)
    factory: Optional[Callable[[Any], Any]] = None
    #: ``arg`` rows: the length of each row's golden stream, past which
    #: no outcome reads its recorded one (``None``: rows run to their
    #: end; other kinds' entries are ignored)
    golden: Optional[Sequence[int]] = None


@dataclass
class GroupResult:
    """Per-row outcomes of one kernel batch (parallel lists)."""

    injected: List[bool]
    first_injection_tick: List[Optional[int]]
    completion_tick: List[Optional[int]]
    #: ``arg`` rows: each row's recorded stream of its own module
    streams: Optional["InvocationRecorder"] = None
    #: the monitor bank; ``bank.row_records(r)`` is row r's
    #: {ea name -> (fire_count, first_fire_tick)}
    bank: Optional["BankArrays"] = None
    #: ``memory`` rows: per-row mission verdict (safety failure)
    failed: Optional[List[bool]] = None
    #: recovery containment pass: per-row recovery action counts
    actions: Optional[List[int]] = None


# ======================================================================
# Vectorized quantization (see repro.model.signal.quantize).
# ======================================================================
def q_uint(values, width: int):
    """Vectorized UINT quantization: wrap modulo ``2**width``."""
    return values & ((1 << width) - 1)


def q_int(values, width: int):
    """Vectorized two's-complement INT quantization."""
    full = 1 << width
    sign = full >> 1
    masked = values & (full - 1)
    return np.where(masked >= sign, masked - full, masked)


def q_bool(values):
    """Vectorized BOOL quantization: collapse to 0/1."""
    return (values != 0).astype(np.int64)


def flip_cells(values, bitmask, sig_type, width: int):
    """Vectorized :func:`repro.model.signal.flip_bit` for int-backed
    cells (UINT/INT/BOOL; FLOAT cells never enter a batch)."""
    raw = (np.asarray(values, dtype=np.int64) & ((1 << width) - 1)) ^ bitmask
    if sig_type is SignalType.BOOL:
        return q_bool(raw)
    if sig_type is SignalType.INT:
        return q_int(raw, width)
    return raw


# ======================================================================
# Vectorized executable-assertion bank (see repro.edm.assertions).
# ======================================================================
class BankArrays:
    """Per-row state of a monitor bank, evaluated on array stores.

    A transcription of :meth:`repro.edm.assertions.AssertionState`:
    one ``_prev`` / fire-accumulator set per (assertion, row), checked
    against the row's signal-store arrays at every evaluation tick.
    """

    def __init__(self, specs: Sequence[Any], n_rows: int):
        self._specs = list(specs)
        self._prev = {
            s.name: np.zeros(n_rows, dtype=np.int64) for s in self._specs
        }
        self._has_prev = {
            s.name: np.zeros(n_rows, dtype=bool) for s in self._specs
        }
        self._fire_count = {
            s.name: np.zeros(n_rows, dtype=np.int64) for s in self._specs
        }
        self._first_fire = {
            s.name: np.full(n_rows, -1, dtype=np.int64) for s in self._specs
        }

    def _fired_mask(self, spec, value):
        """The per-row fire decision for *spec* at *value*, read
        against the current reference state (``_prev`` untouched)."""
        from repro.edm.assertions import EAKind

        if spec.kind is EAKind.BOOLEAN:
            return (value != 0) & (value != 1)
        fired = np.zeros(value.shape, dtype=bool)
        if spec.minimum is not None:
            fired |= value < spec.minimum
        if spec.maximum is not None:
            fired |= value > spec.maximum
        prev = self._prev[spec.name]
        has_prev = self._has_prev[spec.name]
        if spec.kind is EAKind.RANGE_RATE:
            rate = np.abs(value - prev) > spec.max_delta
            fired |= has_prev & rate
        elif spec.kind is EAKind.MONOTONIC:
            delta = value - prev
            bad = (delta < 0) | (delta > spec.max_delta)
            fired |= has_prev & bad
        elif spec.kind is EAKind.SEQUENCE:
            delta = value - prev
            if spec.modulus is not None:
                delta = delta % spec.modulus
            fired |= has_prev & (delta != spec.exact_delta)
        return fired

    def evaluate(self, store: Dict[str, Any], tick: int, mask=None) -> None:
        """Evaluate every assertion against *store* at *tick*.

        *mask* restricts the evaluation to still-running rows (rows
        outside the mask keep their state untouched, like a scalar run
        that already left its mission loop).
        """
        for spec in self._specs:
            value = store[spec.signal]
            name = spec.name
            fired = self._fired_mask(spec, value)
            if mask is not None:
                fired = fired & mask
                update = mask
            else:
                update = None
            count = self._fire_count[name]
            first = self._first_fire[name]
            count += fired
            first[:] = np.where(fired & (first < 0), tick, first)
            if update is None:
                self._prev[name][:] = value
                self._has_prev[name][:] = True
            else:
                prev = self._prev[name]
                prev[:] = np.where(update, value, prev)
                self._has_prev[name] |= update

    def row_records(
        self, row: int
    ) -> Dict[str, Tuple[int, Optional[int]]]:
        """One row's per-EA (fire_count, first_fire_tick)."""
        out: Dict[str, Tuple[int, Optional[int]]] = {}
        for spec in self._specs:
            count = int(self._fire_count[spec.name][row])
            first = int(self._first_fire[spec.name][row])
            out[spec.name] = (count, first if first >= 0 else None)
        return out

    def row_snapshot(self, row: int) -> Dict[str, tuple]:
        """One row's state as a scalar bank's
        :meth:`~repro.edm.monitors.MonitorBank.snapshot`."""
        return {
            name: (
                int(self._prev[name][row])
                if self._has_prev[name][row] else None,
                count, first,
            )
            for name, (count, first) in self.row_records(row).items()
        }

    def restore_row(self, row: int, snapshot: Dict[str, tuple]) -> None:
        """Overwrite one row's state from a scalar bank's snapshot."""
        for name, (prev, count, first) in snapshot.items():
            self._has_prev[name][row] = prev is not None
            self._prev[name][row] = 0 if prev is None else prev
            self._fire_count[name][row] = count
            self._first_fire[name][row] = -1 if first is None else first


class RecoveringBankArrays(BankArrays):
    """Vectorized :class:`repro.edm.recovery.RecoveringMonitorBank`:
    detection plus per-row containment pokes into the batch's store.

    Each assertion is evaluated in spec order; fired rows are poked
    back to a last-good (HOLD_LAST_GOOD) or clamped (CLAMP_TO_SPEC)
    value — quantized exactly like ``store.poke`` — and the reference
    state is rebased on the raw substituted value, so later specs and
    ticks see the substituted signal just as in the scalar bank.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        n_rows: int,
        policies: Optional[Dict[str, Any]] = None,
        q_store: Optional[Callable[[str, Any], Any]] = None,
    ):
        super().__init__(specs, n_rows)
        from repro.edm.recovery import RecoveryPolicy

        policies = dict(policies or {})
        self._policy = {
            s.name: policies.get(s.name, RecoveryPolicy.HOLD_LAST_GOOD)
            for s in self._specs
        }
        self._q_store = q_store
        self._last_good = {
            s.name: np.zeros(n_rows, dtype=np.int64) for s in self._specs
        }
        self._has_good = {
            s.name: np.zeros(n_rows, dtype=bool) for s in self._specs
        }
        #: per-row count of recovery substitutions performed
        self.actions = np.zeros(n_rows, dtype=np.int64)

    def evaluate(self, store: Dict[str, Any], tick: int, mask=None) -> None:
        from repro.edm.recovery import RecoveryPolicy

        for spec in self._specs:
            name = spec.name
            value = store[spec.signal]
            fired = self._fired_mask(spec, value)
            if mask is not None:
                fired = fired & mask
                update = mask
            else:
                update = np.ones(value.shape, dtype=bool)
            count = self._fire_count[name]
            first = self._first_fire[name]
            count += fired
            first[:] = np.where(fired & (first < 0), tick, first)
            prev = self._prev[name]
            prev[:] = np.where(update, value, prev)
            self._has_prev[name] |= update
            # containment (RecoveringMonitorBank._on_tick): last-good
            # tracks non-fired observations only
            good = self._last_good[name]
            has_good = self._has_good[name]
            not_fired = update & ~fired
            good[:] = np.where(not_fired, value, good)
            has_good |= not_fired
            policy = self._policy[name]
            if policy is RecoveryPolicy.DETECT_ONLY:
                continue
            if policy is RecoveryPolicy.CLAMP_TO_SPEC:
                clamped = value
                if spec.minimum is not None:
                    clamped = np.maximum(clamped, spec.minimum)
                if spec.maximum is not None:
                    clamped = np.minimum(clamped, spec.maximum)
                changed = clamped != value
                substituted = np.where(changed, clamped, good)
                valid = fired & (changed | has_good)
            else:  # HOLD_LAST_GOOD
                substituted = good
                valid = fired & has_good
            if valid.any():
                quantized = self._q_store(spec.signal, substituted)
                store[spec.signal] = np.where(
                    valid, quantized, store[spec.signal]
                )
                prev[:] = np.where(valid, substituted, prev)
                self.actions += valid


# ======================================================================
# Dense batch state.
# ======================================================================
class CellBlock(dict):
    """Named rows of one dense ``(cells, rows)`` int64 block.

    A name reads as a view of its row, and assigning to a name writes
    into that row, so :attr:`block` stays the only storage: a masked
    invocation merges a whole module back with one ``np.copyto``, and
    a flip through any name lands in the block.
    """

    def __init__(self, names: Sequence[str], block):
        super().__init__(zip(names, block))
        self.block = block

    def __setitem__(self, name: str, values) -> None:
        np.copyto(dict.__getitem__(self, name), values)


class BatchCells:
    """Every int cell of one batch in a single ``(cells, rows)`` int64
    array: the signal store first, then each module's state cells, one
    row per cell and one column per batch row, each column seeded from
    its row's tick-0 template.

    :attr:`signals` and :attr:`modules` name the rows
    (:class:`CellBlock`); :attr:`index` maps ``(None, signal)`` and
    ``(module, cell)`` to a row of :attr:`data`.
    """

    def __init__(self, signals: Sequence[str],
                 modules: Dict[str, Sequence[str]],
                 rows: Sequence[VectorRow], templates: Dict[int, Any]):
        layout = [(None, name) for name in signals] + [
            (module, cell) for module, cells in modules.items()
            for cell in cells
        ]
        columns: Dict[int, List[int]] = {}
        for row in rows:
            if row.case_id not in columns:
                template = templates[row.case_id]
                columns[row.case_id] = [
                    template.signals[cell] if module is None
                    else template.modules[module][cell]
                    for module, cell in layout
                ]
        self.data = np.array(
            [columns[row.case_id] for row in rows], dtype=np.int64
        ).T.copy()
        self.index = {key: i for i, key in enumerate(layout)}
        self.signals = CellBlock(signals, self.data[: len(signals)])
        self.modules: Dict[str, CellBlock] = {}
        start = len(signals)
        for module, cells in modules.items():
            self.modules[module] = CellBlock(
                cells, self.data[start:start + len(cells)]
            )
            start += len(cells)

    def column(self, r: int):
        """Batch row *r*'s cells as a ``(signals, modules)`` pair of
        dicts in the templates' shape: the inverse of the seeding."""
        values = iter(self.data[:, r].tolist())
        signals = dict(zip(self.signals, values))
        modules = {
            module: dict(zip(block, values))
            for module, block in self.modules.items()
        }
        return signals, modules


# ======================================================================
# Vectorized periodic memory flips (see PeriodicMemoryFlip).
# ======================================================================
class MemoryFlipPlan:
    """The per-row flip schedule of a batch's ``memory`` rows.

    A transcription of the scalar injector's three strike paths
    (:class:`repro.fi.injector.FaultInjector` with a
    ``PeriodicMemoryFlip`` spec): RAM flips — state cells and signal
    backing stores — land in the pre-tick phase at every period
    boundary; stack flips — module args and locals — are *armed* at
    the boundary and strike the owning module's next marshal or local
    write, then disarm.

    The plan is indexed by tick residue modulo the period: a row joins
    its residue's table at its phase (its first boundary), and rows
    that leave the run loop (:meth:`leave`) drop out of every table, so
    :meth:`pre_tick` touches only the rows due that tick.  The RAM
    flips due at a tick land with one gather and one scatter on the
    batch's dense cells (:class:`BatchCells`) per cell type.  Around a
    masked invocation the kernel sets :attr:`mask`: only its rows may
    take an arg or local strike.
    """

    def __init__(self, kernel, rows: Sequence[VectorRow], first_inj,
                 cells: BatchCells):
        n = len(rows)
        self._first_inj = first_inj
        self._flat = cells.data.reshape(-1)
        self._phase = np.array(
            [row.injection.tick for row in rows], dtype=np.int64
        )
        self._period = np.array(
            [max(1, row.injection.period) for row in rows], dtype=np.int64
        )
        self._live = np.ones(n, dtype=bool)
        self._joined = np.zeros(n, dtype=bool)
        self._armed = np.zeros(n, dtype=bool)
        #: the strike buckets (one per arg or local cell) that may have
        #: armed rows
        self._armed_keys: set = set()
        self.tick = 0
        self.mask = None
        #: RAM rows: flat position in the cells, width mask, bitmask
        self._pos = np.full(n, -1, dtype=np.int64)
        self._wm = np.zeros(n, dtype=np.int64)
        self._bm = np.array(
            [1 << row.injection.bit for row in rows], dtype=np.int64
        )
        #: RAM rows: the group their flips land in — UINT and BOOL rows
        #: share one per type (per-row width masks), INT rows one per width
        self._group: List[Any] = [None] * n
        #: stack rows: their strike bucket's key
        self._key: List[Any] = [None] * n
        self._joins: Dict[int, List[int]] = {}
        stack_rows: Dict[Tuple[str, str, str], List[int]] = {}
        for r, row in enumerate(rows):
            inj = row.injection
            if inj.kind != "memory":
                continue  # never joins: no flip lands on the row
            self._joins.setdefault(inj.tick, []).append(r)
            if inj.memory_kind in ("state", "signal"):
                if inj.memory_kind == "state":
                    key = (inj.module, inj.cell)
                    ctype, width = kernel.state_spec[key]
                else:
                    key = (None, inj.cell)
                    ctype, width = kernel.quant[inj.cell]
                self._pos[r] = cells.index[key] * n + r
                self._wm[r] = (1 << width) - 1
                self._group[r] = (
                    ctype, width if ctype is SignalType.INT else None
                )
            else:  # a stack cell: arg or local
                self._key[r] = (inj.memory_kind, inj.module, inj.cell)
                stack_rows.setdefault(self._key[r], []).append(r)
        #: strike bucket key -> its rows
        self._buckets = {
            key: np.array(members, dtype=np.int64)
            for key, members in stack_rows.items()
        }
        #: module -> its arg buckets: (key, port, rows, bitmasks, type,
        #: width); (module, local) -> its local bucket (key, rows, ...)
        self._arg: Dict[str, list] = {}
        self._local: Dict[Tuple[str, str], tuple] = {}
        for key, idx in self._buckets.items():
            kind, module, cell = key
            if kind == "arg":
                in_ports, _, in_sigs, _ = kernel.ports[module]
                j = in_ports.index(cell)
                self._arg.setdefault(module, []).append(
                    (key, j, idx, self._bm[idx], *kernel.quant[in_sigs[j]])
                )
            else:
                self._local[(module, cell)] = (
                    key, idx, self._bm[idx], *kernel.local_spec[(module, cell)]
                )
        self._tables: List[Tuple[int, list]] = []

    def _build(self) -> None:
        """Per (period, tick residue): the RAM flip groups and the
        stack rows to arm, over the rows that joined and are still
        live."""
        active = self._live & self._joined
        tables = []
        for period in np.unique(self._period[active]).tolist():
            table: List[Any] = [None] * period
            members = np.nonzero(active & (self._period == period))[0]
            residues = self._phase[members] % period
            for residue in np.unique(residues).tolist():
                due = members[residues == residue]
                ram = due[self._pos[due] >= 0]
                groups: Dict[Any, List[int]] = {}
                for r in ram.tolist():
                    groups.setdefault(self._group[r], []).append(r)
                stack = due[self._pos[due] < 0]
                table[residue] = (
                    [
                        (self._pos[g], self._wm[g], self._bm[g], *group)
                        for group, g in groups.items()
                    ],
                    stack if stack.size else None,
                    {self._key[r] for r in stack.tolist()},
                )
            tables.append((period, table))
        self._tables = tables

    def pre_tick(self, tick: int) -> None:
        """Apply this tick's RAM flips and arm its stack rows."""
        self.tick = tick
        joining = self._joins.pop(tick, None)
        if joining is not None:
            rows = np.array(joining, dtype=np.int64)
            rows = rows[self._live[rows]]
            self._joined[rows] = True
            # a RAM row's first flip is the one at its phase
            self._first_inj[rows[self._pos[rows] >= 0]] = tick
            self._build()
        flat = self._flat
        for period, table in self._tables:
            entry = table[tick % period]
            if entry is None:
                continue
            groups, stack, keys = entry
            for pos, wm, bm, ctype, width in groups:
                # flip_cells, with each row's own width mask
                flipped = (flat[pos] & wm) ^ bm
                if ctype is SignalType.BOOL:
                    flipped = q_bool(flipped)
                elif ctype is SignalType.INT:
                    flipped = q_int(flipped, width)
                flat[pos] = flipped
            if stack is not None:
                self._armed[stack] = True
                self._armed_keys |= keys

    def leave(self, left) -> None:
        """Rows *left* (a mask) left the run loop: no further flips."""
        self._live &= ~left
        if not np.count_nonzero(left & self._joined):
            return  # no table holds them, and only joined rows arm
        self._armed &= ~left
        self._armed_keys = {
            key for key, rows in self._buckets.items()
            if np.count_nonzero(self._armed[rows])
        }
        self._build()

    def _strike(self, key, idx, bms, values, sig_type, width) -> bool:
        """Flip the armed rows of *idx* (within :attr:`mask`) in
        *values*, in place; True if any row struck."""
        sel = self._armed[idx]
        if self.mask is not None:
            sel &= self.mask[idx]
        if not np.count_nonzero(sel):
            return False
        rsel = idx[sel]
        values[rsel] = flip_cells(values[rsel], bms[sel], sig_type, width)
        first = self._first_inj
        fresh = rsel[first[rsel] < 0]
        first[fresh] = self.tick
        self._armed[rsel] = False
        if not np.count_nonzero(self._armed[idx]):
            self._armed_keys.discard(key)
        return True

    def marshal(self, module: str, args) -> None:
        """Strike armed arg rows at *module*'s marshaling, in place on
        the freshly copied ``(ports, rows)`` args."""
        armed = self._armed_keys
        for key, j, idx, bms, stype, width in self._arg.get(module, ()):
            if key in armed:
                self._strike(key, idx, bms, args[j], stype, width)

    def local(self, module: str, name: str, values):
        """Strike armed local rows at the (module, local) write point;
        returns the (possibly copied and flipped) values array."""
        bucket = self._local.get((module, name))
        if bucket is None or bucket[0] not in self._armed_keys:
            return values
        key, idx, bms, ctype, width = bucket
        out = np.array(values, dtype=np.int64, copy=True)
        return out if self._strike(key, idx, bms, out, ctype, width) \
            else values



# ======================================================================
# Vectorized module-input flips and invocation logs (permeability).
# ======================================================================
class InvocationRecorder:
    """The module-input flips and invocation logs of a batch's ``arg``
    (permeability) rows: per row, a transcription of the scalar run's
    :class:`repro.fi.injector.ModuleInputFlip` and
    :class:`repro.fi.golden.InvocationLog`.  Each row flips one
    input bit of *its own* module at that module's first invocation at
    or after the row's tick and records that module's (post-marshal
    inputs, store read-back outputs) stream, so rows of every module
    share one batch.  Only the invocations the row's own — possibly
    corrupted — schedule takes flip or record it, each at the row's
    own stream position (:attr:`rec_len`), so rows of every schedule
    share it too.  The kernel sets :attr:`tick` each tick and calls
    :meth:`leave` for rows that leave the run loop; :meth:`settled`
    names the rows whose outcome is fixed.
    """

    def __init__(self, kernel, rows: Sequence[VectorRow], bitmask,
                 first_inj, ticks: int,
                 golden: Optional[Sequence[int]] = None):
        n = len(rows)
        self._bitmask = bitmask
        self._first_inj = first_inj
        self._port = np.zeros(n, dtype=np.int64)
        #: the arg rows still in the run loop, and how many
        self._live = np.array([row.injection.kind == "arg" for row in rows])
        self.n_live = int(np.count_nonzero(self._live))
        #: per row: its golden stream's length (``None``: not known,
        #: and :meth:`settled` not asked)
        self._golden = (
            None if golden is None else np.array(golden, dtype=np.int64)
        )
        self.tick = 0
        #: per row: recorded invocations and (n_inv, n_in/n_out) views
        self.rec_len = np.zeros(n, dtype=np.int64)
        self.rec_ins: List[Any] = [None] * n
        self.rec_outs: List[Any] = [None] * n
        #: module -> (its rows, inputs buffer, outputs buffer)
        self._streams: Dict[str, Tuple[Any, Any, Any]] = {}
        #: module -> (buffer positions, rows) of its live rows
        self._live_rows: Dict[str, Tuple[Any, Any]] = {}
        #: module -> (flip ticks ascending, their rows)
        self._due: Dict[str, Tuple[List[int], Any]] = {}
        #: module -> rows whose flip is due but whose schedule has not
        #: taken an invocation of the module since
        self._waiting: Dict[str, Any] = {}
        arg_rows: Dict[str, List[int]] = {}
        for r, row in enumerate(rows):
            if row.injection.kind == "arg":
                arg_rows.setdefault(row.injection.module, []).append(r)
        for module in sorted(arg_rows):
            idx = np.array(arg_rows[module], dtype=np.int64)
            in_ports, out_ports = kernel.module_ports(module)
            self._port[idx] = [
                in_ports.index(rows[r].injection.port) for r in idx
            ]
            slots = [
                s for s, mods in kernel.slot_modules.items() if module in mods
            ]
            # a row leaves the golden schedule only through a flip of
            # the slot number, the input of the module that runs every
            # tick: a slotted module's rows take at most its golden
            # invocations
            cap = ticks
            if slots:
                first = (slots[0] - 1) % kernel.n_slots
                cap = max(0, (ticks - first + kernel.n_slots - 1)
                          // kernel.n_slots)
            ins = np.zeros((len(idx), cap, len(in_ports)), np.int64)
            outs = np.zeros((len(idx), cap, len(out_ports)), np.int64)
            for p, r in enumerate(idx):
                self.rec_ins[r], self.rec_outs[r] = ins[p], outs[p]
            self._streams[module] = (idx, ins, outs)
            self._live_rows[module] = (np.arange(len(idx)), idx)
            order = sorted(idx.tolist(), key=lambda r: rows[r].injection.tick)
            self._due[module] = (
                [rows[r].injection.tick for r in order],
                np.array(order, dtype=np.int64),
            )
            self._waiting[module] = idx[:0]
        #: module -> its first flip not yet due
        self._next_due = dict.fromkeys(self._streams, 0)

    def takes(self, module: str, mask=None) -> bool:
        """Whether this invocation of *module* is one of its rows'
        invocations: it runs unmasked, or its mask holds one of them."""
        live = self._live_rows.get(module)
        if live is None or not live[1].size:
            return False
        return mask is None or bool(mask[live[1]].any())

    def marshal(self, module: str, args, mask=None) -> None:
        """Strike the flips due at this invocation of *module* — on the
        live rows it takes, all or those in *mask* — in place on the
        freshly copied ``(ports, rows)`` args.  A due row it does not
        take waits for the next invocation its own schedule takes."""
        ticks, order = self._due[module]
        waiting = self._waiting[module]
        start = self._next_due[module]
        if start < len(ticks) and ticks[start] <= self.tick:
            end = bisect.bisect_right(ticks, self.tick, start)
            self._next_due[module] = end
            waiting = np.concatenate((waiting, order[start:end]))
        if not waiting.size:
            return
        waiting = waiting[self._live[waiting]]
        if mask is None:
            hit, waiting = waiting, waiting[:0]
        else:
            taken = mask[waiting]
            hit, waiting = waiting[taken], waiting[~taken]
        self._waiting[module] = waiting
        # xor of a bit < width on an in-range quantized value stays in
        # range for every signal type
        args[self._port[hit], hit] ^= self._bitmask[hit]
        self._first_inj[hit] = self.tick

    def record(self, module: str, args, outs, mask=None) -> None:
        """Append this invocation of *module* (``(ports, rows)`` args
        and outputs) to the streams of the live rows it takes, all or
        those in *mask*, each at its own stream position."""
        _, ins, outs_buf = self._streams[module]
        pos, rows = self._live_rows[module]
        if mask is not None:
            taken = mask[rows]
            pos, rows = pos[taken], rows[taken]
        # buffer and stream positions pair up element by element
        k = self.rec_len[rows]
        ins[pos, k] = args[:, rows].T
        outs_buf[pos, k] = outs[:, rows].T
        self.rec_len[rows] = k + 1

    def settled(self):
        """The live rows (a mask) whose outcome is fixed, given the
        golden lengths: the flip has struck and the recorded stream is
        as long as the golden one.  The permeability comparison reads
        no invocation past the golden stream, and a completion after
        the flip voids nothing, so later ticks cannot change the
        outcome."""
        return (
            self._live & (self._first_inj >= 0)
            & (self.rec_len >= self._golden)
        )

    def leave(self, left) -> None:
        """Rows *left* (a mask) left the run loop: no further flips or
        records."""
        self._live &= ~left
        self.n_live = int(np.count_nonzero(self._live))
        for module, (idx, _, _) in self._streams.items():
            pos = np.flatnonzero(self._live[idx])
            self._live_rows[module] = (pos, idx[pos])


# ======================================================================
# What the target kernels share.
# ======================================================================
def _store_writer(view, sig_type, width: int):
    """The quantized store write of one signal into its row *view*:
    ``write(values)``, or ``write(values, where)`` for the rows the
    mask *where* selects."""
    if sig_type is SignalType.UINT:
        mask = (1 << width) - 1

        def write(values, where=None):
            if where is None:
                np.bitwise_and(values, mask, out=view)
            else:
                np.copyto(view, values & mask, where=where)
        return write

    if sig_type is SignalType.BOOL:
        def write(values, where=True):
            np.copyto(view, q_bool(values), where=where)
    else:
        def write(values, where=True):
            np.copyto(view, q_int(values, width), where=where)
    return write


class BatchKernel:
    """The part of a target kernel that is not target-specific: the
    probe system's port and cell tables, the dense batch state
    (:class:`BatchCells`), each row's injection, per-row dispatch and
    module invocation.

    A subclass transcribes its simulator's tick loop in ``run_group``
    and its module bodies in ``_BODIES``: module name ->
    ``body(self, args, st)``, taking the ``(ports, rows)`` args and the
    module's :class:`CellBlock`, writing state cells in place and
    returning the outputs in port order.
    """

    _BODIES: Dict[str, Callable[..., List[Any]]] = {}
    #: the sensor registers, whose signals lead the store block
    REGISTERS: Tuple[str, ...] = ()

    def __init__(self, probe, n_slots: int, module_slots: Dict[str, int],
                 slot_signal: str):
        system = probe.system
        self.n_slots = n_slots
        #: module -> (in ports, out ports, in signals, out signals)
        self.ports = {}
        #: module -> its state cells in declaration order
        self.state_cells: Dict[str, List[str]] = {}
        #: (module, cell) -> (cell_type, width), for memory-row flips
        self.state_spec = {}
        self.local_spec = {}
        for module in system.modules():
            name = module.name
            ins = list(module.inputs)
            outs = list(module.outputs)
            self.ports[name] = (
                ins,
                outs,
                [system.signal_of_input(name, p) for p in ins],
                [system.signal_of_output(name, p) for p in outs],
            )
            self.state_cells[name] = []
            for spec in module.state.specs():
                self.state_cells[name].append(spec.name)
                self.state_spec[(name, spec.name)] = (
                    spec.cell_type, spec.width
                )
            for spec in module.local_specs:
                self.local_spec[(name, spec.name)] = (
                    spec.cell_type, spec.width
                )
        #: signal -> (SignalType, width), for store-write quantization
        self.quant = {
            name: (system.signal(name).sig_type, system.signal(name).width)
            for name in system.signal_names()
        }
        self.slot_modules: Dict[int, List[str]] = {}
        for module, slot in module_slots.items():
            self.slot_modules.setdefault(slot, []).append(module)
        # per-row dispatch: the module slots ascending, and for every
        # value of the slot signal the position of its module slot
        # (len(slots): no module)
        slots = sorted(self.slot_modules)
        self._slot_groups = [self.slot_modules[s] for s in slots]
        self._slot_code = np.full(
            1 << self.quant[slot_signal][1], len(slots), dtype=np.uint8
        )
        self._slot_code[slots] = np.arange(len(slots))
        self._mem: Optional[MemoryFlipPlan] = None
        self._rec: Optional[InvocationRecorder] = None
        self._scalar: Dict[str, tuple] = {}

    def module_ports(self, module: str):
        ins, outs, _, _ = self.ports[module]
        return ins, outs

    def _memory_cell(self, inj: RowInjection):
        """A memory row's ``(cell type, width)``, or ``None`` for a
        cell the system does not have."""
        kind = inj.memory_kind
        if kind == "state":
            return self.state_spec.get((inj.module, inj.cell))
        if kind == "signal":
            return self.quant.get(inj.cell)
        if kind == "arg":
            ports = self.ports.get(inj.module)
            if ports is None or inj.cell not in ports[0]:
                return None
            return self.quant.get(ports[2][ports[0].index(inj.cell)])
        if kind == "local":
            return self.local_spec.get((inj.module, inj.cell))
        return None

    def supports_injection(self, inj: RowInjection) -> bool:
        """Whether a row's injection can strike inside a batch
        (memory rows: int-backed cells the kernel hooks only)."""
        if inj.memory_kind is None:
            return True
        spec = self._memory_cell(inj)
        return spec is not None and spec[0] is not SignalType.FLOAT

    def _scalar_spec(self, inj: RowInjection):
        """The scalar injector's spec of an ``input`` or ``memory``
        row: the row's cell as a location whose byte holds its bit."""
        if inj.kind == "input":
            return InputSignalFlip(inj.signal, inj.tick, inj.bit)
        kind = CellKind(inj.memory_kind)
        location = MemoryLocation(
            index=-1,
            region=(
                Region.RAM if kind in (CellKind.STATE, CellKind.SIGNAL)
                else Region.STACK
            ),
            kind=kind, module=inj.module, cell=inj.cell,
            byte_offset=inj.bit // 8,
            cell_width=self._memory_cell(inj)[1],
        )
        return PeriodicMemoryFlip(
            location, inj.bit % 8, period_ticks=inj.period,
            start_tick=inj.tick,
        )

    def _finish(self, job: GroupJob, r: int, state, bank):
        """Run row *r* to its end on the scalar simulator from *state*,
        the row's exported state at the top of tick ``state.tick``:
        a fresh simulator restores it, and the row's injector and
        monitor bank resume where the batch left them.  The row's
        first injection and bank state come back into the batch's
        arrays; the caller reads the returned result for the rest."""
        row = job.rows[r]
        simulator = job.factory(job.cases[row.case_id])
        simulator.record_traces = False
        simulator.restore_state(state, restore_traces=False)
        first = int(self._first_inj[r])
        injector = FaultInjector(self._scalar_spec(row.injection))
        injector.attach(simulator).resume(
            first if first >= 0 else None,
            armed=self._mem is not None and bool(self._mem._armed[r]),
        )
        monitors = None
        if bank is not None:
            monitors = MonitorBank(job.specs).attach(simulator)
            monitors.restore(bank.row_snapshot(r))
        result = simulator.run()
        first = injector.first_injection_tick
        self._first_inj[r] = -1 if first is None else first
        if monitors is not None:
            bank.restore_row(r, monitors.snapshot())
        return result

    @staticmethod
    def _column(job: GroupJob, pick: Callable[[Any], Any],
                dtype=None):
        """One array entry per row, picked from the rows' templates."""
        return np.array(
            [pick(job.templates[row.case_id]) for row in job.rows],
            dtype=np.int64 if dtype is None else dtype,
        )

    def _bind(self, job: GroupJob) -> BatchCells:
        """The dense cells of *job*'s rows, the sensor registers'
        signals first, and the invocation table over them."""
        template = job.templates[job.rows[0].case_id]
        signals = list(self.REGISTERS) + [
            name for name in template.signals if name not in self.REGISTERS
        ]
        cells = BatchCells(signals, self.state_cells, job.rows, job.templates)
        store = cells.signals

        def rows_of(names):
            return np.array(
                [cells.index[(None, name)] for name in names], dtype=np.int64
            )

        self._data = cells.data
        self._store = store.block
        self._row_ix = np.arange(len(job.rows))
        self._calls = {
            module: (
                rows_of(in_sigs),
                [_store_writer(store[s], *self.quant[s]) for s in out_sigs],
                rows_of(out_sigs),
                cells.modules[module],
                self._BODIES[module],
            )
            for module, (_, _, in_sigs, out_sigs) in self.ports.items()
        }
        self._scalar = self._scalar_modules(job, cells)
        return cells

    def _scalar_modules(self, job: GroupJob, cells: BatchCells):
        """Per module, what :meth:`_invoke_rows` needs: the rows of
        the dense cells it reads (its args, then its state cells) and
        writes (its outputs, then its state cells), its input ports,
        its outputs' store quantizers, each batch row's own scalar
        module, and last the rows its invocation flips or records — an
        ``arg`` row of the module, a ``memory`` row of one of its args
        or locals — which stay on the numpy path.

        The modules come from one system per test case, built by the
        job's factory: a module's invocation reads only its state
        cells, its args and its construction-time configuration (CALC's
        pressure scale is its case's), so a row's own case's module
        computes the row's invocation.  Empty without a factory or with
        :data:`SCALAR_ROWS` at 0: every invocation stays numpy."""
        if job.factory is None or SCALAR_ROWS <= 0:
            return {}
        systems: Dict[int, Any] = {}
        for row in job.rows:
            if row.case_id not in systems:
                systems[row.case_id] = job.factory(
                    job.cases[row.case_id]
                ).system
        table = {}
        for module, (ins, outs, _, out_sigs) in self.ports.items():
            in_rows, _, out_rows, _, _ = self._calls[module]
            state_rows = np.array([
                cells.index[(module, cell)]
                for cell in self.state_cells[module]
            ], dtype=np.int64)
            hooked = frozenset(
                r for r, row in enumerate(job.rows)
                if row.injection.module == module and (
                    row.injection.kind == "arg"
                    or row.injection.memory_kind in ("arg", "local")
                )
            )
            table[module] = (
                np.concatenate((in_rows, state_rows)),
                np.concatenate((out_rows, state_rows)),
                ins,
                [
                    (port, make_quantizer(*self.quant[signal]))
                    for port, signal in zip(outs, out_sigs)
                ],
                [systems[row.case_id].module(module) for row in job.rows],
                hooked,
            )
        return table

    def _registers(self, job: GroupJob):
        """The sensor registers as one ``(registers, rows)`` block in
        the order of their store rows (a separate array: a detection
        flip corrupts both)."""
        return np.array([
            self._column(job, lambda t, r=r: t.sensors[r.lower()])
            for r in self.REGISTERS
        ])

    def _injections(self, job: GroupJob, cells: BatchCells,
                    ticks: int) -> None:
        """Each row's own injection (:attr:`RowInjection.kind`): the
        invocation recorder of the ``arg`` rows; the flip plan of the
        ``memory`` rows; and, for the ``input`` rows, tick -> ``(rows,
        register rows)`` of the sensor-register flips due then."""
        rows = job.rows
        self._first_inj = np.full(len(rows), -1, dtype=np.int64)
        self._bitmask = np.array(
            [1 << row.injection.bit for row in rows], dtype=np.int64
        )
        kinds = [row.injection.kind for row in rows]
        self._rec = self._mem = None
        if "arg" in kinds:
            self._rec = InvocationRecorder(
                self, rows, self._bitmask, self._first_inj, ticks,
                job.golden,
            )
        if "memory" in kinds:
            self._mem = MemoryFlipPlan(self, rows, self._first_inj, cells)
        due: Dict[int, List[Tuple[int, int]]] = {}
        for r, row in enumerate(rows):
            inj = row.injection
            if inj.kind == "input":
                due.setdefault(inj.tick, []).append(
                    (r, self.REGISTERS.index(inj.signal))
                )
        self._inputs = {
            tick: np.array(pairs, dtype=np.int64).T
            for tick, pairs in due.items()
        }

    def _flip_inputs(self, t: int, regs, store_regs, live=None) -> None:
        """The ``input`` rows' register flips due at tick *t* (pre-tick,
        on the registers and their store rows; only *live* rows)."""
        due = self._inputs.pop(t, None)
        if due is None:
            return
        if live is not None:
            due = due[:, live[due[0]]]
        flip_rows, flip_regs = due
        bits = self._bitmask[flip_rows]
        regs[flip_regs, flip_rows] ^= bits
        store_regs[flip_regs, flip_rows] ^= bits
        self._first_inj[flip_rows] = t

    def _bank(self, job: GroupJob) -> Optional[BankArrays]:
        """The group's monitor bank — a recovering one for a
        containment pass — or ``None`` without assertions."""
        if not job.specs:
            return None
        if job.recover:
            return RecoveringBankArrays(
                job.specs, len(job.rows),
                policies=job.policies, q_store=self._q_store,
            )
        return BankArrays(job.specs, len(job.rows))

    def _cell_rows(self, cells: BatchCells, module: str,
                   names: Sequence[str]):
        """Consecutive state cells *names* of *module* as one
        ``(len(names), rows)`` slice of its block."""
        start = self.state_cells[module].index(names[0])
        stop = start + len(names)
        assert self.state_cells[module][start:stop] == list(names)
        return cells.modules[module].block[start:stop]

    def _mem_local(self, module: str, name: str, values):
        """Hook point of one scalar ``set_local``: armed memory rows
        strike the freshly quantized local value here."""
        if self._mem is None:
            return values
        return self._mem.local(module, name, values)

    def _q_store(self, signal: str, values):
        """Store-write quantization of *values* for *signal*."""
        sig_type, width = self.quant[signal]
        if sig_type is SignalType.BOOL:
            return q_bool(values)
        if sig_type is SignalType.INT:
            return q_int(values, width)
        return q_uint(np.asarray(values, dtype=np.int64), width)

    def _invoke(self, module: str, mask=None) -> None:
        """Args from the store, marshal flips, module body, quantized
        store write-back, invocation recording.

        With *mask*, only the masked rows take the invocation: the
        body runs at full width, but outputs are written back for the
        masked rows only and the module's state block of every other
        row is restored in one copy — those rows' (possibly corrupted)
        schedules did not dispatch *module* this tick — and armed
        memory strikes are confined to the mask, as are the ``arg``
        rows' flips and records."""
        in_rows, writers, out_rows, st, body = self._calls[module]
        args = self._store[in_rows]
        rec, mem = self._rec, self._mem
        if rec is not None and not rec.takes(module, mask):
            rec = None
        if rec is not None:
            rec.marshal(module, args, mask)
        if mask is None:
            if mem is not None:
                mem.marshal(module, args)
            for write, values in zip(writers, body(self, args, st)):
                write(values)
        else:
            saved = st.block.copy()
            if mem is not None:
                mem.mask = mask
                mem.marshal(module, args)
            for write, values in zip(writers, body(self, args, st)):
                write(values, mask)
            np.copyto(st.block, saved, where=~mask)
            if mem is not None:
                mem.mask = None
        if rec is not None:
            rec.record(module, args, self._store[out_rows], mask)

    def _invoke_rows(self, module: str, idx, rows: List[int]) -> None:
        """The invocation of *module* for the few batch rows *rows*
        (*idx* as an array), each on its own scalar module, as
        :meth:`repro.model.system.SystemExecutor.invoke` runs it
        without hooks: the row's args and state cells come from its
        column of the dense cells, and its quantized outputs and state
        cells go back, one gather and one scatter for all of *rows*.
        The cells are already quantized, so loading them re-quantizes
        nothing."""
        reads, writes, ins, quantizers, instances, _ = self._scalar[module]
        columns = idx[:, None]
        n_in = len(ins)
        written = []
        for r, values in zip(rows, self._data[reads, columns].tolist()):
            instance = instances[r]
            state = instance.state
            state.load(values[n_in:])
            outputs = instance.invoke(
                ExecutionContext(instance, dict(zip(ins, values)))
            )
            out = [quantize(outputs[port]) for port, quantize in quantizers]
            out.extend(state.snapshot().values())
            written.append(out)
        self._data[writes, columns] = np.array(written)
        vector_stats.row_invocations += len(rows)

    def _dispatch(self, slots, live_count: int, dead=None) -> None:
        """Per-row dispatch, like the scalar loop: every live row runs
        the modules of its own — possibly corrupted — slot number
        *slots*.  A module slot holding every live row runs unmasked,
        one holding some of them masked.  A slot that at most
        :data:`SCALAR_ROWS` live rows take runs each module on the
        rows' own scalar modules (:meth:`_invoke_rows`) instead, unless
        the module's invocation flips or records one of them.  Rows in
        *dead* (a mask) left the run loop and take no invocation."""
        code = self._slot_code[slots]
        if dead is not None:
            code[dead] = len(self._slot_groups)
        counts = np.bincount(code, minlength=len(self._slot_groups) + 1)
        for k, count in enumerate(counts.tolist()[:-1]):
            if not count:
                continue
            mask = None if count == live_count else code == k
            rows = None
            if mask is not None and self._scalar and count <= SCALAR_ROWS:
                idx = np.flatnonzero(mask)
                rows = idx.tolist()
            for module in self._slot_groups[k]:
                if rows is not None and self._scalar[module][-1].isdisjoint(
                    rows
                ):
                    self._invoke_rows(module, idx, rows)
                else:
                    self._invoke(module, mask=mask)

    def _leave(self, left) -> None:
        """Rows *left* (a mask) left the run loop: no further flips or
        records."""
        if self._mem is not None:
            self._mem.leave(left)
        if self._rec is not None:
            self._rec.leave(left)

    def _result(self, completion, bank, failed) -> GroupResult:
        """The group's per-row outcomes; the injection state and the
        rows' scalar modules go."""
        first_inj = self._first_inj
        result = GroupResult(
            injected=(first_inj >= 0).tolist(),
            first_injection_tick=[
                int(v) if v >= 0 else None for v in first_inj
            ],
            completion_tick=[
                int(v) if v >= 0 else None for v in completion
            ],
            streams=self._rec,
            bank=bank,
            failed=failed.tolist() if failed is not None else None,
            actions=(
                bank.actions.tolist()
                if isinstance(bank, RecoveringBankArrays) else None
            ),
        )
        self._mem = self._rec = None
        self._scalar = {}
        return result


# ======================================================================
# Group planning.
# ======================================================================
@dataclass
class BatchPart:
    """One campaign's share of a :class:`BatchRunner`.

    ``rows[i]`` is the campaign's task ``i`` as a ``(test case,
    RowInjection)`` row and ``inner(i)`` its scalar run; the rest is
    what the campaign's outcomes need: its kind, the auditor whose
    rows stay scalar, the golden runs (``goldens(test case)``) and
    accounting of permeability, and the assertion specs (its rows'
    monitor bank) and recovery policies.
    """

    kind: str  #: "permeability" | "detection" | "memory" | "recovery"
    rows: Sequence[Tuple[Any, RowInjection]]
    inner: Callable[[int], Any]
    auditor: Optional[Any] = None
    goldens: Optional[Callable[[Any], Any]] = None
    direct_only: bool = True
    specs: Sequence[Any] = ()
    policies: Any = None


@dataclass
class _Group:
    gid: int
    indices: List[int]  #: runner-wide row indices, ascending
    specs: Sequence[Any] = ()  #: the group's monitor bank
    policies: Any = None  #: recovery groups: their policies
    recovery: bool = False  #: two passes: baseline and containment


def _plan_groups(
    parts: Sequence[BatchPart],
    n_groups: int,
    supported: Optional[Callable[[RowInjection], bool]] = None,
) -> Tuple[Dict[int, _Group], List[_Group]]:
    """The groups over every part's rows (runner-wide indices: the
    parts' rows in order).

    Parts that can share a kernel pass — the same monitor bank, or
    none — share groups; a recovery part (two passes) and a part whose
    bank differs get their own.  Each such set of parts forms
    *n_groups* groups, group ``k`` holding the ``k``-th of
    *n_groups* equal slices of every part's rows, so the batch pass
    computes them side by side on a pool of *n_groups* workers.
    Injections the kernel cannot strike inside a batch (*supported*
    says no — e.g. float-backed memory cells) stay on the scalar path,
    and so do the rows of a group of one, which a batch would only
    slow down.
    """
    #: [specs, recovery, [(part, its supported runner-wide indices)]]
    sets: List[list] = []
    offset = 0
    for part in parts:
        indices = [
            offset + i for i, (_, injection) in enumerate(part.rows)
            if supported is None or supported(injection)
        ]
        offset += len(part.rows)
        specs = tuple(part.specs)
        recovery = part.kind == "recovery"
        home = None if recovery else next(
            (s for s in sets
             if not s[1] and (not specs or not s[0] or s[0] == specs)),
            None,
        )
        if home is None:
            sets.append([specs, recovery, [(part, indices)]])
        else:
            home[0] = home[0] or specs
            home[2].append((part, indices))
    groups: List[_Group] = []
    for specs, recovery, members in sets:
        for k in range(n_groups):
            indices = [
                index
                for _, rows in members
                for index in rows[
                    len(rows) * k // n_groups:
                    len(rows) * (k + 1) // n_groups
                ]
            ]
            if len(indices) >= 2:
                groups.append(_Group(
                    gid=len(groups), indices=indices, specs=specs,
                    policies=members[0][0].policies if recovery else None,
                    recovery=recovery,
                ))
    index_of: Dict[int, _Group] = {}
    for group in groups:
        for index in group.indices:
            index_of[index] = group
    return index_of, groups


# ======================================================================
# The batch runner.
# ======================================================================
def _kernel_for(probe):
    """The vector kernel class supporting *probe*, or ``None``."""
    from repro.target.vectorize import ArrestmentVectorKernel
    from repro.watertank.vectorize import WatertankVectorKernel

    for kernel in (WatertankVectorKernel, ArrestmentVectorKernel):
        try:
            if kernel.supports(probe):
                return kernel
        except Exception:
            continue
    return None


class BatchRunner:
    """Answers the tasks of one or more campaigns from shared
    vectorized batches.

    Each :class:`BatchPart` is one campaign; the runner numbers the
    parts' rows in order (runner-wide indices) and plans them into
    ``groups`` groups (:func:`_plan_groups`).  The first call of
    :meth:`outcomes` that asks for a row a group answers runs the
    batch pass, which computes every group through the target's vector
    kernel; the runner keeps the outcomes and serves each once.
    Everything else — audited rows, chaos runs, rows of unsupported
    targets or of a group whose computation failed — runs on its
    campaign's scalar runner, which remains the semantic reference.
    A campaign's executor calls its :class:`BatchView`
    (:meth:`views`), which maps the campaign's task indices onto the
    runner's.
    """

    def __init__(
        self,
        parts: Sequence[BatchPart],
        factory: Callable[[Any], Any],
        groups: int = 1,
    ):
        self._parts = list(parts)
        #: the first runner-wide index of each part
        self._offsets: List[int] = []
        self._rows: List[Tuple[Any, RowInjection]] = []
        #: runner-wide index -> its part's position
        self._owner: List[int] = []
        for p, part in enumerate(self._parts):
            self._offsets.append(len(self._rows))
            self._rows.extend(part.rows)
            self._owner.extend([p] * len(part.rows))
        self._factory = factory
        self._chaos = any(
            name.startswith("REPRO_CHAOS_") for name in os.environ
        )
        #: outcomes of the batch pass not served yet, by runner-wide
        #: index; ``None`` until the pass ran
        self._outcomes: Optional[Dict[int, Any]] = None
        self._group_of: Dict[int, _Group] = {}
        self._groups: List[_Group] = []
        self._kernel = None
        self._templates: Dict[int, Any] = {}
        self._cases: Dict[int, Any] = {}
        #: (case id, module) -> its golden (inputs, outputs) per invocation
        self._golden_streams: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
        if groups > 0 and len(self._rows) >= 2:
            self._prepare(groups)

    def views(
        self, configs: Optional[Sequence[CampaignConfig]] = None
    ) -> List["BatchView"]:
        """Each part's view, in part order, under its campaign's config
        in *configs* (default: a serial one)."""
        configs = configs or [CampaignConfig()] * len(self._parts)
        return [
            BatchView(self, offset, len(part.rows), config)
            for offset, part, config in zip(
                self._offsets, self._parts, configs
            )
        ]

    # ------------------------------------------------------------------
    # Pre-fork preparation: plan, templates, golden streams.
    # ------------------------------------------------------------------
    def _prepare(self, groups: int) -> None:
        for case, _ in self._rows:
            self._cases.setdefault(case.case_id, case)
        first_case = next(iter(self._cases.values()))
        probe = self._factory(first_case)
        kernel_cls = _kernel_for(probe)
        if kernel_cls is None:
            return
        self._kernel = kernel_cls(probe)
        self._group_of, self._groups = _plan_groups(
            self._parts,
            groups,
            supported=getattr(self._kernel, "supports_injection", None),
        )
        if not self._groups:
            self._kernel = None
            return
        # tick-0 seeds, one per test case: captured before the pool
        # forks so workers share them copy-on-write
        for case_id, case in self._cases.items():
            self._templates[case_id] = self._factory(case).capture_state()
        self._build_golden_streams(probe)

    def _build_golden_streams(self, probe) -> None:
        """The golden invocation streams the permeability rows will
        diff against, as arrays, once, pre-fork."""
        needed = {}
        for group in self._groups:
            for index in group.indices:
                part = self._parts[self._owner[index]]
                if part.kind == "permeability":
                    case, injection = self._rows[index]
                    needed[(case.case_id, injection.module)] = part.goldens
        for (case_id, module), goldens in sorted(
            needed.items(), key=lambda item: item[0]
        ):
            golden = goldens(self._cases[case_id])
            stream = golden.invocations.stream(module)
            mod = probe.system.module(module)
            n = len(stream)
            n_in = len(mod.inputs)
            n_out = len(mod.outputs)
            ins = np.zeros((n, n_in), dtype=np.int64)
            outs = np.zeros((n, n_out), dtype=np.int64)
            for i, (_, in_tuple, out_tuple) in enumerate(stream):
                ins[i] = in_tuple
                outs[i] = out_tuple
            self._golden_streams[(case_id, module)] = (ins, outs)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _scalar(self, index: int) -> Any:
        """Task *index* on its campaign's scalar path."""
        p = self._owner[index]
        return self._parts[p].inner(index - self._offsets[p])

    def _batchable(self, index: int) -> Optional[_Group]:
        if self._kernel is None or self._chaos:
            return None
        group = self._group_of.get(index)
        if group is None:
            return None
        p = self._owner[index]
        auditor = self._parts[p].auditor
        if auditor is not None and auditor.should_audit(
            index - self._offsets[p]
        ):
            # audited rows re-run under the integrity machinery — the
            # scalar path stays their single source of truth
            return None
        return group

    def answers(self, index: int) -> bool:
        """True when a batch answers task *index*, so its campaign's
        scalar path does not run it."""
        return self._batchable(index) is not None

    def __call__(self, index: int) -> Any:
        """Task *index*: its batch outcome, else its scalar run."""
        served = self.outcomes([index])
        if index in served:
            return served[index]
        vector_stats.scalar_fallbacks += 1
        return self._scalar(index)

    def outcomes(
        self,
        indices: Sequence[int],
        config: Optional[CampaignConfig] = None,
    ) -> Dict[int, Any]:
        """The outcomes of the rows of *indices* a batch answers, by
        runner-wide index in the order of *indices*; each outcome is
        served once.  The first call that asks for such a row runs the
        batch pass under *config* (default: a serial one)."""
        answered = [index for index in indices if self.answers(index)]
        if answered and self._outcomes is None:
            self._outcomes = self._pass(config or CampaignConfig())
        served = {
            index: self._outcomes.pop(index)
            for index in answered if index in self._outcomes
        }
        vector_stats.rows += len(served)
        return served

    # ------------------------------------------------------------------
    # Batch computation and outcome assembly.
    # ------------------------------------------------------------------
    def _pass(self, config: CampaignConfig) -> Dict[int, Any]:
        """Every group's outcomes, from one executor run of their own
        (campaign ``batch``), one task per group.

        The run takes *config*'s backend, jobs, retries, drift sentinel
        and event log, keeps no checkpoint, and scales the task timeout
        and the pool watchdog by the size of the largest group.  A
        group whose task fails every attempt answers no row.
        """
        largest = max(len(group.indices) for group in self._groups)

        def scaled(seconds: Optional[float]) -> Optional[float]:
            return None if seconds is None else seconds * largest

        ft = config.fault_tolerance
        executor = CampaignExecutor(
            dataclasses.replace(
                config,
                checkpoint=CheckpointPolicy(),
                fault_tolerance=dataclasses.replace(
                    ft,
                    task_timeout=scaled(ft.task_timeout),
                    pool_watchdog_s=scaled(ft.pool_watchdog_s),
                ),
            ),
            campaign="batch",
        )
        results = executor.run_tasks(
            lambda k: self._compute_group(self._groups[k]),
            len(self._groups),
            sentinel=golden_sentinel(
                self._factory, next(iter(self._cases.values()))
            ),
        )
        outcomes: Dict[int, Any] = {}
        for result in results:
            if not isinstance(result, TaskFailure):
                outcomes.update(result)
        return outcomes

    def _compute_group(self, group: _Group) -> Dict[int, Any]:
        rows = [
            VectorRow(case_id=case.case_id, injection=injection)
            for case, injection in (self._rows[i] for i in group.indices)
        ]
        streams = self._golden_streams
        job = GroupJob(
            rows=rows,
            cases=self._cases,
            templates=self._templates,
            specs=group.specs,
            policies=group.policies,
            factory=self._factory,
            golden=[
                len(streams[(row.case_id, row.injection.module)][0])
                if row.injection.kind == "arg" else 0
                for row in rows
            ],
        )
        result = self._kernel.run_group(job)
        wrapped = None
        if group.recovery:
            # the containment pass: same rows, same injections, but a
            # recovering bank poking substitutions into the store
            wrapped = self._kernel.run_group(
                dataclasses.replace(job, recover=True)
            )
        vector_stats.groups += 1
        if len({row.case_id for row in rows}) > 1:
            vector_stats.cross_case_groups += 1
        outcomes: Dict[int, Any] = {}
        for r, index in enumerate(group.indices):
            if not self.answers(index):
                continue  # audited: the scalar path serves it
            part = self._parts[self._owner[index]]
            if part.kind == "permeability":
                outcomes[index] = self._permeability_outcome(
                    part, rows[r], result, r
                )
            elif part.kind == "memory":
                outcomes[index] = self._memory_outcome(result, r)
            elif part.kind == "recovery":
                outcomes[index] = self._recovery_outcome(
                    result, wrapped, r
                )
            else:
                outcomes[index] = self._detection_outcome(
                    rows[r], result, r
                )
        return outcomes

    def _permeability_outcome(
        self, part: BatchPart, row: VectorRow, result: GroupResult, r: int
    ) -> Optional[List[str]]:
        if not result.injected[r]:
            return None
        completed = result.completion_tick[r]
        first = result.first_injection_tick[r]
        if completed is not None and first is not None and first > completed:
            return None
        module = row.injection.module
        g_ins, g_outs = self._golden_streams[(row.case_id, module)]
        n_golden, n_in = g_ins.shape
        in_ports, out_ports = self._kernel.module_ports(module)
        injected_idx = in_ports.index(row.injection.port)
        streams = result.streams
        length = min(n_golden, int(streams.rec_len[r]))
        r_ins = streams.rec_ins[r]
        r_outs = streams.rec_outs[r]
        # first differing invocation per output port, then the ports
        # ordered by (invocation index, port order) — exactly the
        # discovery order of first_output_differences
        hits: List[Tuple[int, int, str]] = []
        for k, port in enumerate(out_ports):
            unequal = np.nonzero(
                g_outs[:length, k] != r_outs[:length, k]
            )[0]
            if unequal.size == 0:
                continue
            first_idx = int(unequal[0])
            direct = all(
                g_ins[first_idx, j] == r_ins[first_idx, j]
                for j in range(n_in)
                if j != injected_idx
            )
            if direct or not part.direct_only:
                hits.append((first_idx, k, port))
        hits.sort()
        return [port for _, _, port in hits]

    def _memory_outcome(self, result: GroupResult, r: int) -> Any:
        if not result.injected[r]:
            return None
        records = result.bank.row_records(r)
        return {
            "fired": sorted(
                name
                for name, (count, _) in records.items()
                if count > 0
            ),
            "failed": bool(result.failed[r]),
        }

    def _recovery_outcome(
        self, baseline: GroupResult, wrapped: GroupResult, r: int
    ) -> Any:
        if not baseline.injected[r]:
            return None
        records = baseline.bank.row_records(r)
        return {
            "detected": bool(
                any(count > 0 for count, _ in records.values())
            ),
            "baseline_failed": bool(baseline.failed[r]),
            "recovered_failed": bool(wrapped.failed[r]),
            "recovery_actions": int(wrapped.actions[r]),
        }

    def _detection_outcome(
        self, row: VectorRow, result: GroupResult, r: int
    ) -> Any:
        if not result.injected[r]:
            return "inactive"
        tick = row.injection.tick
        completed = result.completion_tick[r]
        if completed is not None and tick > completed:
            return "late"
        records = result.bank.row_records(r)
        fired = sorted(
            name
            for name, (count, first) in records.items()
            if count > 0 and first is not None and first >= tick
        )
        latencies: Dict[str, int] = {}
        for ea in fired:
            first = records[ea][1]
            if first is not None:
                latencies[ea] = first - tick
        return {"fired": fired, "latencies": latencies}


class BatchView:
    """One campaign's view of a shared :class:`BatchRunner`: its task
    indices, offset into the runner's, and its config, under which the
    first of its rounds that the batch answers runs the batch pass."""

    def __init__(self, batch: BatchRunner, offset: int, size: int,
                 config: CampaignConfig):
        self.batch = batch
        self.config = config
        self._offset = offset
        #: how many of the campaign's rows the runner planned into
        #: groups: the campaign's group capacity
        self.planned = sum(
            offset + i in batch._group_of for i in range(size)
        )

    def __call__(self, index: int) -> Any:
        return self.batch(self._offset + index)

    def answers(self, index: int) -> bool:
        return self.batch.answers(self._offset + index)

    def outcomes(self, indices: Sequence[int]) -> Dict[int, Any]:
        served = self.batch.outcomes(
            [self._offset + index for index in indices], self.config
        )
        return {
            index - self._offset: outcome
            for index, outcome in served.items()
        }


# ======================================================================
# Campaign-facing helpers.
# ======================================================================
def wrap_runners(
    parts: Sequence[BatchPart],
    configs: Sequence[Any],
    factories: Sequence[Callable[[Any], Any]],
) -> List[Callable[[int], Any]]:
    """Each campaign's runner: its :class:`BatchView` of the batch it
    shares with every other batching campaign of the same factory and
    group count, or its scalar runner (``parts[i].inner``).

    A campaign batches when its config asks for it (``batch_width``
    > 0); it forms ``jobs`` groups on the process backend and one on
    the serial backend.  A batch whose target no kernel supports, or
    that could plan no group, leaves its campaigns on the scalar path,
    which needs no wrapper to stay correct.
    """
    runners: List[Callable[[int], Any]] = [part.inner for part in parts]
    shared: Dict[Tuple[int, int], List[int]] = {}
    for i, config in enumerate(configs):
        if config.vector.batch_width > 0:
            groups = (
                config.jobs if config.resolved_backend() == "process" else 1
            )
            shared.setdefault((id(factories[i]), groups), []).append(i)
    for (_, groups), members in shared.items():
        batch = BatchRunner(
            [parts[i] for i in members], factories[members[0]], groups
        )
        if batch._kernel is not None:
            views = batch.views([configs[i] for i in members])
            for i, view in zip(members, views):
                runners[i] = view
    return runners
