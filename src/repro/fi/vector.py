"""Vectorized batch simulation core for injection campaigns.

The scalar campaign path simulates every injected run on its own:
one Python interpreter loop over ticks, module invocations, quantized
stores and hook dispatches per run.  Across all four campaigns —
permeability, detection, and the enumerative memory and recovery
sweeps — almost all of that work is identical across runs, even runs
of *different test cases*: same target system, same schedule, same
per-tick arithmetic; only the tiny injected disturbance and the
per-case seed state differ.  This module batches such runs: plant
state, module state cells, sensor registers and the signal store
become numpy arrays with **one row per run** (rows of a group may mix
test cases; each row is seeded from its own case's tick-0 snapshot
and diffed against its own golden stream via per-row indirection),
and a target-specific kernel (``repro.watertank.vectorize`` /
``repro.target.vectorize``) advances *all* rows of a batch through
each tick at once.  Groups are contiguous runs of a campaign's tasks
capped only by the batch width: permeability rows of different
modules share a batch, each row flipping and recording its own module
(:class:`InvocationRecorder`).  Memory/recovery rows vectorize the
periodic single-bit flips of
:class:`repro.fi.injector.PeriodicMemoryFlip` (:class:`MemoryFlipPlan`),
and recovery groups run twice — a plain detection pass and a
containment pass with a :class:`RecoveringBankArrays` poking
substitutions into the store.

Correctness contract
--------------------
Batching is a pure execution strategy: outcomes are **bit-identical**
to the scalar path.  Four mechanisms keep that true:

* every kernel is a transcription of the scalar simulator's per-tick
  arithmetic onto int64/float64 arrays (same operation order, same
  quantization points), seeded from the same tick-0
  ``capture_state()`` snapshots;
* detection, memory and recovery rows dispatch per row: like the
  scalar loop, each row runs the modules of its own — possibly
  corrupted — slot number, through masked invocations;
* dispatch-divergent *permeability* rows are *retired*, because their
  recorded invocation streams assume the golden schedule: the golden
  slot is asserted after every CLOCK/TIMER invocation, and a row whose
  control flow departs it is recomputed wholesale by the scalar path;
* rows selected for an integrity audit, or running under chaos-test
  instrumentation, never enter a batch at all.

Layout and dispatch
-------------------
Both kernels derive from :class:`BatchKernel`, which owns the state,
the dispatch and the module invocation; a kernel transcribes only its
tick loop and module bodies.  The signal store and every module's
state cells are rows of one dense ``(cells, rows)`` int64 array
(:class:`BatchCells`); a cell name reads as a view of its row
(:class:`CellBlock`), so a module's state is one block and the
dispatch successor table is a 2-D slice that memory flips write
straight into.  A masked invocation restores the rows outside its
mask with one ``np.copyto`` of the module's block.  Per-row dispatch
counts the live rows per module slot with one table lookup and one
``np.bincount``: a slot holding every live row runs unmasked, one
holding some runs masked, and a tick with no live row on a module
slot invokes nothing.  :class:`MemoryFlipPlan` is indexed by tick
residue modulo the flip period, so a tick touches only the rows due
then.  At bench scale a masked invocation costs about 40 µs at 114
rows and a tick 67–102 µs outside the module bodies (measurements in
docs/campaigns.md).

Golden invocation streams — the reference side of the permeability
comparison — are built once as numpy arrays before the worker pool
forks, and the workers inherit them through the fork.
Each group is computed once per campaign: a pool worker ships the
outcomes of the group's rows its chunk did not ask for home, and the
next pool forks with them cached (:meth:`BatchRunner.ship`,
:meth:`BatchRunner.absorb`), so adaptive rounds never recompute it.

On by default: ``CampaignConfig(vector=VectorPolicy(batch_width=N))``
/ ``--batch-width N`` sets the width (default 256); ``0`` selects the
scalar path, which is the oracle and the only path without numpy.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fi.counters import Counters
from repro.model.signal import SignalType

try:
    import numpy as np
except Exception:  # pragma: no cover - numpy ships with the toolchain
    np = None

__all__ = [
    "vector_stats",
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
    "BatchRunner",
    "wrap_runner",
]


#: the process-wide counters used by all batching machinery (the
#: ``vec_`` keys of the counter table in docs/campaigns.md)
vector_stats = Counters(
    "vec_", "batched_ticks", "retired_rows", "groups", "rows",
    "scalar_fallbacks", "cross_case_groups", "group_capacity",
)


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
    """One batch handed to a target kernel."""

    kind: str  #: "permeability" | "detection" | "memory" | "recovery"
    rows: List[VectorRow]
    cases: Dict[int, Any]  #: case_id -> test case
    templates: Dict[int, Any]  #: case_id -> tick-0 SimulatorState
    specs: Sequence[Any] = ()  #: assertion specs (detection/memory)
    policies: Any = None  #: recovery: {ea name -> RecoveryPolicy}
    recover: bool = False  #: recovery: containment pass (vs baseline)


@dataclass
class GroupResult:
    """Per-row outcomes of one kernel batch (parallel lists)."""

    retired: List[bool]
    injected: List[bool]
    first_injection_tick: List[Optional[int]]
    completion_tick: List[Optional[int]]
    #: permeability: each row's recorded stream of its own module
    streams: Optional["InvocationRecorder"] = None
    #: detection: per-row {ea name -> (fire_count, first_fire_tick)}
    bank: Optional[List[Dict[str, Tuple[int, Optional[int]]]]] = None
    #: memory/recovery: per-row mission verdict (safety failure)
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


# ======================================================================
# Vectorized periodic memory flips (see PeriodicMemoryFlip).
# ======================================================================
class MemoryFlipPlan:
    """The per-row flip schedule of one memory/recovery batch.

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
        for period in np.unique(self._period).tolist():
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
    """The module-input flips and invocation logs of one permeability
    batch: per row, a transcription of the scalar run's
    :class:`repro.fi.injector.ModuleInputFlip` and
    :class:`repro.fi.comparison.InvocationLog`.  Each row flips one
    input bit of *its own* module at that module's first invocation at
    or after the row's tick and records that module's (post-marshal
    inputs, store read-back outputs) stream, so rows of every module
    share one batch.  The kernel sets :attr:`tick` each tick and calls
    :meth:`leave` for rows that leave the run loop.
    """

    def __init__(self, kernel, rows: Sequence[VectorRow], bitmask,
                 first_inj, ticks: int):
        n = len(rows)
        self._bitmask = bitmask
        self._first_inj = first_inj
        self._port = np.zeros(n, dtype=np.int64)
        self._live = np.ones(n, dtype=bool)
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
        for module in sorted({row.injection.module for row in rows}):
            idx = np.array(
                [r for r, row in enumerate(rows)
                 if row.injection.module == module],
                dtype=np.int64,
            )
            in_ports, out_ports = kernel.module_ports(module)
            self._port[idx] = [
                in_ports.index(rows[r].injection.port) for r in idx
            ]
            slots = [
                s for s, mods in kernel.slot_modules.items() if module in mods
            ]
            cap = ticks  # a module without a slot runs every tick
            if slots:
                first = (slots[0] - 1) % kernel.n_slots
                cap = max(0, (ticks - first + kernel.n_slots - 1)
                          // kernel.n_slots)
            ins = np.zeros((len(idx), cap, len(in_ports)), np.int64)
            outs = np.zeros((len(idx), cap, len(out_ports)), np.int64)
            for p, r in enumerate(idx):
                self.rec_ins[r], self.rec_outs[r] = ins[p], outs[p]
            self._streams[module] = (idx, ins, outs)
            self._live_rows[module] = (slice(None), idx)
            order = sorted(idx.tolist(), key=lambda r: rows[r].injection.tick)
            self._due[module] = (
                [rows[r].injection.tick for r in order],
                np.array(order, dtype=np.int64),
            )
        #: module -> invocations recorded; its first flip not yet due
        self._count = dict.fromkeys(self._streams, 0)
        self._next_due = dict.fromkeys(self._streams, 0)

    def marshal(self, module: str, args) -> None:
        """Strike the flips due at this invocation of *module*, in
        place on the freshly copied ``(ports, rows)`` args."""
        due = self._due.get(module)
        if due is None:
            return
        ticks, order = due
        start = self._next_due[module]
        if start == len(ticks) or ticks[start] > self.tick:
            return
        end = bisect.bisect_right(ticks, self.tick, start)
        self._next_due[module] = end
        hit = order[start:end]
        hit = hit[self._live[hit]]
        # xor of a bit < width on an in-range quantized value stays in
        # range for every signal type
        args[self._port[hit], hit] ^= self._bitmask[hit]
        self._first_inj[hit] = self.tick

    def record(self, module: str, args, outs) -> None:
        """Append this invocation of *module* (``(ports, rows)`` args
        and outputs) to its live rows' streams."""
        stream = self._streams.get(module)
        if stream is None:
            return
        _, ins, outs_buf = stream
        pos, rows = self._live_rows[module]
        k = self._count[module]
        ins[pos, k] = args[:, rows].T
        outs_buf[pos, k] = outs[:, rows].T
        self.rec_len[rows] = k + 1
        self._count[module] = k + 1

    def leave(self, left) -> None:
        """Rows *left* (a mask) left the run loop: no further flips or
        records."""
        self._live &= ~left
        for module, (idx, _, _) in self._streams.items():
            pos = np.nonzero(self._live[idx])[0]
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
    (:class:`BatchCells`), per-row dispatch and module invocation.

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

    def module_ports(self, module: str):
        ins, outs, _, _ = self.ports[module]
        return ins, outs

    def supports_injection(self, inj: RowInjection) -> bool:
        """Whether a row's injection can strike inside a batch
        (memory rows: int-backed cells the kernel hooks only)."""
        kind = inj.memory_kind
        if kind is None:
            return True
        if kind == "state":
            spec = self.state_spec.get((inj.module, inj.cell))
        elif kind == "signal":
            spec = self.quant.get(inj.cell)
        elif kind == "arg":
            ports = self.ports.get(inj.module)
            if ports is None or inj.cell not in ports[0]:
                return False
            spec = self.quant.get(ports[2][ports[0].index(inj.cell)])
        elif kind == "local":
            spec = self.local_spec.get((inj.module, inj.cell))
        else:
            return False
        return spec is not None and spec[0] is not SignalType.FLOAT

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
        return cells

    def _registers(self, job: GroupJob):
        """The sensor registers as one ``(registers, rows)`` block in
        the order of their store rows (a separate array: a detection
        flip corrupts both)."""
        return np.array([
            self._column(job, lambda t, r=r: t.sensors[r.lower()])
            for r in self.REGISTERS
        ])

    def _input_flips(self, job: GroupJob) -> Dict[int, Any]:
        """Detection rows: tick -> ``(rows, register rows)`` of the
        system-input flips due then."""
        due: Dict[int, List[Tuple[int, int]]] = {}
        for r, row in enumerate(job.rows):
            inj = row.injection
            due.setdefault(inj.tick, []).append(
                (r, self.REGISTERS.index(inj.signal))
            )
        return {
            tick: np.array(pairs, dtype=np.int64).T
            for tick, pairs in due.items()
        }

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
        memory strikes are confined to the mask."""
        in_rows, writers, out_rows, st, body = self._calls[module]
        args = self._store[in_rows]
        rec, mem = self._rec, self._mem
        if rec is not None:
            rec.marshal(module, args)
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
            rec.record(module, args, self._store[out_rows])

    def _dispatch(self, slots, live_count: int, dead=None) -> None:
        """Per-row dispatch, like the scalar loop: every live row runs
        the modules of its own — possibly corrupted — slot number
        *slots*.  A module slot holding every live row runs unmasked,
        one holding some of them masked; rows in *dead* (a mask) left
        the run loop and take no invocation."""
        code = self._slot_code[slots]
        if dead is not None:
            code[dead] = len(self._slot_groups)
        counts = np.bincount(code, minlength=len(self._slot_groups) + 1)
        for k, count in enumerate(counts.tolist()[:-1]):
            if count:
                mask = None if count == live_count else code == k
                for module in self._slot_groups[k]:
                    self._invoke(module, mask=mask)

    def _dispatch_golden(self, slot: int, slots, retired, live=None) -> None:
        """Permeability rows: their recorded invocation streams assume
        the golden schedule, so (live) rows whose slot number *slots*
        left it retire, and the golden *slot*'s modules run."""
        off = slots != slot
        if live is not None:
            off &= live
        retired |= off
        for module in self.slot_modules.get(slot, ()):
            self._invoke(module)


# ======================================================================
# Group planning.
# ======================================================================
@dataclass
class _Group:
    gid: int
    indices: List[int] = field(default_factory=list)


def _plan_groups(
    rows: Sequence[Tuple[Any, RowInjection]],
    batch_width: int,
    supported: Optional[Callable[[RowInjection], bool]] = None,
) -> Tuple[Dict[int, _Group], List[_Group]]:
    """Contiguous runs of ``(case, injection)`` rows, capped at
    *batch_width*.

    Singleton groups are dropped — a batch of one is strictly worse
    than the scalar path.  Injections the kernel cannot strike inside
    a batch (*supported* says no — e.g. float-backed memory cells)
    stay on the scalar path and break the contiguous run.
    """
    groups: List[_Group] = []
    current: Optional[_Group] = None
    for index, (_, injection) in enumerate(rows):
        if supported is not None and not supported(injection):
            current = None
            continue
        if current is None or len(current.indices) >= batch_width:
            current = _Group(gid=len(groups))
            groups.append(current)
        current.indices.append(index)
    kept = [g for g in groups if len(g.indices) >= 2]
    index_of: Dict[int, _Group] = {}
    for group in kept:
        for index in group.indices:
            index_of[index] = group
    return index_of, kept


# ======================================================================
# The batch runner.
# ======================================================================
_RETIRED = object()


def _kernel_for(probe):
    """The vector kernel class supporting *probe*, or ``None``."""
    if np is None:
        return None
    kernels = []
    try:
        from repro.watertank.vectorize import WatertankVectorKernel

        kernels.append(WatertankVectorKernel)
    except Exception:  # pragma: no cover - partial install
        pass
    try:
        from repro.target.vectorize import ArrestmentVectorKernel

        kernels.append(ArrestmentVectorKernel)
    except Exception:  # pragma: no cover - partial install
        pass
    for kernel in kernels:
        try:
            if kernel.supports(probe):
                return kernel
        except Exception:
            continue
    return None


class BatchRunner:
    """Answers campaign task indices from vectorized batches.

    Wraps a campaign's scalar ``runner(index)`` callable; ``rows[i]``
    is task ``i`` as a ``(test case, RowInjection)`` row.  Task
    indices that belong to a plannable batch are answered by running
    the whole batch through the target's vector kernel once (cached
    per process, each row's outcome served once); everything else —
    audited rows, chaos runs, rows of unsupported targets, retired
    rows — falls through to the wrapped scalar runner, which remains
    the semantic reference.

    Also exposes the executor integration hooks:

    * :meth:`timeout_scale_for` — a batch leader computes up to
      ``len(group)`` runs under one per-task alarm, so its budget is
      scaled accordingly;
    * :meth:`chunk_plan` — pool chunks are aligned to batch
      boundaries, so exactly one worker computes each batch;
    * :meth:`ship` and :meth:`absorb` — a worker sends the outcomes of
      the rows its chunk did not ask for home, and the parent caches
      them for the pools of later adaptive rounds.
    """

    def __init__(
        self,
        kind: str,
        rows: Sequence[Tuple[Any, RowInjection]],
        inner: Callable[[int], Any],
        batch_width: int,
        factory: Callable[[Any], Any],
        auditor: Optional[Any] = None,
        goldens: Optional[Any] = None,
        direct_only: bool = True,
        specs: Sequence[Any] = (),
        policies: Optional[Any] = None,
    ):
        self._kind = kind
        self._rows = list(rows)
        self._inner = inner
        self._auditor = auditor
        self._factory = factory
        self._goldens = goldens
        self._direct_only = direct_only
        self._specs = list(specs)
        self._policies = policies
        self._width = batch_width
        self._chaos = any(
            name.startswith("REPRO_CHAOS_") for name in os.environ
        )
        #: group id -> outcomes of its rows not served yet (retired
        #: rows have none); kept until the runner is dropped
        self._cache: Dict[int, Dict[int, Any]] = {}
        #: groups computed in this process since the last :meth:`ship`
        self._fresh: List[int] = []
        self._group_of: Dict[int, _Group] = {}
        self._groups: List[_Group] = []
        self._kernel = None
        self._templates: Dict[int, Any] = {}
        self._cases: Dict[int, Any] = {}
        #: (case id, module) -> its golden (inputs, outputs) per invocation
        self._golden_streams: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
        if batch_width > 0 and len(self._rows) >= 2:
            self._prepare(batch_width)

    # ------------------------------------------------------------------
    # Pre-fork preparation: plan, templates, golden streams.
    # ------------------------------------------------------------------
    def _prepare(self, batch_width: int) -> None:
        for case, _ in self._rows:
            self._cases.setdefault(case.case_id, case)
        first_case = next(iter(self._cases.values()))
        probe = self._factory(first_case)
        kernel_cls = _kernel_for(probe)
        if kernel_cls is None:
            return
        self._kernel = kernel_cls(probe)
        self._group_of, self._groups = _plan_groups(
            self._rows,
            batch_width,
            supported=getattr(self._kernel, "supports_injection", None),
        )
        if not self._groups:
            self._kernel = None
            return
        # tick-0 seeds, one per test case: captured before the pool
        # forks so workers share them copy-on-write
        for case_id, case in self._cases.items():
            self._templates[case_id] = self._factory(case).capture_state()
        if self._kind == "permeability" and self._goldens is not None:
            self._build_golden_streams(probe)

    def _build_golden_streams(self, probe) -> None:
        """The golden invocation streams the batches will diff against,
        as arrays, once, pre-fork."""
        needed = set()
        for group in self._groups:
            for index in group.indices:
                case, injection = self._rows[index]
                needed.add((case.case_id, injection.module))
        for case_id, module in sorted(needed):
            golden = self._goldens.get(self._cases[case_id])
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
    # Executor integration hooks (duck-typed).
    # ------------------------------------------------------------------
    def timeout_scale_for(self, index: int) -> int:
        """Per-task timeout multiplier: a batch leader simulates the
        whole group under its own alarm."""
        group = self._batchable(index)
        if group is None or group.gid in self._cache:
            return 1
        return len(group.indices)

    def chunk_plan(self, indices: Sequence[int]) -> List[List[int]]:
        """One pool chunk per group: the rows of *indices* a batch
        answers.  The executor chunks the rest (ungrouped, audited or
        chaos rows) like any scalar work."""
        chunks: Dict[int, List[int]] = {}
        for index in indices:
            if self.answers(index):
                gid = self._group_of[index].gid
                chunks.setdefault(gid, []).append(index)
        return list(chunks.values())

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _batchable(self, index: int) -> Optional[_Group]:
        if self._kernel is None or self._chaos:
            return None
        group = self._group_of.get(index)
        if group is None:
            return None
        if self._auditor is not None and self._auditor.should_audit(index):
            # audited rows re-run under the integrity machinery — the
            # scalar path stays their single source of truth
            return None
        return group

    def answers(self, index: int) -> bool:
        """True when a batch answers task *index*; the scalar path then
        runs it only if its row retires."""
        return self._batchable(index) is not None

    def __call__(self, index: int) -> Any:
        group = self._batchable(index)
        if group is None:
            vector_stats.scalar_fallbacks += 1
            return self._inner(index)
        outcomes = self._cache.get(group.gid)
        if outcomes is None:
            outcomes = self._cache[group.gid] = self._compute_group(group)
            self._fresh.append(group.gid)
        # each outcome is served once; a row without one (retired, or
        # asked again after a failed attempt) runs on the scalar path
        outcome = outcomes.pop(index, _RETIRED)
        if outcome is _RETIRED:
            return self._inner(index)
        vector_stats.rows += 1
        return outcome

    def ship(self) -> Dict[int, Dict[int, Any]]:
        """The unserved outcomes of the groups this process computed
        since the last call, by group id.

        A pool worker ships them home after each chunk.  A chunk holds
        every row of its round that the group answers, so what is left
        belongs to later adaptive rounds; nothing is left when the
        chunk held the whole group, as in a fixed-n run.
        """
        shipped = {gid: self._cache[gid] for gid in self._fresh
                   if self._cache[gid]}
        self._fresh = []
        return shipped

    def absorb(self, shipped: Dict[int, Dict[int, Any]]) -> None:
        """Cache outcomes a pool worker shipped home, so the pools of
        later rounds fork with them and no row is simulated twice."""
        for gid, outcomes in shipped.items():
            self._cache.setdefault(gid, {}).update(outcomes)

    # ------------------------------------------------------------------
    # Batch computation and outcome assembly.
    # ------------------------------------------------------------------
    def _compute_group(self, group: _Group) -> Dict[int, Any]:
        import dataclasses

        rows = [
            VectorRow(case_id=case.case_id, injection=injection)
            for case, injection in (self._rows[i] for i in group.indices)
        ]
        job = GroupJob(
            kind=self._kind,
            rows=rows,
            cases=self._cases,
            templates=self._templates,
            specs=(
                self._specs
                if self._kind in ("detection", "memory", "recovery")
                else ()
            ),
            policies=self._policies if self._kind == "recovery" else None,
            recover=False,
        )
        result = self._kernel.run_group(job)
        wrapped = None
        if self._kind == "recovery":
            # the containment pass: same rows, same injections, but a
            # recovering bank poking substitutions into the store
            wrapped = self._kernel.run_group(
                dataclasses.replace(job, recover=True)
            )
        vector_stats.groups += 1
        vector_stats.group_capacity += self._width
        if len({row.case_id for row in rows}) > 1:
            vector_stats.cross_case_groups += 1
        outcomes: Dict[int, Any] = {}
        for row, index in enumerate(group.indices):
            retired = result.retired[row] or (
                wrapped is not None and wrapped.retired[row]
            )
            if retired:
                vector_stats.retired_rows += 1
                continue
            if not self.answers(index):
                continue  # audited: the scalar path serves it
            if self._kind == "permeability":
                outcomes[index] = self._permeability_outcome(
                    rows[row], result, row
                )
            elif self._kind == "memory":
                outcomes[index] = self._memory_outcome(result, row)
            elif self._kind == "recovery":
                outcomes[index] = self._recovery_outcome(
                    result, wrapped, row
                )
            else:
                outcomes[index] = self._detection_outcome(
                    rows[row], result, row
                )
        return outcomes

    def _permeability_outcome(
        self, row: VectorRow, result: GroupResult, r: int
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
            if direct or not self._direct_only:
                hits.append((first_idx, k, port))
        hits.sort()
        return [port for _, _, port in hits]

    def _memory_outcome(self, result: GroupResult, r: int) -> Any:
        if not result.injected[r]:
            return None
        records = result.bank[r]
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
        records = baseline.bank[r]
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
        records = result.bank[r]
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


# ======================================================================
# Campaign-facing helpers.
# ======================================================================
def wrap_runner(
    kind: str,
    runner: Callable[[int], Any],
    rows: Sequence[Tuple[Any, RowInjection]],
    config: Any,
    factory: Callable[[Any], Any],
    auditor: Optional[Any] = None,
    goldens: Optional[Any] = None,
    direct_only: bool = True,
    specs: Sequence[Any] = (),
    policies: Optional[Any] = None,
) -> Callable[[int], Any]:
    """The campaign's runner, batched when the config asks for it.

    Returns *runner* unchanged when batching is off (``batch_width``
    0), numpy is unavailable, or no batch could be planned — the
    scalar path needs no wrapper to stay correct.
    """
    width = config.vector.batch_width
    if width <= 0 or np is None:
        return runner
    batched = BatchRunner(
        kind=kind,
        rows=rows,
        inner=runner,
        batch_width=width,
        factory=factory,
        auditor=auditor,
        goldens=goldens,
        direct_only=direct_only,
        specs=specs,
        policies=policies,
    )
    if batched._kernel is None:
        return runner
    return batched
