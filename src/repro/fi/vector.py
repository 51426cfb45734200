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

Golden invocation streams — the reference side of the permeability
comparison — are packed once into shared memory
(:class:`repro.fi.shm.ShmArrayPack`) before the worker pool forks.

Enabled with ``CampaignConfig(vector=VectorPolicy(batch_width=N))`` /
``--batch-width N`` (default 0 = scalar path).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except Exception:  # pragma: no cover - numpy ships with the toolchain
    np = None

__all__ = [
    "VectorStats",
    "vector_stats",
    "RowInjection",
    "VectorRow",
    "GroupJob",
    "GroupResult",
    "BankArrays",
    "RecoveringBankArrays",
    "MemoryFlipPlan",
    "InvocationRecorder",
    "flip_cells",
    "BatchRunner",
    "wrap_runner",
    "close_runner",
]


# ======================================================================
# Process-wide counters (mirrors ff_stats / integrity_stats).
# ======================================================================
class VectorStats:
    """Counters of the vectorized core, aggregated into telemetry."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: row-ticks advanced in batch mode (rows x ticks)
        self.batched_ticks = 0
        #: rows retired to the scalar path after dispatch divergence
        self.retired_rows = 0
        #: batches computed
        self.groups = 0
        #: rows whose outcome came from a batch
        self.rows = 0
        #: rows answered by the scalar path (audited, chaos, ungrouped)
        self.scalar_fallbacks = 0
        #: computed groups whose rows span more than one test case
        self.cross_case_groups = 0
        #: total row capacity of computed groups (groups x batch width)
        self.group_capacity = 0

    def as_tuple(self) -> Tuple[int, int, int, int, int, int, int]:
        return (
            self.batched_ticks,
            self.retired_rows,
            self.groups,
            self.rows,
            self.scalar_fallbacks,
            self.cross_case_groups,
            self.group_capacity,
        )


#: the process-wide counters used by all batching machinery.
vector_stats = VectorStats()


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
    from repro.model.signal import SignalType

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
    """

    def __init__(self, kernel, rows: Sequence[VectorRow], first_inj):
        n = len(rows)
        self._first_inj = first_inj
        self._phase = np.array(
            [row.injection.tick for row in rows], dtype=np.int64
        )
        self._period = np.array(
            [max(1, row.injection.period) for row in rows], dtype=np.int64
        )
        self._armed = np.zeros(n, dtype=bool)
        self._live = None
        self._tick = 0
        stack = np.zeros(n, dtype=bool)
        state_rows: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        signal_rows: Dict[str, List[Tuple[int, int]]] = {}
        arg_rows: Dict[str, Dict[str, List[Tuple[int, int]]]] = {}
        local_rows: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        for r, row in enumerate(rows):
            inj = row.injection
            pair = (r, 1 << inj.bit)
            if inj.memory_kind == "state":
                state_rows.setdefault((inj.module, inj.cell), []).append(pair)
            elif inj.memory_kind == "signal":
                signal_rows.setdefault(inj.cell, []).append(pair)
            elif inj.memory_kind == "arg":
                arg_rows.setdefault(inj.module, {}).setdefault(
                    inj.cell, []
                ).append(pair)
                stack[r] = True
            else:  # local
                local_rows.setdefault((inj.module, inj.cell), []).append(pair)
                stack[r] = True
        self._stack = stack

        def _bucket(pairs):
            idx = np.array([p[0] for p in pairs], dtype=np.int64)
            bms = np.array([p[1] for p in pairs], dtype=np.int64)
            return idx, bms

        self._state = []
        for (module, cell), pairs in state_rows.items():
            ctype, width = kernel.state_spec[(module, cell)]
            self._state.append((module, cell, *_bucket(pairs), ctype, width))
        self._signal = []
        for cell, pairs in signal_rows.items():
            stype, width = kernel.quant[cell]
            self._signal.append((cell, *_bucket(pairs), stype, width))
        self._arg: Dict[str, list] = {}
        for module, ports in arg_rows.items():
            in_ports, _, in_sigs, _ = kernel.ports[module]
            entries = []
            for cell, pairs in ports.items():
                j = in_ports.index(cell)
                stype, width = kernel.quant[in_sigs[j]]
                entries.append((j, *_bucket(pairs), stype, width))
            self._arg[module] = entries
        self._local: Dict[Tuple[str, str], tuple] = {}
        for (module, cell), pairs in local_rows.items():
            ctype, width = kernel.local_spec[(module, cell)]
            self._local[(module, cell)] = (*_bucket(pairs), ctype, width)
        self._succ_cells = frozenset(getattr(kernel, "succ_cells", ()))
        self._any_armed = False
        self._build_schedule()

    def _build_schedule(self) -> None:
        """Precompute, per (period, tick residue), which RAM flip
        buckets can fire.  A full sweep plans one bucket per memory
        location, so scanning every bucket every tick dwarfs the
        handful that actually flip; the boundary condition collapses
        to ``tick % period == phase % period``, letting
        :meth:`pre_tick` visit only the current residue's buckets."""
        tables = {
            int(P): [[] for _ in range(int(P))]
            for P in np.unique(self._period)
        }

        def _split(entry):
            is_state = len(entry) == 6
            if is_state:
                module, cell, idx, bms, type_, width = entry
                rebuild = (module, cell) in self._succ_cells
                key = (module, cell)
            else:
                key, idx, bms, type_, width = entry
                rebuild = False
            periods = self._period[idx]
            phases = self._phase[idx]
            for P, table in tables.items():
                for residue in np.unique(phases[periods == P] % P):
                    m = (periods == P) & ((phases % P) == residue)
                    table[int(residue)].append((
                        is_state, key, idx[m], bms[m], phases[m],
                        type_, width, rebuild,
                    ))

        for entry in self._state:
            _split(entry)
        for entry in self._signal:
            _split(entry)
        self._schedules = list(tables.items())

    def _record(self, rsel, tick: int) -> None:
        first = self._first_inj
        first[rsel] = np.where(first[rsel] < 0, tick, first[rsel])

    def pre_tick(self, tick: int, S, M, live=None) -> bool:
        """Apply RAM flips / arm stack rows at this tick's period
        boundaries.  Returns True when a dispatch-successor state cell
        was flipped (the kernel must re-stack its gathered schedule)."""
        boundary = (tick >= self._phase) & (
            (tick - self._phase) % self._period == 0
        )
        if live is not None:
            boundary = boundary & live
        self._tick = tick
        self._live = live
        if not boundary.any():
            return False
        rebuild = False
        for P, table in self._schedules:
            for entry in table[tick % P]:
                (is_state, key, idx, bms, phases,
                 type_, width, is_succ) = entry
                sel = tick >= phases
                if live is not None:
                    sel = sel & live[idx]
                if not sel.any():
                    continue
                rsel = idx[sel]
                arr = M[key[0]][key[1]] if is_state else S[key]
                arr[rsel] = flip_cells(arr[rsel], bms[sel], type_, width)
                self._record(rsel, tick)
                if is_succ:
                    rebuild = True
        armed_now = boundary & self._stack
        if armed_now.any():
            self._armed |= armed_now
            self._any_armed = True
        return rebuild

    def marshal(self, module: str, args: List[Any]) -> None:
        """Strike armed arg rows at *module*'s marshaling, in place on
        the freshly copied arg arrays."""
        if not self._any_armed:
            return
        entries = self._arg.get(module)
        if entries is None:
            return
        for j, idx, bms, stype, width in entries:
            sel = self._armed[idx]
            if self._live is not None:
                sel = sel & self._live[idx]
            if not sel.any():
                continue
            rsel = idx[sel]
            arr = args[j]
            arr[rsel] = flip_cells(arr[rsel], bms[sel], stype, width)
            self._record(rsel, self._tick)
            self._armed[rsel] = False
            self._any_armed = bool(self._armed.any())

    def scoped_live(self, mask):
        """Narrow the live-row mask to *mask* for one masked module
        invocation (per-row dispatch: only the rows whose schedule
        dispatched the module may take arg/local strikes); returns the
        previous mask for :meth:`restore_live`."""
        prev = self._live
        self._live = mask if prev is None else (prev & mask)
        return prev

    def restore_live(self, prev) -> None:
        self._live = prev

    def local(self, module: str, name: str, values):
        """Strike armed local rows at the (module, local) write point;
        returns the (possibly copied and flipped) values array."""
        if not self._any_armed:
            return values
        bucket = self._local.get((module, name))
        if bucket is None:
            return values
        idx, bms, ctype, width = bucket
        sel = self._armed[idx]
        if self._live is not None:
            sel = sel & self._live[idx]
        if not sel.any():
            return values
        rsel = idx[sel]
        out = np.array(values, dtype=np.int64, copy=True)
        out[rsel] = flip_cells(out[rsel], bms[sel], ctype, width)
        self._record(rsel, self._tick)
        self._armed[rsel] = False
        self._any_armed = bool(self._armed.any())
        return out


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
    share one batch.  The kernel sets :attr:`tick` and :attr:`live`
    (the rows still in the run loop; ``None``: every row) each tick.
    """

    def __init__(self, kernel, rows: Sequence[VectorRow], bitmask,
                 first_inj, ticks: int):
        n = len(rows)
        self._bitmask = bitmask
        self._first_inj = first_inj
        self._from = np.array(
            [row.injection.tick for row in rows], dtype=np.int64
        )
        self._pending = np.ones(n, dtype=bool)
        self._port = np.zeros(n, dtype=np.int64)
        self.tick = 0
        self.live = None
        #: per row: recorded invocations and (n_inv, n_in/n_out) views
        self.rec_len = np.zeros(n, dtype=np.int64)
        self.rec_ins: List[Any] = [None] * n
        self.rec_outs: List[Any] = [None] * n
        #: module -> (its rows, inputs buffer, outputs buffer)
        self._streams: Dict[str, Tuple[Any, Any, Any]] = {}
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
        self._count = dict.fromkeys(self._streams, 0)

    def marshal(self, module: str, args: List[Any]) -> None:
        """Strike the flips due at this invocation of *module*, in
        place on the freshly copied arg arrays."""
        stream = self._streams.get(module)
        if stream is None:
            return
        idx = stream[0]
        due = self._pending[idx] & (self._from[idx] <= self.tick)
        if self.live is not None:
            due &= self.live[idx]
        if not due.any():
            return
        hit = idx[due]
        for j, arg in enumerate(args):
            m = hit[self._port[hit] == j]
            # xor of a bit < width on an in-range quantized value stays
            # in range for every signal type
            arg[m] ^= self._bitmask[m]
        self._pending[hit] = False
        self._first_inj[hit] = self.tick

    def record(self, module: str, args: Sequence[Any],
               outs: Sequence[Any]) -> None:
        """Append this invocation of *module* to its live rows'
        streams."""
        stream = self._streams.get(module)
        if stream is None:
            return
        idx, ins, outs_buf = stream
        pos = (
            slice(None) if self.live is None
            else np.nonzero(self.live[idx])[0]
        )
        rows = idx[pos]
        k = self._count[module]
        for j, values in enumerate(args):
            ins[pos, k, j] = values[rows]
        for j, values in enumerate(outs):
            outs_buf[pos, k, j] = values[rows]
        self.rec_len[rows] = k + 1
        self._count[module] = k + 1


# ======================================================================
# Group planning.
# ======================================================================
@dataclass
class _Group:
    gid: int
    indices: List[int] = field(default_factory=list)


def _task_shape(kind: str, task: tuple, period_ticks: int = 0):
    """(case, injection) of one campaign task tuple."""
    if kind == "permeability":
        module, in_port, case, from_tick, bit = task
        return case, RowInjection(
            kind="arg", tick=from_tick, bit=bit, port=in_port, module=module
        )
    if kind in ("memory", "recovery"):
        location, case, bit, phase = task
        memory_kind, module, cell, cell_bit = location.vector_descriptor(bit)
        return case, RowInjection(
            kind="memory",
            tick=phase,
            bit=cell_bit,
            memory_kind=memory_kind,
            module=module,
            cell=cell,
            period=period_ticks,
        )
    target, case, tick, bit = task
    return case, RowInjection(kind="input", tick=tick, bit=bit, signal=target)


def _plan_groups(
    kind: str,
    tasks: Sequence[tuple],
    batch_width: int,
    period_ticks: int = 0,
    supported: Optional[Callable[[RowInjection], bool]] = None,
) -> Tuple[Dict[int, _Group], List[_Group]]:
    """Contiguous runs of tasks, capped at *batch_width*.

    Singleton groups are dropped — a batch of one is strictly worse
    than the scalar path.  Injections the kernel cannot strike inside
    a batch (*supported* says no — e.g. float-backed memory cells)
    stay on the scalar path and break the contiguous run.
    """
    groups: List[_Group] = []
    current: Optional[_Group] = None
    for index, task in enumerate(tasks):
        _, injection = _task_shape(kind, task, period_ticks)
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
#: scalar rows per chunk when the chunk plan batches ungrouped indices.
_SCALAR_CHUNK = 32


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

    Wraps a campaign's scalar ``runner(index)`` callable.  Task
    indices that belong to a plannable batch are answered by running
    the whole batch through the target's vector kernel once (cached
    per process); everything else — audited rows, chaos runs, rows of
    unsupported targets, retired rows — falls through to the wrapped
    scalar runner, which remains the semantic reference.

    Also exposes the two executor integration hooks:

    * :meth:`timeout_scale_for` — a batch leader computes up to
      ``len(group)`` runs under one per-task alarm, so its budget is
      scaled accordingly;
    * :meth:`chunk_plan` — pool chunks are aligned to batch
      boundaries, so exactly one worker computes each batch.
    """

    def __init__(
        self,
        kind: str,
        tasks: Sequence[tuple],
        inner: Callable[[int], Any],
        batch_width: int,
        factory: Callable[[Any], Any],
        auditor: Optional[Any] = None,
        goldens: Optional[Any] = None,
        direct_only: bool = True,
        specs: Sequence[Any] = (),
        policies: Optional[Any] = None,
        period_ticks: int = 0,
    ):
        self._kind = kind
        self._tasks = list(tasks)
        self._inner = inner
        self._auditor = auditor
        self._factory = factory
        self._goldens = goldens
        self._direct_only = direct_only
        self._specs = list(specs)
        self._policies = policies
        self._period = period_ticks
        self._width = batch_width
        self._chaos = any(
            name.startswith("REPRO_CHAOS_") for name in os.environ
        )
        self._cache: Dict[int, Dict[int, Any]] = {}
        self._served: Dict[int, int] = {}
        self._group_of: Dict[int, _Group] = {}
        self._groups: List[_Group] = []
        self._kernel = None
        self._templates: Dict[int, Any] = {}
        self._cases: Dict[int, Any] = {}
        self._pack = None
        self._golden_meta: Dict[Tuple[int, str], Tuple[int, int, int]] = {}
        if batch_width > 0 and len(self._tasks) >= 2:
            self._prepare(batch_width)

    # ------------------------------------------------------------------
    # Pre-fork preparation: plan, templates, golden shm pack.
    # ------------------------------------------------------------------
    def _prepare(self, batch_width: int) -> None:
        for task in self._tasks:
            case, _ = _task_shape(self._kind, task, self._period)
            self._cases.setdefault(case.case_id, case)
        first_case = next(iter(self._cases.values()))
        probe = self._factory(first_case)
        kernel_cls = _kernel_for(probe)
        if kernel_cls is None:
            return
        self._kernel = kernel_cls(probe)
        self._group_of, self._groups = _plan_groups(
            self._kind,
            self._tasks,
            batch_width,
            period_ticks=self._period,
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
            self._publish_golden_streams(probe)

    def _publish_golden_streams(self, probe) -> None:
        """Pack the golden invocation streams the batches will diff
        against into shared memory, once, pre-fork."""
        from repro.fi.shm import ShmArrayPack

        self._pack = ShmArrayPack()
        needed = set()
        for group in self._groups:
            for index in group.indices:
                case, injection = _task_shape(self._kind, self._tasks[index])
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
            key = f"g{case_id}:{module}"
            self._pack.publish(key + ":ins", ins)
            self._pack.publish(key + ":outs", outs)
            self._golden_meta[(case_id, module)] = (n, n_in, n_out)

    def close(self) -> None:
        if self._pack is not None:
            self._pack.close()
            self._pack = None

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
        """Pool chunks aligned to batch boundaries."""
        buckets: Dict[int, List[int]] = {}
        order: List[int] = []
        scalars: List[int] = []
        for index in indices:
            group = self._group_of.get(index)
            if group is None or self._kernel is None:
                scalars.append(index)
                continue
            bucket = buckets.get(group.gid)
            if bucket is None:
                bucket = buckets[group.gid] = []
                order.append(group.gid)
            bucket.append(index)
        chunks = [buckets[gid] for gid in order]
        chunks.extend(
            scalars[i:i + _SCALAR_CHUNK]
            for i in range(0, len(scalars), _SCALAR_CHUNK)
        )
        return chunks

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

    def __call__(self, index: int) -> Any:
        group = self._batchable(index)
        if group is None:
            vector_stats.scalar_fallbacks += 1
            return self._inner(index)
        outcomes = self._cache.get(group.gid)
        if outcomes is None:
            outcomes = self._compute_group(group)
            self._cache[group.gid] = outcomes
        outcome = outcomes.get(index, _RETIRED)
        served = self._served.get(group.gid, 0) + 1
        self._served[group.gid] = served
        if served >= len(group.indices):
            # every row answered: drop the batch from the cache
            self._cache.pop(group.gid, None)
            self._served.pop(group.gid, None)
        if outcome is _RETIRED:
            return self._inner(index)
        vector_stats.rows += 1
        return outcome

    # ------------------------------------------------------------------
    # Batch computation and outcome assembly.
    # ------------------------------------------------------------------
    def _compute_group(self, group: _Group) -> Dict[int, Any]:
        import dataclasses

        rows = []
        for index in group.indices:
            case, injection = _task_shape(
                self._kind, self._tasks[index], self._period
            )
            rows.append(
                VectorRow(case_id=case.case_id, injection=injection)
            )
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
        n_golden, n_in, _ = self._golden_meta[(row.case_id, module)]
        key = f"g{row.case_id}:{module}"
        g_ins = self._pack.get(key + ":ins")
        g_outs = self._pack.get(key + ":outs")
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
    tasks: Sequence[tuple],
    config: Optional[Any],
    factory: Callable[[Any], Any],
    auditor: Optional[Any] = None,
    goldens: Optional[Any] = None,
    direct_only: bool = True,
    specs: Sequence[Any] = (),
    policies: Optional[Any] = None,
    period_ticks: int = 0,
) -> Callable[[int], Any]:
    """The campaign's runner, batched when the config asks for it.

    Returns *runner* unchanged when batching is off (``batch_width``
    0), numpy is unavailable, or no batch could be planned — the
    scalar path needs no wrapper to stay correct.
    """
    width = 0
    if config is not None:
        vector = getattr(config, "vector", None)
        width = getattr(vector, "batch_width", 0) if vector else 0
    if width <= 0 or np is None:
        return runner
    batched = BatchRunner(
        kind=kind,
        tasks=tasks,
        inner=runner,
        batch_width=width,
        factory=factory,
        auditor=auditor,
        goldens=goldens,
        direct_only=direct_only,
        specs=specs,
        policies=policies,
        period_ticks=period_ticks,
    )
    if batched._kernel is None:
        batched.close()
        return runner
    return batched


def close_runner(runner: Any) -> None:
    """Release a wrapped runner's shared-memory segments (no-op for
    plain scalar runners)."""
    if isinstance(runner, BatchRunner):
        runner.close()
