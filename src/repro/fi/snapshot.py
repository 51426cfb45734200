"""Snapshot/fast-forward engine for deterministic simulators.

An injected run is bit-identical to the golden run until its injection
tick, so re-simulating that prefix from tick 0 is pure redundancy —
and for one-shot flips whose disturbance dies out, the *suffix* after
the last divergence is redundant too.  This module eliminates both:

* **Checkpoint tracks.**  While (re-)running a test case's golden
  simulation, :class:`CheckpointStore` records a
  :class:`~repro.target.simulation.SimulatorState` every
  ``checkpoint_stride`` ticks (plus the final state and the golden
  traces).  Tracks live in a process-wide
  :class:`~repro.fi.golden.ArtefactCache`, the same single-flight,
  LRU-bounded cache that holds the golden runs, and forked pool
  workers inherit them pre-warmed.
* **Prefix fast-forward.**  :meth:`FastForward.launch` builds the
  injected run's simulator already restored to the nearest checkpoint
  at-or-before the injection tick; only the remaining ticks are
  simulated.  Restoration covers the full closed loop — signal store,
  module locals, plant, sensor registers, classifier accumulators,
  loop bookkeeping — so the result is bit-identical to a
  full-from-tick-0 run.
* **Golden resynchronization.**  For a quiescent one-shot injector
  (flip applied, nothing armed), a top-of-tick probe compares the
  simulator state against the golden checkpoint at each stride
  boundary.  On an exact match the run's future is provably identical
  to the golden run's (the simulators are deterministic functions of
  their state), so the probe restores the golden *final* state,
  fast-forwards the monitor bank, and stops the run — skipping the
  entire remaining suffix.  Persistently corrupted state (disturbed
  counter registers) never matches, and such runs simply simulate to
  the end.

* **Shared-memory track pool.**  A checkpoint track is a pile of
  nested python dicts; forked workers inherit it through copy-on-write
  and then dirty the pages just by touching refcounts.
  :class:`TrackPool` flattens each golden track **once, pre-fork** into
  two flat numpy columns (one ``int64``, one ``float64``) plus a tiny
  path schema, publishes the columns through
  :class:`~repro.fi.shm.ShmArrayPack`, and rebuilds checkpoint states
  row-by-row out of the shared segments at restore time.  Leaves that
  are not plain ints/floats/bools (``None`` markers, failure-kind
  tuples, classifier accumulators) ride a small per-row side channel.
  The rebuild round-trips every leaf exactly — pooled restores are
  bit-identical to dict restores — and any track whose shape resists
  flattening, or any host without shared memory, simply stays on the
  dict path.

Both mechanisms preserve results bit-for-bit; they only trade redundant
simulation for snapshot comparisons.  ``ff_stats``, the ``ff_``
instance of :class:`~repro.fi.counters.Counters`, counts restores,
resynchronizations, skipped ticks and recorded tracks; telemetry reads
it as ``counts["ff_restores"]`` and so on.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.edm.monitors import MonitorBank
from repro.errors import CampaignError
from repro.fi.counters import Counters
from repro.fi.golden import ArtefactCache
from repro.fi.shm import ShmArrayPack, shm_available
from repro.target.simulation import SignalTraces, SimulatorState

__all__ = [
    "DEFAULT_CHECKPOINT_STRIDE",
    "CheckpointTrack",
    "CheckpointStore",
    "FastForward",
    "PooledTrack",
    "TrackPool",
    "checkpoint_cache",
    "ff_stats",
]

#: default distance between golden checkpoints, in ticks.  Denser
#: strides shorten the simulated remainder per injected run (less
#: wasted prefix below the injection tick, earlier resynchronization
#: exits) but grow the per-case track (one full closed-loop snapshot
#: per checkpoint) and the number of resynchronization probes.
DEFAULT_CHECKPOINT_STRIDE = 64


#: the process-wide counters used by all fast-forward machinery.
ff_stats = Counters(
    "ff_", "restores", "resyncs", "ticks_skipped", "tracks_recorded"
)


# ======================================================================
# Checkpoint tracks.
# ======================================================================
@dataclass
class CheckpointTrack:
    """Everything recorded along one test case's golden run.

    ``states`` maps checkpoint tick (multiples of ``stride``) to the
    full simulator state at the top of that tick; ``final_state`` is
    the state right after the golden run's last tick.  When the track
    was recorded with a monitor bank attached, ``bank_states`` and
    ``bank_final`` carry the bank's per-checkpoint/final snapshots so
    fast-forwarded runs restore consistent EA reference values.
    """

    stride: int
    states: Dict[int, SimulatorState]
    final_state: SimulatorState
    traces: SignalTraces
    end_ticks: int
    bank_states: Optional[Dict[int, Dict[str, tuple]]] = None
    bank_final: Optional[Dict[str, tuple]] = None

    def nearest(self, tick: int) -> SimulatorState:
        """The checkpoint at-or-before *tick* (tick 0 always exists)."""
        checkpoint = (tick // self.stride) * self.stride
        while checkpoint > 0 and checkpoint not in self.states:
            checkpoint -= self.stride
        return self.states[checkpoint]


def record_track(
    factory,
    test_case,
    stride: int,
    bank_specs: Optional[Sequence] = None,
) -> CheckpointTrack:
    """Run one golden simulation, capturing checkpoints every *stride*
    ticks.  A monitor bank built from *bank_specs* rides along (it only
    observes the store, never perturbs the run), so campaigns that
    carry a bank get matching bank snapshots.

    The track run records no signal traces: injected runs restore with
    ``restore_traces=False`` (they never record traces themselves), so
    trace recording here would only slow the recording run down.
    ``track.traces`` is therefore empty; callers that need prefix
    splicing capture their own states from a trace-recording simulator.
    """
    if stride < 1:
        raise CampaignError(f"checkpoint stride must be >= 1, got {stride}")
    simulator = factory(test_case)
    simulator.record_traces = False
    bank = (
        MonitorBank(list(bank_specs)).attach(simulator)
        if bank_specs is not None
        else None
    )
    states: Dict[int, SimulatorState] = {}
    bank_states: Optional[Dict[int, Dict[str, tuple]]] = (
        {} if bank is not None else None
    )

    def probe(tick: int) -> bool:
        if tick % stride == 0:
            states[tick] = simulator.capture_state()
            if bank is not None:
                bank_states[tick] = bank.snapshot()
        return False

    simulator.set_tick_probe(probe)
    result = simulator.run()
    simulator.set_tick_probe(None)
    ff_stats.tracks_recorded += 1
    return CheckpointTrack(
        stride=stride,
        states=states,
        final_state=simulator.capture_state(),
        traces=simulator.traces,
        end_ticks=result.ticks_run,
        bank_states=bank_states,
        bank_final=bank.snapshot() if bank is not None else None,
    )


# ======================================================================
# The process-wide track cache.
# ======================================================================
class CheckpointStore(ArtefactCache):
    """Process-wide checkpoint-track cache keyed by (target, factory,
    case id, stride, bank signature): two factories — or two assertion
    banks — never alias.  Single-flight and LRU-bounded like the
    golden-run cache (see :class:`~repro.fi.golden.ArtefactCache`);
    tracks are an order of magnitude heavier than golden runs (dozens
    of full-state snapshots each), so the default bound is smaller.
    """

    def __init__(self, max_tracks: int = 128) -> None:
        super().__init__(max_tracks, "max_tracks")

    def get(
        self,
        target: str,
        factory,
        test_case,
        stride: int,
        bank_specs: Optional[Sequence] = None,
    ) -> CheckpointTrack:
        # dataclass reprs capture every spec parameter — banks with
        # equal names but different thresholds never alias
        bank_key = (
            tuple(repr(spec) for spec in bank_specs)
            if bank_specs is not None else None
        )
        return self._fetch(
            (target, id(factory), test_case.case_id, stride, bank_key),
            factory,
            lambda: record_track(factory, test_case, stride, bank_specs),
        )


#: the default process-wide track cache used by all campaign drivers.
checkpoint_cache = CheckpointStore()


# ======================================================================
# The shared-memory track pool.
# ======================================================================
#: restorable SimulatorState sections, walked in this fixed order so
#: every state of a track flattens to the same leaf sequence.
_STATE_SECTIONS = (
    "tick", "signals", "modules", "plant", "sensors", "classifier", "loop",
)


def _state_leaves(state: SimulatorState) -> List[Tuple[Tuple, Any]]:
    """Deterministic ``(path, value)`` flattening of the restorable
    fields of *state* (traces are never restored by fast-forward, so
    trace bookkeeping is excluded).  Dicts recurse in sorted-key order;
    everything else — plain scalars and opaque blobs alike — is a leaf.
    """
    leaves: List[Tuple[Tuple, Any]] = []

    def walk(path: Tuple, value: Any) -> None:
        if isinstance(value, dict) and value:
            try:
                keys = sorted(value)
            except TypeError:
                leaves.append((path, value))
                return
            for key in keys:
                walk(path + (key,), value[key])
        else:
            leaves.append((path, value))

    for section in _STATE_SECTIONS:
        walk((section,), getattr(state, section))
    return leaves


class _PooledStates:
    """Mapping facade over a pooled track's checkpoint rows, so the
    resynchronization watcher can keep saying ``track.states.get(t)``."""

    __slots__ = ("_track",)

    def __init__(self, track: "PooledTrack"):
        self._track = track

    def get(self, tick: int) -> Optional[SimulatorState]:
        return self._track.state_at_tick(tick)

    def __getitem__(self, tick: int) -> SimulatorState:
        state = self._track.state_at_tick(tick)
        if state is None:
            raise KeyError(tick)
        return state

    def __contains__(self, tick: int) -> bool:
        return tick in self._track.checkpoint_ticks


class PooledTrack:
    """Read side of one pooled golden track.

    Duck-types the slice of :class:`CheckpointTrack` that
    :meth:`FastForward.launch` and the resynchronization watcher
    consume (``nearest``/``states``/``final_state``/``stride``/
    ``end_ticks``/``bank_states``/``bank_final``), but materializes
    each :class:`SimulatorState` on demand out of the shared columns
    instead of holding a dict per checkpoint.  Rebuilt leaves
    round-trip exactly (``int64``/``float64`` are lossless for the
    quantized simulator domain), so a pooled restore is bit-identical
    to a dict restore.
    """

    __slots__ = (
        "stride", "end_ticks", "bank_states", "bank_final",
        "checkpoint_ticks", "states",
        "_pack", "_int_key", "_float_key", "_schema", "_opaque",
    )

    def __init__(
        self,
        pack: ShmArrayPack,
        int_key: Optional[str],
        float_key: Optional[str],
        schema: Tuple[Tuple[Tuple, str, int], ...],
        opaque: Tuple[Tuple, ...],
        checkpoint_ticks: Tuple[int, ...],
        stride: int,
        end_ticks: int,
        bank_states: Optional[Dict[int, Dict[str, tuple]]],
        bank_final: Optional[Dict[str, tuple]],
    ):
        self._pack = pack
        self._int_key = int_key
        self._float_key = float_key
        self._schema = schema
        self._opaque = opaque
        self.checkpoint_ticks = checkpoint_ticks
        self.stride = stride
        self.end_ticks = end_ticks
        self.bank_states = bank_states
        self.bank_final = bank_final
        self.states = _PooledStates(self)

    # -- row rebuild ----------------------------------------------------
    def _state_at_row(self, row: int) -> SimulatorState:
        ints = (
            self._pack.get(self._int_key)
            if self._int_key is not None else None
        )
        floats = (
            self._pack.get(self._float_key)
            if self._float_key is not None else None
        )
        if (self._int_key is not None and ints is None) or (
            self._float_key is not None and floats is None
        ):  # pragma: no cover - attach failure; publisher keeps a local
            raise CampaignError("pooled track columns are unavailable")
        root: Dict[str, Any] = {}
        for path, kind, column in self._schema:
            if kind == "i":
                value: Any = int(ints[row, column])
            elif kind == "b":
                value = bool(ints[row, column])
            elif kind == "f":
                value = float(floats[row, column])
            else:
                # opaque blobs may be mutated by restorers downstream;
                # hand every rebuild its own copy
                value = copy.deepcopy(self._opaque[row][column])
            node = root
            for part in path[:-1]:
                child = node.get(part)
                if child is None:
                    child = node[part] = {}
                node = child
            node[path[-1]] = value
        return SimulatorState(
            tick=root["tick"],
            signals=root.get("signals") or {},
            modules=root.get("modules") or {},
            plant=root.get("plant") or {},
            sensors=root.get("sensors") or {},
            classifier=root.get("classifier"),
            loop=root.get("loop") or {},
            trace_lengths={},
            traces=None,
        )

    # -- CheckpointTrack-compatible surface -----------------------------
    def state_at_tick(self, tick: int) -> Optional[SimulatorState]:
        """The checkpoint state captured at exactly *tick* (``None``
        when no checkpoint landed there).  The final row is addressed
        through :attr:`final_state` only, never by tick."""
        try:
            row = self.checkpoint_ticks.index(tick)
        except ValueError:
            return None
        return self._state_at_row(row)

    @property
    def final_state(self) -> SimulatorState:
        return self._state_at_row(len(self.checkpoint_ticks))

    def nearest(self, tick: int) -> SimulatorState:
        """The checkpoint at-or-before *tick* (tick 0 always exists)."""
        row = 0
        for index, checkpoint in enumerate(self.checkpoint_ticks):
            if checkpoint > tick:
                break
            row = index
        return self._state_at_row(row)


class TrackPool:
    """Write-once pool of flattened golden tracks.

    The campaign owner publishes tracks pre-fork (:meth:`publish`);
    workers — and the owner itself — read checkpoint rows back through
    :meth:`get`.  A track whose states do not share one leaf shape, or
    whose numeric leaves overflow the flat columns, is simply not
    pooled: callers fall back to the inherited dict track and stay
    bit-identical either way.
    """

    def __init__(self, pack: Optional[ShmArrayPack] = None):
        self._pack = pack if pack is not None else ShmArrayPack()
        self._tracks: Dict[Any, PooledTrack] = {}
        self._sequence = 0

    @property
    def is_owner(self) -> bool:
        return self._pack.is_owner

    def __len__(self) -> int:
        return len(self._tracks)

    def get(self, case_id: Any) -> Optional[PooledTrack]:
        return self._tracks.get(case_id)

    def close(self) -> None:
        self._tracks.clear()
        self._pack.close()

    def publish(self, case_id: Any, track: CheckpointTrack) -> bool:
        """Flatten *track* into shared columns under *case_id*.
        Returns ``False`` (leaving the pool unchanged) for tracks the
        flat layout cannot represent exactly."""
        if case_id in self._tracks:
            return True
        ticks = tuple(sorted(track.states))
        states = [track.states[t] for t in ticks] + [track.final_state]
        rows = [_state_leaves(state) for state in states]
        shape = [path for path, _ in rows[0]]
        if any([path for path, _ in row] != shape for row in rows[1:]):
            return False

        schema: List[Tuple[Tuple, str, int]] = []
        int_columns: List[List[Any]] = []
        float_columns: List[List[Any]] = []
        opaque_columns: List[List[Any]] = []
        for column, path in enumerate(shape):
            values = [row[column][1] for row in rows]
            if all(type(v) is bool for v in values):
                kind, store = "b", int_columns
            elif all(type(v) is int for v in values):
                kind, store = "i", int_columns
            elif all(type(v) is float for v in values):
                kind, store = "f", float_columns
            else:
                kind, store = "o", opaque_columns
            schema.append((path, kind, len(store)))
            store.append(values)

        ints = floats = None
        try:
            if int_columns:
                ints = _np.array(int_columns, dtype=_np.int64).T
                if ints.T.tolist() != [
                    [int(v) for v in column] for column in int_columns
                ]:
                    return False  # a leaf does not round-trip int64
                ints = _np.ascontiguousarray(ints)
            if float_columns:
                floats = _np.array(float_columns, dtype=_np.float64).T
                if floats.T.tolist() != float_columns:
                    return False  # NaN or non-roundtripping leaf
                floats = _np.ascontiguousarray(floats)
        except (OverflowError, TypeError, ValueError):
            return False
        prefix, self._sequence = f"ckpt{self._sequence}", self._sequence + 1
        int_key = float_key = None
        if ints is not None:
            int_key = f"{prefix}:i"
            self._pack.publish(int_key, ints)
        if floats is not None:
            float_key = f"{prefix}:f"
            self._pack.publish(float_key, floats)
        opaque = tuple(
            tuple(column[row] for column in opaque_columns)
            for row in range(len(rows))
        )
        self._tracks[case_id] = PooledTrack(
            pack=self._pack,
            int_key=int_key,
            float_key=float_key,
            schema=tuple(schema),
            opaque=opaque,
            checkpoint_ticks=ticks,
            stride=track.stride,
            end_ticks=track.end_ticks,
            bank_states=track.bank_states,
            bank_final=track.bank_final,
        )
        return True


# ======================================================================
# The per-campaign coordinator.
# ======================================================================
#: full-capture comparison failures tolerated before a run's resync
#: probe gives up.  A reconverging transient matches within the first
#: boundary or two after it dies out; state that is still diverged
#: after this many full comparisons is effectively persistent (a
#: disturbed counter register), and further probing is pure cost.
_RESYNC_GIVE_UP = 8


class _ResyncWatcher:
    """Top-of-tick probe that exits an injected run early once its
    state provably reconverged with the golden run."""

    __slots__ = ("simulator", "bank", "injector", "track", "attempts")

    def __init__(self, simulator, bank, injector, track: CheckpointTrack):
        self.simulator = simulator
        self.bank = bank
        self.injector = injector
        self.track = track
        self.attempts = 0

    def probe(self, tick: int) -> bool:
        # a watcher that gave up stays installed, since the run loop
        # reads its probe once, so it answers at once from then on
        if self.attempts >= _RESYNC_GIVE_UP:
            return False
        track = self.track
        if tick % track.stride or tick == 0:
            return False
        if not self.injector.ff_quiescent:
            return False
        golden = track.states.get(tick)
        if golden is None:
            return False
        # cheap gate first: a persistently corrupted sensor register
        # (the common non-reconverging case) fails this small dict
        # comparison, sparing the full closed-loop capture below
        if self.simulator.sensors.snapshot() != golden.sensors:
            return False
        if not self.simulator.capture_state().matches(golden):
            # diverged-but-sensor-identical state this persistent will
            # not reconverge: after _RESYNC_GIVE_UP misses the run
            # simply simulates to its end, still bit-identical
            self.attempts += 1
            return False
        bank = self.bank
        if bank is not None:
            at = track.bank_states[tick]
            final = track.bank_final
            if not bank.resyncable_with(at, final):
                return False
            bank.fast_forward_to(at, final)
        # deterministic simulator + identical state + quiescent injector
        # => the remaining trajectory is the golden run's, verbatim
        self.simulator.restore_state(track.final_state, restore_traces=False)
        ff_stats.resyncs += 1
        ff_stats.ticks_skipped += max(0, track.end_ticks - tick)
        return True


def _noop_arm(injector) -> None:
    return None


#: restores seen by this process, for the targeted chaos hook below.
_restore_count = 0


def _chaos_corrupt_restore(simulator) -> None:
    """Test-only silent-corruption hook for the integrity layer.

    ``REPRO_CHAOS_CORRUPT_FF_RESTORE=all`` perturbs the signal store
    after *every* checkpoint restore; ``=N`` perturbs only the Nth
    restore of this process (0-based).  The perturbation — a +1 bump
    of every store cell — models a stale or bit-rotted snapshot: the
    restored run silently diverges from a true full replay, which is
    exactly the failure mode the sampled audit replay must catch.
    Full replays (fast-forward off) never restore, so they stay clean
    and remain the trusted reference.
    """
    global _restore_count
    value = os.environ.get("REPRO_CHAOS_CORRUPT_FF_RESTORE")
    if not value:
        return
    nth = _restore_count
    _restore_count += 1
    if value != "all":
        try:
            if nth != int(value):
                return
        except ValueError:
            return
    store = simulator.executor.store
    for signal, current in sorted(store.snapshot().items()):
        store.poke(signal, current + 1)


class FastForward:
    """One campaign's handle on the fast-forward machinery.

    ``launch(test_case, from_tick)`` replaces the campaign's
    ``factory(test_case)`` call for an injected run: it returns a
    simulator already restored to the nearest golden checkpoint
    at-or-before *from_tick* (traces off, as in all injected runs), a
    monitor bank consistent with that state when the campaign carries
    one, and an ``arm(injector)`` callable that installs the
    resynchronization probe once the run's injector exists.

    ``resync=False`` (periodic error models, which never quiesce)
    limits the engine to prefix skipping; runs whose injection tick
    precedes the first non-trivial checkpoint bypass the engine
    entirely, so campaigns stay bit-identical — and overhead-free —
    where fast-forwarding cannot help.
    """

    def __init__(
        self,
        factory,
        target: str,
        config,
        bank_specs: Optional[Sequence] = None,
        resync: bool = True,
        store: Optional[CheckpointStore] = None,
    ):
        self.factory = factory
        self.target = target
        self.bank_specs = list(bank_specs) if bank_specs is not None else None
        self.resync = resync
        self.store = store if store is not None else checkpoint_cache
        self.stride = config.fastforward.checkpoint_stride
        self.enabled = config.fastforward.enabled
        self._pool: Optional[TrackPool] = (
            TrackPool() if self.enabled and shm_available() else None
        )

    @property
    def pooled_tracks(self) -> int:
        """How many golden tracks live in the shared-memory pool."""
        return len(self._pool) if self._pool is not None else 0

    def wants_track(self, from_tick: int) -> bool:
        """Whether an injection at *from_tick* benefits from a track
        (a non-trivial prefix to skip, or a suffix to resync away)."""
        return self.enabled and (self.resync or from_tick >= self.stride)

    def preload(self, test_cases: Sequence) -> None:
        """Record the tracks for *test_cases* up front (pre-fork, so
        pool workers inherit them through copy-on-write)."""
        if not self.enabled:
            return
        for test_case in test_cases:
            track = self.store.get(
                self.target, self.factory, test_case,
                self.stride, self.bank_specs,
            )
            if self._pool is not None and self._pool.is_owner:
                self._pool.publish(test_case.case_id, track)

    def launch(
        self, test_case, from_tick: int
    ) -> Tuple[Any, Optional[MonitorBank], Callable[[Any], None]]:
        """Build the simulator (and bank) for one injected run."""
        if not self.wants_track(from_tick):
            simulator = self.factory(test_case)
            simulator.record_traces = False
            return simulator, self._fresh_bank(simulator), _noop_arm
        # prefer the pre-fork shared-memory flattening of the track;
        # unpublished cases fall back to the inherited dict track
        track = (
            self._pool.get(test_case.case_id)
            if self._pool is not None else None
        )
        if track is None:
            track = self.store.get(
                self.target, self.factory, test_case,
                self.stride, self.bank_specs,
            )
        checkpoint = track.nearest(from_tick)
        simulator = self.factory(test_case)
        simulator.record_traces = False
        if checkpoint.tick:
            simulator.restore_state(checkpoint, restore_traces=False)
            _chaos_corrupt_restore(simulator)
            ff_stats.restores += 1
            ff_stats.ticks_skipped += checkpoint.tick
        bank = self._fresh_bank(simulator)
        if bank is not None and checkpoint.tick:
            bank.restore(track.bank_states[checkpoint.tick])
        if not self.resync:
            return simulator, bank, _noop_arm

        def arm(injector) -> None:
            watcher = _ResyncWatcher(simulator, bank, injector, track)
            simulator.set_tick_probe(watcher.probe)

        return simulator, bank, arm

    def _fresh_bank(self, simulator) -> Optional[MonitorBank]:
        if self.bank_specs is None:
            return None
        return MonitorBank(list(self.bank_specs)).attach(simulator)
