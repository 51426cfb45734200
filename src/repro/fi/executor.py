"""Parallel, cache-aware, fault-tolerant campaign execution engine.

Fault-injection campaigns are embarrassingly parallel: thousands of
single-flip runs, each a fresh simulator, sharing nothing but the
golden runs.  This module factors the execution strategy out of the
campaign drivers:

* :class:`CampaignConfig` — the shared campaign configuration (seed,
  test cases, worker count, backend, checkpointing, fault-tolerance
  knobs), accepted uniformly by all campaign drivers.
* :class:`CampaignExecutor` — maps a pure per-task function over a
  pre-drawn task list, serially or on a fork-based process pool,
  with checkpoint/resume to disk, per-campaign telemetry, and a
  fault-tolerance layer (per-task timeout, bounded retry with
  exponential backoff, poison-task quarantine, broken-pool respawn,
  graceful degradation to serial execution).
* :class:`TaskFailure` — the structured record of a quarantined task;
  it takes the task's slot in the result list and in the checkpoint
  instead of aborting the campaign.
* :class:`RunEventLog` — an append-only JSONL log of run events (task
  finish/retry/failure, checkpoint flushes, pool respawns) for
  post-hoc campaign forensics.
* :class:`GoldenRunCache` — the process-wide golden-run cache,
  keyed by (target, factory, test case): an
  :class:`~repro.fi.golden.ArtefactCache`, so a golden run is computed
  once no matter how many campaigns (or concurrent callers) ask for
  it, and at most 512 runs are held.

Determinism contract
--------------------
Campaigns draw **all** random parameters up front, in the exact order
the legacy serial loops drew them, and hand the executor a list of
pure tasks.  Tasks may complete in any order; results are aggregated
in task order.  Parallel execution is therefore bit-identical to
serial execution for the same seed.  Retries re-run the same pure
task, so a fault-free campaign (no retries, no quarantines) remains
bit-identical across backends; a faulty one is deterministic up to
which tasks were quarantined.

Failure handling
----------------
``runner(index)`` raising, timing out, or taking its worker process
down no longer aborts the campaign.  Each task gets ``retries + 1``
attempts (with exponential backoff between attempts); a task that
exhausts its budget is *quarantined*: a :class:`TaskFailure` is
recorded in its result slot and in the checkpoint, and the campaign
completes with the surviving runs.  A worker death (or a wedged pool)
is detected by a result watchdog; the pool is terminated, respawned
(at most ``max_pool_respawns`` times) and the in-flight tasks are
re-dispatched.  When the pool cannot be rebuilt, execution degrades
to the serial backend for the remaining tasks.  The checkpoint is
flushed on **every** exit path — success, exception and
KeyboardInterrupt — so no completed run is ever lost.

Checkpointing and the result store
----------------------------------
Campaign persistence lives in the results database of
:mod:`repro.fi.store`: the executor opens the
:class:`~repro.fi.store.SqliteResultStore` named by
``config.checkpoint.path``, binds it to the campaign identity
``(campaign, fingerprint, n_tasks)``, streams each finished task
record into it and flushes every ``checkpoint.every`` tasks and on
every exit path.  A resume run with a matching fingerprint schedules
only the tasks the store has no verified record for; a mismatched
fingerprint is another campaign, and a stored row that cannot load is
deleted and re-executed instead of crashing.  Digest stamping and
verification are store-level concerns: records whose stored canonical
digest does not verify on load are handled per the integrity policy —
dropped and re-executed (``repair``, the default), fatal (``strict``),
or accepted unverified (``off``) — and records without a digest still
load.

Result integrity
----------------
The executor carries the runtime self-checking layer of
:mod:`repro.fi.integrity`: per-record checkpoint digests (above),
sampled audit replay (campaign drivers wrap their task function in a
:class:`~repro.fi.integrity.RunAuditor`; the executor ships
layer-counter deltas (:mod:`repro.fi.counters`) and
:class:`~repro.fi.integrity.IntegrityViolation` records home from
pool workers in-band), and worker drift sentinels — before
dispatching tasks to a fresh pool, every worker digests a locally
computed golden run and the parent compares the digests against its
own, treating any divergence as a broken pool (respawn, then degrade
to serial).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import threading
import time
import typing
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import CampaignError, IntegrityError
from repro.fi import counters
from repro.fi.golden import ArtefactCache, GoldenRun, golden_run
from repro.fi.integrity import (
    DEFAULT_POLICY,
    POLICIES,
    IntegrityViolation,
    drain_violations,
)
from repro.fi.snapshot import DEFAULT_CHECKPOINT_STRIDE
from repro.fi.store import SqliteResultStore

__all__ = [
    "BACKENDS",
    "CHECKPOINT_SCHEMA_REVISION",
    "AdaptivePolicy",
    "CampaignConfig",
    "CampaignTelemetry",
    "CampaignExecutor",
    "CheckpointPolicy",
    "EXECUTION_OPTIONS",
    "ExecutionOption",
    "FastForwardPolicy",
    "FaultTolerancePolicy",
    "GoldenRunCache",
    "IntegrityPolicy",
    "RunEventLog",
    "TaskFailure",
    "VectorPolicy",
    "decorrelated_backoff",
    "golden_cache",
    "fingerprint_of",
]

BACKENDS = ("serial", "process")

#: bumped whenever the checkpoint record layout changes; salted into
#: every fingerprint so old files mismatch instead of half-loading.
CHECKPOINT_SCHEMA_REVISION = 2

#: watchdog on pool results when no per-task timeout is configured: if
#: *no* result arrives for this long, the pool is considered broken.
DEFAULT_POOL_WATCHDOG_S = 300.0

#: upper bound on one exponential-backoff sleep between attempts.
MAX_BACKOFF_S = 30.0


# ======================================================================
# Configuration.
# ======================================================================
@dataclass(frozen=True)
class ExecutionOption:
    """A policy field that users set by name.

    It is declared once, in the field's metadata, and every entry point
    is generated from it: :meth:`CampaignConfig.from_options`, the
    ``**options`` of :class:`~repro.experiments.context.ExperimentContext`,
    the keys of a service job spec and the command-line flags.
    """

    #: option name: context keyword and job-spec key.
    name: str
    #: command-line flag; for a boolean, the spelling that flips the
    #: field away from its default.
    flag: str
    #: ``--help`` text of *flag*.
    help: str
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    #: boolean options only: ``(flag, help)`` of a second spelling
    #: that sets the default back.
    off: Optional[Tuple[str, str]] = None
    #: the :class:`CampaignConfig` policy attribute and the field
    #: within it, with the field's value type and default; filled in
    #: when :data:`EXECUTION_OPTIONS` is collected.
    policy: str = ""
    field: str = ""
    type: Any = None
    default: Any = None


def _option(default: Any, name: str, flag: str, help: str, **extra: Any) -> Any:
    """A policy field declared as the execution option *name*."""
    return dataclasses_field(
        default=default,
        metadata={"option": ExecutionOption(name, flag, help, **extra)},
    )


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where and how campaign progress is persisted.

    *path* names the campaign's results database
    (:class:`~repro.fi.store.SqliteResultStore`), whatever its suffix.
    """

    #: results database file; ``None`` disables persistence.
    path: Optional[str] = None
    #: flush the store every this many completed tasks.
    every: int = 32

    def __post_init__(self) -> None:
        if self.every < 1:
            raise CampaignError(
                f"checkpoint_every must be >= 1, got {self.every}"
            )


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """Retry, timeout and pool-survival knobs."""

    #: per-task wall-clock budget in seconds; ``None`` = unlimited.
    task_timeout: Optional[float] = _option(
        None, "task_timeout", "--task-timeout",
        "per-run wall-clock budget in seconds (default: unlimited; "
        "exceeded runs are retried, then quarantined)",
        metavar="S",
    )
    #: extra attempts per task before quarantine (total = retries + 1).
    retries: int = _option(
        1, "retries", "--retries",
        "extra attempts for a failing run before it is quarantined as "
        "a TaskFailure (default: 1)",
        metavar="N",
    )
    #: base of the decorrelated-jitter retry backoff, in seconds.
    retry_backoff_s: float = 0.25
    #: seed of the backoff jitter stream; ``None`` uses the campaign
    #: seed, so test runs stay reproducible.
    backoff_seed: Optional[int] = None
    #: pool rebuilds tolerated before degrading to serial execution.
    max_pool_respawns: int = 2
    #: stall watchdog on pool results; ``None`` derives it from
    #: ``task_timeout`` (or :data:`DEFAULT_POOL_WATCHDOG_S`); see
    #: :meth:`CampaignConfig.resolved_watchdog`.
    pool_watchdog_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise CampaignError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.retries < 0:
            raise CampaignError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff_s < 0:
            raise CampaignError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.max_pool_respawns < 0:
            raise CampaignError(
                f"max_pool_respawns must be >= 0, "
                f"got {self.max_pool_respawns}"
            )
        if self.pool_watchdog_s is not None and self.pool_watchdog_s <= 0:
            raise CampaignError(
                f"pool_watchdog_s must be positive, "
                f"got {self.pool_watchdog_s}"
            )


@dataclass(frozen=True)
class FastForwardPolicy:
    """The snapshot fast-forward engine's knobs."""

    #: restore golden checkpoints instead of re-simulating the prefix
    #: (bit-identical either way; off = always simulate from tick 0).
    enabled: bool = _option(
        True, "fast_forward", "--no-fast-forward",
        "disable the snapshot/fast-forward engine and simulate every "
        "injected run from tick 0 (results are bit-identical)",
    )
    #: ticks between golden checkpoints for fast-forwarded runs.
    checkpoint_stride: int = _option(
        DEFAULT_CHECKPOINT_STRIDE, "checkpoint_stride", "--checkpoint-stride",
        f"ticks between golden snapshots for fast-forwarded injection "
        f"runs (default: {DEFAULT_CHECKPOINT_STRIDE})",
        metavar="N",
    )

    def __post_init__(self) -> None:
        if self.checkpoint_stride < 1:
            raise CampaignError(
                f"checkpoint_stride must be >= 1, "
                f"got {self.checkpoint_stride}"
            )


@dataclass(frozen=True)
class IntegrityPolicy:
    """Runtime self-verification of campaign results."""

    #: ``"strict"`` (violations abort), ``"repair"`` (violations are
    #: healed from a trusted recomputation) or ``"off"`` (no
    #: verification: no checkpoint digest checks, audits or sentinels).
    policy: str = _option(
        DEFAULT_POLICY, "integrity_policy", "--integrity-policy",
        "how integrity violations are handled: strict aborts, repair "
        "self-heals from a trusted recomputation (default), off "
        "disables verification",
        metavar="P", choices=POLICIES,
    )
    #: fraction of fast-forwarded runs re-executed full-length and
    #: field-diffed against the fast-forward result (0.0 = no audits).
    audit_fraction: float = _option(
        0.0, "audit_fraction", "--audit-fraction",
        "fraction of fast-forwarded runs re-executed full-length and "
        "field-diffed against the fast-forward result (default: 0)",
        metavar="F",
    )
    #: seed of the deterministic audit sample; ``None`` uses ``seed``.
    audit_seed: Optional[int] = _option(
        None, "audit_seed", "--audit-seed",
        "seed of the deterministic audit sample (default: the "
        "campaign seed)",
        metavar="N",
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise CampaignError(
                f"audit_fraction must be within [0, 1], "
                f"got {self.audit_fraction}"
            )
        if self.policy not in POLICIES:
            raise CampaignError(
                f"unknown integrity policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )


@dataclass(frozen=True)
class AdaptivePolicy:
    """Confidence-driven sequential sampling.

    Campaigns that support stratified estimation (permeability,
    detection) dispatch batches per stratum and stop early once the
    interval targets are met; campaigns that enumerate their fault
    space (memory, recovery) ignore the policy.
    """

    #: master switch for adaptive scheduling.
    enabled: bool = _option(
        False, "adaptive", "--adaptive",
        "sequential Wilson-bound scheduling: dispatch the sampled "
        "campaigns in per-stratum batches and stop each stratum once "
        "its estimates are certified (architectural zero, saturated, "
        "or within the half-width target)",
        off=(
            "--fixed-n",
            "run the full per-stratum budget unconditionally "
            "(the default)",
        ),
    )
    #: confidence level of the stopping intervals and bounds.
    ci_level: float = _option(
        0.95, "ci_level", "--ci-level",
        "confidence level of the adaptive stopping intervals "
        "(default: 0.95)",
        metavar="L",
    )
    #: two-sided Wilson half-width at which a stratum's estimate is
    #: precise enough to stop.  ``0`` disables early stopping entirely
    #: (the adaptive engine then runs the full budget in batches and is
    #: bit-identical to fixed-n scheduling).
    ci_halfwidth: float = _option(
        0.2, "ci_halfwidth", "--ci-halfwidth",
        "two-sided Wilson half-width target that stops a stratum "
        "(default: 0.2; 0 disables early stopping entirely, making the "
        "adaptive schedule bit-identical to fixed-n)",
        metavar="W",
    )
    #: injections dispatched per stratum per adaptive round.
    min_batch: int = _option(
        4, "min_batch", "--min-batch",
        "injection runs dispatched per stratum per adaptive round "
        "(default: 4)",
        metavar="N",
    )
    #: per-stratum injection budget for adaptive campaigns; ``None``
    #: uses the driver's fixed-n run count (``runs_per_input`` /
    #: ``runs_per_signal``).
    max_runs: Optional[int] = _option(
        None, "max_runs", "--max-runs",
        "per-stratum budget cap for adaptive campaigns (default: the "
        "scale's per-stratum run count)",
        metavar="N",
    )
    #: one-sided upper bound below which an all-miss stratum pair is
    #: certified an architectural zero.
    zero_threshold: float = 0.3
    #: one-sided lower bound above which a pair is certified saturated.
    saturation_threshold: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.ci_level < 1.0:
            raise CampaignError(
                f"ci_level must be within (0, 1), got {self.ci_level}"
            )
        if not 0.0 <= self.ci_halfwidth < 1.0:
            raise CampaignError(
                f"ci_halfwidth must be within [0, 1), "
                f"got {self.ci_halfwidth}"
            )
        if self.min_batch < 1:
            raise CampaignError(
                f"min_batch must be >= 1, got {self.min_batch}"
            )
        if self.max_runs is not None and self.max_runs < 1:
            raise CampaignError(
                f"max_runs must be >= 1, got {self.max_runs}"
            )
        if not 0.0 <= self.zero_threshold < 1.0:
            raise CampaignError(
                f"zero_threshold must be within [0, 1), "
                f"got {self.zero_threshold}"
            )
        if not 0.0 < self.saturation_threshold <= 1.0:
            raise CampaignError(
                f"saturation_threshold must be within (0, 1], "
                f"got {self.saturation_threshold}"
            )


@dataclass(frozen=True)
class VectorPolicy:
    """Vectorized batch execution (``repro.fi.vector``).

    ``batch_width`` > 0 (the default: 256; any positive value) turns
    batching on: the rows of the campaigns run together share one
    batch, planned into ``jobs`` groups on the process backend and one
    serially, and each group advances all its injected runs per numpy
    tick inside one worker.  Every row follows its own — possibly
    corrupted — dispatch schedule via masked invocations, so results
    stay bit-identical to scalar execution.  ``0`` keeps the scalar
    path for everything: it is the oracle the A/B suites compare
    against.  Campaigns without a planner ignore the policy.
    """

    #: > 0 turns batching on, 0 off.
    batch_width: int = _option(
        256, "batch_width", "--batch-width",
        "vectorized batch core: N > 0 advances the campaigns' injected "
        "runs together, in one group per worker (default: 256; 0 = the "
        "scalar path, the oracle; results are bit-identical)",
        metavar="N",
    )

    def __post_init__(self) -> None:
        if self.batch_width < 0:
            raise CampaignError(
                f"batch_width must be >= 0, got {self.batch_width}"
            )


@dataclass(frozen=True)
class CampaignConfig:
    """Shared configuration accepted by every campaign driver.

    Campaign-specific workload knobs (``runs_per_input``, assertion
    specs, memory locations) remain constructor arguments of the
    individual drivers; this class carries what is common to all of
    them.  Explicit constructor arguments win over config values.

    The execution options are grouped into nested policies::

        CampaignConfig(
            seed=2002, jobs=4,
            checkpoint=CheckpointPolicy(path="run.db", every=16),
            fault_tolerance=FaultTolerancePolicy(retries=2),
            fastforward=FastForwardPolicy(checkpoint_stride=64),
            integrity=IntegrityPolicy(policy="strict"),
            sampling=AdaptivePolicy(enabled=True, ci_halfwidth=0.1),
        )

    :meth:`from_options` builds the policies from the user-facing
    option names of :data:`EXECUTION_OPTIONS` instead.
    """

    #: campaign RNG seed (the paper's campaigns use 2002).
    seed: int = 2002
    #: test cases to cycle over; ``None`` = the campaign's default.
    test_cases: Optional[Sequence[Any]] = None
    #: worker processes; 1 = serial execution.
    jobs: int = 1
    #: ``"serial"`` or ``"process"``; ``None`` selects from jobs.
    backend: Optional[str] = None
    #: JSONL run-event log; ``None`` disables file event logging.
    event_log_path: Optional[str] = None
    checkpoint: CheckpointPolicy = dataclasses_field(
        default_factory=CheckpointPolicy
    )
    fault_tolerance: FaultTolerancePolicy = dataclasses_field(
        default_factory=FaultTolerancePolicy
    )
    fastforward: FastForwardPolicy = dataclasses_field(
        default_factory=FastForwardPolicy
    )
    integrity: IntegrityPolicy = dataclasses_field(
        default_factory=IntegrityPolicy
    )
    sampling: AdaptivePolicy = dataclasses_field(
        default_factory=AdaptivePolicy
    )
    vector: VectorPolicy = dataclasses_field(default_factory=VectorPolicy)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {self.jobs}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise CampaignError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )

    @classmethod
    def from_options(cls, **options: Any) -> "CampaignConfig":
        """A default config whose policies carry *options*, keyed by
        the names of :data:`EXECUTION_OPTIONS`.

        An option given as ``None`` keeps its policy default.  An
        unknown name raises :class:`~repro.errors.CampaignError`, a
        value of the wrong type :class:`TypeError`, and a value out of
        range the policy's :class:`~repro.errors.CampaignError`.
        """
        unknown = sorted(set(options) - set(EXECUTION_OPTIONS))
        if unknown:
            raise CampaignError(
                f"unknown execution options: {', '.join(unknown)}"
            )
        values: Dict[str, Dict[str, Any]] = {}
        for name, value in options.items():
            if value is None:
                continue
            option = EXECUTION_OPTIONS[name]
            accepted = (int, float) if option.type is float else option.type
            if not isinstance(value, accepted) or (
                isinstance(value, bool) and option.type is not bool
            ):
                raise TypeError(
                    f"execution option {name} must be "
                    f"{option.type.__name__}, got {value!r}"
                )
            values.setdefault(option.policy, {})[option.field] = value
        return cls(**{
            policy: _POLICY_TYPES[policy](**fields)
            for policy, fields in values.items()
        })

    # -- resolution helpers ---------------------------------------------
    def resolved_backend(self) -> str:
        if self.backend is not None:
            return self.backend
        return "process" if self.jobs > 1 else "serial"

    def resolved_watchdog(self) -> float:
        """Seconds of result silence after which the pool is broken."""
        if self.fault_tolerance.pool_watchdog_s is not None:
            return self.fault_tolerance.pool_watchdog_s
        if self.fault_tolerance.task_timeout is not None:
            return self.fault_tolerance.task_timeout * 2 + 5.0
        return DEFAULT_POOL_WATCHDOG_S


#: :class:`CampaignConfig` policy attribute -> policy type.
_POLICY_TYPES = {
    group.name: group.default_factory
    for group in dataclasses.fields(CampaignConfig)
    if group.default_factory is not dataclasses.MISSING
}


def _declared_options() -> Iterator[ExecutionOption]:
    for policy, policy_type in _POLICY_TYPES.items():
        hints = typing.get_type_hints(policy_type)
        for spec in dataclasses.fields(policy_type):
            option = spec.metadata.get("option")
            if option is None:
                continue
            value_type = hints[spec.name]
            # Optional[X] -> X
            value_type = next(
                (t for t in typing.get_args(value_type)
                 if t is not type(None)),
                value_type,
            )
            yield dataclasses.replace(
                option, policy=policy, field=spec.name,
                type=value_type, default=spec.default,
            )


#: every execution option by name, in declaration order.
EXECUTION_OPTIONS: Dict[str, ExecutionOption] = {
    option.name: option for option in _declared_options()
}


def fingerprint_of(*parts: Any) -> str:
    """Stable fingerprint of a campaign's identity for checkpointing.

    The package version and the checkpoint schema revision are salted
    in: resuming a checkpoint written by different code is rejected as
    a fingerprint mismatch instead of silently merging stale results.
    """
    try:
        from repro import __version__ as version
    except Exception:  # pragma: no cover - the package always has one
        version = "unknown"
    salt = [f"repro={version}", f"schema={CHECKPOINT_SCHEMA_REVISION}"]
    blob = json.dumps(
        salt + [str(p) for p in parts], separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ======================================================================
# Structured task failure (poison-task quarantine).
# ======================================================================
_FAILURE_MARKER = "__task_failure__"


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its attempt budget and was quarantined.

    Takes the task's slot in the executor's result list (and in the
    checkpoint) instead of aborting the campaign; aggregation code
    skips these records and surfaces them as
    ``result.task_failures``.
    """

    #: task index within the campaign's pre-drawn task list.
    index: int
    #: ``"exception"``, ``"timeout"`` or ``"lost"`` (worker death).
    kind: str
    #: human-readable description of the last error.
    error: str
    #: attempts consumed before quarantine.
    attempts: int

    def to_json(self) -> Dict[str, Any]:
        return {
            _FAILURE_MARKER: 1,
            "index": self.index,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "TaskFailure":
        return cls(
            index=int(payload["index"]),
            kind=str(payload["kind"]),
            error=str(payload["error"]),
            attempts=int(payload["attempts"]),
        )

    @staticmethod
    def is_encoded(value: Any) -> bool:
        return isinstance(value, dict) and value.get(_FAILURE_MARKER) == 1


# ======================================================================
# Run-event log.
# ======================================================================
#: records a :class:`RunEventLog` failed to write (file or sink): a
#: failed write is counted, never allowed to take the campaign down.
event_stats = counters.Counters("events_", "dropped")


class RunEventLog:
    """Append-only JSONL log of campaign run events.

    One JSON object per line: ``{ts, campaign, event, ...fields}``.
    Event names: ``run_start``, ``task_start`` (serial backend only),
    ``task_finish``, ``task_error``, ``task_retry``, ``task_failure``
    (quarantine), ``checkpoint_flush``, ``pool_broken``,
    ``pool_respawn``, ``backend_degraded``, ``integrity_violation``,
    ``worker_drift``, ``run_end``.  With no path, every call is a
    no-op.

    Every record is flushed to the OS as it is written, so a crashed
    campaign's log ends at the event that preceded the death, not at
    an arbitrary buffer boundary.  Set ``REPRO_EVENT_LOG_FSYNC=1`` to
    additionally ``fsync`` per record — durable against power loss,
    at a per-event cost only forensics-critical runs should pay.

    *sink*, when given, mirrors every record into the ``events``
    table of a :class:`~repro.fi.store.SqliteResultStore`, so a
    results database carries its own event history.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        campaign: str = "",
        sink: Optional[SqliteResultStore] = None,
    ):
        self.path = path
        self.campaign = campaign
        self.sink = sink
        self._handle = None
        self._fsync = os.environ.get("REPRO_EVENT_LOG_FSYNC") == "1"
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8")

    @property
    def enabled(self) -> bool:
        return self._handle is not None or self.sink is not None

    def emit(self, event: str, **fields: Any) -> None:
        if self._handle is None and self.sink is None:
            return
        record: Dict[str, Any] = {
            "ts": round(time.time(), 3),
            "campaign": self.campaign,
            "event": event,
        }
        record.update(fields)
        if self._handle is not None:
            try:
                self._handle.write(
                    json.dumps(record, separators=(",", ":"), default=str)
                    + "\n"
                )
                self._handle.flush()
                if self._fsync:
                    os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                event_stats.dropped += 1
        if self.sink is not None:
            try:
                self.sink.log_event(record)
            except Exception:
                event_stats.dropped += 1

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


# ======================================================================
# Telemetry.
# ======================================================================
@dataclass
class CampaignTelemetry:
    """Execution statistics of one campaign run."""

    campaign: str
    backend: str
    jobs: int
    total_runs: int = 0
    executed_runs: int = 0
    resumed_runs: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: re-dispatched attempts (a task retried twice counts twice).
    retries: int = 0
    #: quarantined tasks (structured :class:`TaskFailure` results).
    failures: int = 0
    #: attempts that exceeded the per-task timeout.
    timeouts: int = 0
    #: worker pools torn down and rebuilt after breakage.
    pool_respawns: int = 0
    #: True once the pool could not be rebuilt and the remaining
    #: tasks ran on the serial backend.
    degraded: bool = False
    #: pools torn down because a worker's golden digest diverged.
    drift_events: int = 0
    #: checkpoint records dropped on load after a digest mismatch.
    checkpoint_rejects: int = 0
    #: store flushes that actually wrote data.
    store_flushes: int = 0
    #: store flushes skipped because no new records had arrived.
    store_flushes_skipped: int = 0
    #: records persisted by the store (new records, not rewrites).
    store_records_written: int = 0
    #: payload bytes the store wrote (each record once).
    store_bytes_written: int = 0
    #: every registered layer counter over the run (zero included),
    #: keyed as :func:`repro.fi.counters.snapshot` names them.
    counts: Dict[str, int] = dataclasses_field(
        default_factory=lambda: dict.fromkeys(counters.snapshot(), 0)
    )
    #: True when the run was scheduled by the adaptive sampler.
    adaptive: bool = False
    #: strata the adaptive sampler scheduled.
    strata: int = 0
    #: strata stopped before exhausting their injection budget.
    strata_early: int = 0
    #: pre-drawn injections never dispatched thanks to early stopping.
    runs_saved: int = 0
    #: stop reason -> stratum count (zero/saturated/halfwidth/budget).
    stop_reasons: Dict[str, int] = dataclasses_field(default_factory=dict)

    @property
    def runs_per_sec(self) -> float:
        return self.executed_runs / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def vec_occupancy(self) -> float:
        """Answered rows over the campaign's own rows planned into
        groups."""
        capacity = self.counts.get("vec_group_capacity", 0)
        return self.counts.get("vec_rows", 0) / capacity if capacity else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker capacity spent inside tasks."""
        capacity = self.wall_s * self.jobs
        return min(1.0, self.busy_s / capacity) if capacity > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def faulted(self) -> bool:
        return bool(
            self.retries or self.failures or self.timeouts
            or self.pool_respawns or self.degraded
        )

    def render(self) -> str:
        c = defaultdict(int, self.counts)
        text = (
            f"[{self.campaign}] {self.executed_runs}/{self.total_runs} runs"
            f" ({self.resumed_runs} resumed) in {self.wall_s:.2f} s"
            f" | {self.runs_per_sec:.1f} runs/s"
            f" | backend={self.backend} jobs={self.jobs}"
            f" util={self.worker_utilization:.0%}"
            f" | golden cache {self.cache_hits} hit"
            f" / {self.cache_misses} miss"
            f" ({self.cache_hit_rate:.0%})"
        )
        if c["ff_restores"] or c["ff_resyncs"] or c["ff_tracks_recorded"]:
            text += (
                f" | fast-forward {c['ff_ticks_skipped']} ticks saved"
                f" ({c['ff_restores']} restores, {c['ff_resyncs']} resyncs,"
                f" {c['ff_tracks_recorded']} tracks)"
            )
        if (
            c["audits"] or c["audit_mismatches"]
            or self.drift_events or self.checkpoint_rejects
        ):
            text += (
                f" | integrity audits={c['audits']}"
                f" mismatches={c['audit_mismatches']}"
                f" repairs={c['audit_repairs']}"
            )
            if self.drift_events:
                text += f" drift={self.drift_events}"
            if self.checkpoint_rejects:
                text += f" ckpt-rejects={self.checkpoint_rejects}"
        if self.store_flushes or self.store_flushes_skipped:
            text += (
                f" | store flushes={self.store_flushes}"
                f"+{self.store_flushes_skipped} skipped,"
                f" {self.store_records_written} records"
                f" / {self.store_bytes_written} B"
            )
        if c["vec_rows"] or c["vec_groups"] or c["vec_scalar_fallbacks"]:
            text += (
                f" | vector {c['vec_rows']} rows"
                f" in {c['vec_groups']} groups"
                f" ({c['vec_batched_ticks']} batched ticks,"
                f" {c['vec_retired_rows']} retired,"
                f" {c['vec_scalar_fallbacks']} scalar"
            )
            if c["vec_row_invocations"]:
                text += f", {c['vec_row_invocations']} row-invocations"
            if c["vec_tail_rows"]:
                text += f", {c['vec_tail_rows']} tail"
            text += ")"
            if c["vec_group_capacity"]:
                text += (
                    f" occupancy={self.vec_occupancy:.0%}"
                    f" cross-case={c['vec_cross_case_groups']}"
                )
        if self.adaptive:
            text += (
                f" | adaptive runs_saved={self.runs_saved}"
                f" ({self.strata_early}/{self.strata} strata early"
            )
            if self.stop_reasons:
                reasons = " ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(self.stop_reasons.items())
                )
                text += f"; {reasons}"
            text += ")"
        if self.faulted:
            text += (
                f" | retries={self.retries} failures={self.failures}"
                f" timeouts={self.timeouts} respawns={self.pool_respawns}"
            )
            if self.degraded:
                text += " degraded=serial"
        if c["events_dropped"]:
            text += f" | events dropped={c['events_dropped']}"
        return text


# ======================================================================
# Golden-run cache.
# ======================================================================
class GoldenRunCache(ArtefactCache):
    """Process-wide golden-run cache keyed by ``(target name, factory,
    case id)``: single-flight, bounded to ``max_runs`` runs evicted
    least-recently-used (see :class:`~repro.fi.golden.ArtefactCache`).
    """

    def __init__(self, max_runs: int = 512) -> None:
        super().__init__(max_runs, "max_runs")

    def get(self, target: str, factory, test_case) -> GoldenRun:
        return self._fetch(
            (target, id(factory), test_case.case_id),
            factory,
            lambda: golden_run(factory, test_case),
        )


#: the default process-wide cache used by all campaign drivers.
golden_cache = GoldenRunCache()


# ======================================================================
# Worker-side trampoline for the fork pool.
#
# Each running campaign registers an :class:`_ActiveCampaign` (its
# runner, fault-tolerance knobs, chaos hooks and drift sentinel) in
# the process-wide ``_ACTIVE`` registry *before* its pool is forked;
# workers inherit the whole registry through the fork and look their
# campaign up by the key travelling inside each work item, so only
# (key, index, attempt) tuples and JSON-encodable payloads ever cross
# the pipe.  This keeps factories, simulators and closures out of
# pickle entirely — and, because every campaign owns its own registry
# entry, any number of campaigns can run concurrently in one process
# (the service daemon schedules many) without clobbering each other's
# runner.  Worker exceptions are converted to in-band error payloads,
# so anything escaping the result iterator is pool infrastructure
# breakage, not a task failure.
# ======================================================================
@dataclass
class _ActiveCampaign:
    """One campaign's worker-side execution context."""

    runner: Callable[[int], Any]
    timeout: Optional[float] = None
    #: (fail_index, kill_index) chaos hooks; see ``_chaos_from_env``.
    chaos: Tuple[Optional[int], Optional[int]] = (None, None)
    #: the drift sentinel published before the pool forks: a callable
    #: computing a fresh golden-run digest, and the parent's digest.
    sentinel: Optional[Tuple[Callable[[], str], str]] = None


_ACTIVE: Dict[str, _ActiveCampaign] = {}
_ACTIVE_LOCK = threading.Lock()
_ACTIVE_SEQ = itertools.count(1)


class _TaskTimeout(Exception):
    """Raised inside a task when its wall-clock budget expires."""


def _chaos_from_env() -> Tuple[Optional[int], Optional[int]]:
    """Test-only fault hooks, read from the environment.

    ``REPRO_CHAOS_FAIL_INDEX=N`` makes the first attempt of task N
    raise; ``REPRO_CHAOS_KILL_INDEX=N`` makes the first attempt of
    task N hard-kill its worker process (process backend only).  Used
    by the chaos tests and the CI chaos step to exercise the
    retry/quarantine/respawn machinery against a real campaign.
    """

    def _index(name: str) -> Optional[int]:
        value = os.environ.get(name)
        if value is None:
            return None
        try:
            return int(value)
        except ValueError:
            return None

    return (
        _index("REPRO_CHAOS_FAIL_INDEX"),
        _index("REPRO_CHAOS_KILL_INDEX"),
    )


@contextmanager
def _task_alarm(seconds: Optional[float]) -> Iterator[None]:
    """Interrupt the current task after *seconds* via SIGALRM.

    Only armed in the main thread of a process (the only place Python
    delivers signals); elsewhere the timeout is not enforced rather
    than broken.
    """
    if (
        not seconds
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise _TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    prev_value, prev_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prev_value:
            # an outer timer (e.g. a batch-level deadline wrapping this
            # per-task timeout) was running: re-arm it with whatever
            # budget it has left, after its handler is back in place so
            # the rest of its deadline fires into the right handler
            remaining = prev_value - (time.monotonic() - started)
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), prev_interval
            )


def _worker_init() -> None:
    """Pool-worker initializer: restore default signal handling.

    Workers are forked from whatever process runs the campaign — a
    CLI, a test, or a service job child that converts SIGTERM into
    ``KeyboardInterrupt`` for its own flush-on-drain path.  A worker
    must not inherit that conversion (or a custom SIGINT handler):
    ``Pool.terminate`` SIGTERMs workers on every normal teardown, and
    an inherited handler turns that routine kill into a spurious
    traceback.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _sentinel_probe(item: Tuple[str, int]) -> str:
    """Worker-side half of the drift sentinel: a fresh golden digest.

    Dispatched to a new pool before any real task.  The digest is
    computed from scratch (no caches), so it reflects what *this*
    worker's arithmetic and code actually produce.
    ``REPRO_CHAOS_DRIFT_WORKER=1`` deliberately corrupts the probe —
    in forked children only — to exercise the broken-pool path.
    """
    key, _ = item
    compute, _ = _ACTIVE[key].sentinel  # type: ignore[union-attr]
    digest = compute()
    if os.environ.get("REPRO_CHAOS_DRIFT_WORKER") == "1":
        digest = f"chaos-drift-{digest[:8]}"
    return digest


def _execute_attempt(
    active: _ActiveCampaign, index: int, attempt: int
) -> Tuple[int, Dict, float]:
    """One attempt of one task; errors become in-band payloads."""
    started = time.perf_counter()
    fail_index, _ = active.chaos
    counts_before = counters.snapshot()
    try:
        if fail_index is not None and index == fail_index and attempt == 1:
            raise RuntimeError(f"chaos: injected failure at task {index}")
        with _task_alarm(active.timeout):
            result = active.runner(index)
        payload: Dict[str, Any] = {"ok": result}
    except _TaskTimeout:
        payload = {
            "err": f"timed out after {active.timeout:g} s",
            "kind": "timeout",
        }
    except IntegrityError as exc:
        # a strict-policy audit mismatch: deterministic, so a retry
        # would only repeat it — the parent aborts instead
        payload = {"err": str(exc), "kind": "integrity"}
    except Exception as exc:
        payload = {"err": f"{type(exc).__name__}: {exc}", "kind": "exception"}
    # layer-counter deltas and structured violations travel beside the
    # result — never inside it, so checkpoints and aggregates stay
    # bit-identical whatever the execution strategy
    counts = counters.delta(counts_before, counters.snapshot())
    if counts:
        payload["counts"] = counts
    violations = drain_violations()
    if violations:
        payload["viol"] = [violation.to_json() for violation in violations]
    return index, payload, time.perf_counter() - started


def _pool_task(key: str, item: Tuple[int, int]) -> Tuple[int, Dict, float]:
    index, attempt = item
    active = _ACTIVE[key]
    _, kill_index = active.chaos
    if kill_index is not None and index == kill_index and attempt == 1:
        os._exit(17)  # simulate a hard worker death (chaos testing)
    return _execute_attempt(active, index, attempt)


def _pool_chunk(
    work: Tuple[str, List[Tuple[int, int]]]
) -> List[Tuple[int, Dict, float]]:
    """A batch of tasks as one pool work item.

    Chunking is done here rather than via the pool's ``chunksize``:
    ``imap_unordered(..., chunksize>1)`` returns a plain generator
    without the ``next(timeout)`` needed by the watchdog, so the pool
    always dispatches single work items and each item carries a batch
    (prefixed by its campaign's registry key).
    """
    key, items = work
    return [_pool_task(key, item) for item in items]


def decorrelated_backoff(
    base: float,
    previous: float,
    rng: random.Random,
    cap: float = MAX_BACKOFF_S,
) -> float:
    """One decorrelated-jitter backoff sleep, in seconds.

    The classic "exponential backoff and decorrelated jitter"
    recurrence: each sleep is drawn uniformly from ``[base, 3 *
    previous]`` (clamped to ``cap``), so concurrently retrying
    clients spread out instead of stampeding in lockstep, while the
    expected sleep still grows geometrically.  A non-positive *base*
    disables backoff entirely (returns 0).
    """
    if base <= 0:
        return 0.0
    return min(cap, rng.uniform(base, max(base, previous * 3.0)))


# ======================================================================
# The executor.
# ======================================================================
class CampaignExecutor:
    """Maps a pure task function over a task list, with checkpointing
    and fault tolerance.

    ``runner(index)`` must be a pure function of the pre-drawn task
    parameters at ``index`` (no shared RNG, no mutation of campaign
    state) and must return a JSON-encodable value when checkpointing
    is enabled.  Results are returned in task order regardless of the
    completion order, so parallel execution is bit-identical to
    serial.

    A task that raises, times out or kills its worker is retried up
    to ``config.fault_tolerance.retries`` times and then quarantined: its result slot
    holds a :class:`TaskFailure` instead of aborting the run.  The
    checkpoint is flushed on every exit path.
    """

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        campaign: str = "campaign",
    ):
        self.config = config or CampaignConfig()
        self.campaign = campaign
        #: telemetry of the most recent :meth:`run_tasks` call.
        self.telemetry: Optional[CampaignTelemetry] = None
        #: integrity violations observed by the most recent run
        #: (audit mismatches, rejected checkpoint records, drift).
        self.violations: List[IntegrityViolation] = []
        self._events = RunEventLog(None, campaign)
        self._store: Optional[SqliteResultStore] = None
        #: golden-cache hits and misses and layer-counter increments of
        #: the :meth:`counted` blocks since the last :meth:`run_tasks`
        self._hits = self._misses = 0
        self._counts: Dict[str, int] = {}

    @contextmanager
    def counted(self) -> Iterator[None]:
        """Count the golden-cache lookups and layer counters of the
        block — the campaign's draw and track preload — in the
        telemetry of the next :meth:`run_tasks`.  Work between the
        blocks and the runs, such as other campaigns' draws, counts in
        none of them."""
        hits, misses = golden_cache.hits, golden_cache.misses
        before = counters.snapshot()
        try:
            yield
        finally:
            self._hits += golden_cache.hits - hits
            self._misses += golden_cache.misses - misses
            counters.add(
                self._counts, counters.delta(before, counters.snapshot())
            )

    # ------------------------------------------------------------------
    # The result store.
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[SqliteResultStore]:
        """The campaign's result store, opened lazily from
        ``config.checkpoint`` (``None`` when persistence is off).

        The instance is kept for the executor's lifetime, so adaptive
        rounds and repeated :meth:`run_tasks` calls share one verified
        view of the campaign's records.
        """
        if self._store is None and self.config.checkpoint.path:
            self._store = SqliteResultStore(self.config.checkpoint.path)
        return self._store

    def close(self) -> None:
        """Flush and release the result store (idempotent)."""
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        runner: Callable[[int], Any],
        n_tasks: int,
        fingerprint: str = "",
        sentinel: Optional[Callable[[], str]] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> List[Any]:
        """Execute ``runner`` over ``range(n_tasks)``; results in order.

        Quarantined tasks yield :class:`TaskFailure` entries in the
        returned list; everything else is the runner's return value.

        *sentinel*, when given (and the integrity policy is not
        ``off``), is a callable computing a fresh golden-run digest;
        before any tasks are dispatched to a process pool, every
        worker runs it and the parent compares the digests with its
        own.  A divergent worker marks the pool broken — it is
        respawned (and eventually degraded to serial) without any
        task attempt budgets being consumed.

        *indices*, when given, restricts execution to that subset of
        the task space (the adaptive sampler dispatches one batch per
        call this way); the returned list is aligned with *indices*.
        The checkpoint keeps indexing the full ``n_tasks`` space, so
        batched and whole-campaign runs share checkpoints and resume
        interchangeably.

        A runner with an ``outcomes(pending)`` method — a campaign's
        :class:`~repro.fi.vector.BatchView` — is asked once, before a
        backend is picked, for the outcomes of the pending tasks it
        already answers; they are recorded in process, and only the
        other tasks run.
        """
        config = self.config
        hits0, misses0 = golden_cache.hits, golden_cache.misses
        counts0 = counters.snapshot()
        self.violations = []
        store = self.store
        checkpointing = store is not None
        events = RunEventLog(
            config.event_log_path, self.campaign, sink=store
        )
        self._events = events

        def on_violation(violation: IntegrityViolation) -> None:
            self.violations.append(violation)
            events.emit(
                "integrity_violation",
                kind=violation.kind,
                index=violation.index,
                detail=violation.detail,
            )

        checkpoint_rejects = 0
        prior: Set[int] = set()
        if store is not None:
            try:
                checkpoint_rejects = store.open_campaign(
                    self.campaign,
                    fingerprint,
                    n_tasks,
                    policy=config.integrity.policy,
                    on_violation=on_violation,
                )
            except IntegrityError:
                events.close()
                self._events = RunEventLog(None, self.campaign)
                self.close()
                raise
            prior = store.completed_indices()
        done: Dict[int, Any] = {}
        if indices is None:
            wanted: Sequence[int] = range(n_tasks)
        else:
            wanted = list(indices)
            for index in wanted:
                if not 0 <= index < n_tasks:
                    raise CampaignError(
                        f"task index {index} outside the campaign's "
                        f"{n_tasks}-task space"
                    )
        resumed = sum(1 for i in wanted if i in prior)
        pending = [i for i in wanted if i not in prior]
        # the backend is settled once the batch answered its rows
        telemetry = CampaignTelemetry(
            campaign=self.campaign,
            backend="serial",
            jobs=1,
            total_runs=n_tasks,
            resumed_runs=resumed,
            checkpoint_rejects=checkpoint_rejects,
        )
        since_flush = 0
        attempts: Dict[int, int] = {}
        started = time.perf_counter()

        def flush_store() -> None:
            if store is not None and store.flush():
                events.emit(
                    "checkpoint_flush",
                    done=len(store.completed_indices()),
                )

        def record(index: int, value: Any) -> None:
            nonlocal since_flush
            done[index] = value
            if not checkpointing:
                return
            encoded = (
                value.to_json()
                if isinstance(value, TaskFailure)
                else value
            )
            store.put_record(index, encoded)
            since_flush += 1
            if since_flush >= config.checkpoint.every:
                flush_store()
                since_flush = 0

        def absorb_violations(payload: Dict) -> None:
            """Collect a task's structured violations (any backend).

            Violations are drained exactly once, inside
            :func:`_execute_attempt`, so absorbing them from the
            payload is double-count-free on both backends.
            """
            for encoded in payload.get("viol", ()):
                violation = IntegrityViolation.from_json(encoded)
                self.violations.append(violation)
                events.emit(
                    "integrity_violation",
                    kind=violation.kind,
                    index=violation.index,
                    detail=violation.detail,
                )

        def succeed(index: int, payload: Dict, busy: float) -> None:
            telemetry.executed_runs += 1
            telemetry.busy_s += busy
            absorb_violations(payload)
            record(index, payload["ok"])
            events.emit(
                "task_finish",
                index=index,
                attempt=attempts.get(index, 1),
                busy_s=round(busy, 6),
            )

        def quarantine(index: int, kind: str, error: str) -> None:
            failure = TaskFailure(
                index=index,
                kind=kind,
                error=str(error),
                attempts=max(attempts.get(index, 1), 1),
            )
            telemetry.failures += 1
            record(index, failure)
            events.emit(
                "task_failure",
                index=index,
                kind=kind,
                attempts=failure.attempts,
                error=failure.error,
            )

        def fail_attempt(index: int, payload: Dict, busy: float) -> None:
            """Account one failed attempt; quarantine when exhausted."""
            telemetry.busy_s += busy
            kind = payload.get("kind", "exception")
            absorb_violations(payload)
            if kind == "timeout":
                telemetry.timeouts += 1
            events.emit(
                "task_error",
                index=index,
                attempt=attempts[index],
                kind=kind,
                error=payload.get("err", ""),
            )
            if kind == "integrity":
                # a strict-policy violation is deterministic: retrying
                # replays the identical mismatch, so abort the campaign
                # (the checkpoint still flushes on the way out)
                raise IntegrityError(
                    payload.get("err", "integrity violation")
                )
            if attempts[index] >= config.fault_tolerance.retries + 1:
                quarantine(index, kind, payload.get("err", ""))

        ft = config.fault_tolerance
        backoff_rng = random.Random(
            ft.backoff_seed if ft.backoff_seed is not None else config.seed
        )
        backoff_prev = ft.retry_backoff_s

        def backoff_sleep(attempt: int) -> None:
            """Sleep before a (>= 2nd) retry attempt, drawn from the
            decorrelated recurrence so campaigns retrying concurrently
            spread out."""
            nonlocal backoff_prev
            if attempt <= 1:
                return
            sleep_s = decorrelated_backoff(
                ft.retry_backoff_s, backoff_prev, backoff_rng
            )
            backoff_prev = max(sleep_s, ft.retry_backoff_s)
            time.sleep(sleep_s)

        def run_serial(indices: Sequence[int]) -> None:
            for index in indices:
                while index not in done:
                    attempts[index] += 1
                    attempt = attempts[index]
                    if attempt > 1:
                        telemetry.retries += 1
                        events.emit(
                            "task_retry", index=index, attempt=attempt
                        )
                        backoff_sleep(attempt)
                    events.emit("task_start", index=index, attempt=attempt)
                    _, payload, busy = _execute_attempt(
                        active, index, attempt
                    )
                    if "ok" in payload:
                        succeed(index, payload, busy)
                    else:
                        fail_attempt(index, payload, busy)

        def verify_pool(pool, watchdog: float) -> Optional[str]:
            """Drift-sentinel check of a fresh pool; ``None`` = healthy.

            Dispatches one probe per worker slot (probes may not land
            one-per-process, but the drift scenarios that matter —
            FP environment drift, mismatched code — affect every
            child of the same parent alike, so any probe detects
            them).  Returns the reason the pool cannot be trusted.
            """
            if active.sentinel is None:
                return None
            _, expected = active.sentinel
            try:
                probes = pool.map_async(
                    _sentinel_probe,
                    [(key, slot) for slot in range(config.jobs)],
                    chunksize=1,
                ).get(watchdog)
            except multiprocessing.TimeoutError:
                return (
                    f"sentinel probes produced no result within the "
                    f"{watchdog:.0f} s watchdog"
                )
            except Exception as exc:
                return f"sentinel probe failed: {type(exc).__name__}: {exc}"
            drifted = [d for d in probes if d != expected]
            if not drifted:
                return None
            telemetry.drift_events += 1
            violation = IntegrityViolation(
                kind="worker_drift",
                campaign=self.campaign,
                detail=(
                    f"{len(drifted)}/{len(probes)} worker golden "
                    f"digests diverged from the parent's"
                ),
                expected=expected,
                observed=drifted[0],
            )
            self.violations.append(violation)
            events.emit(
                "worker_drift",
                drifted=len(drifted),
                probes=len(probes),
                expected=expected,
                observed=drifted[0],
            )
            return violation.detail

        def run_pool(indices: Sequence[int]) -> None:
            context = multiprocessing.get_context("fork")
            respawns_left = config.fault_tolerance.max_pool_respawns
            watchdog = config.resolved_watchdog()
            remaining = [i for i in indices if i not in done]
            pool = context.Pool(
                processes=config.jobs, initializer=_worker_init
            )
            unhealthy = verify_pool(pool, watchdog)

            def replace_broken(reason: str) -> bool:
                """Tear the broken pool down, then respawn and
                re-verify it (``True``) or, with the respawn budget
                spent, run the remaining tasks serially (``False``)."""
                nonlocal pool, respawns_left, unhealthy
                pool.terminate()
                pool.join()
                events.emit("pool_broken", reason=reason)
                if not remaining:
                    return False
                if respawns_left <= 0:
                    telemetry.degraded = True
                    events.emit(
                        "backend_degraded",
                        reason="pool respawn budget exhausted",
                        remaining=len(remaining),
                    )
                    run_serial(remaining)
                    return False
                respawns_left -= 1
                telemetry.pool_respawns += 1
                pool = context.Pool(
                    processes=config.jobs, initializer=_worker_init
                )
                events.emit(
                    "pool_respawn", jobs=config.jobs, remaining=len(remaining)
                )
                unhealthy = verify_pool(pool, watchdog)
                return True

            try:
                while remaining:
                    if unhealthy is not None:
                        # a drifted pool never ran a task, so no
                        # attempt budget was consumed; tear it down
                        # like any other broken pool
                        if not replace_broken(unhealthy):
                            return
                        continue
                    wave_attempt = 1
                    for index in remaining:
                        attempts[index] += 1
                        wave_attempt = max(wave_attempt, attempts[index])
                        if attempts[index] > 1:
                            telemetry.retries += 1
                            events.emit(
                                "task_retry",
                                index=index,
                                attempt=attempts[index],
                            )
                    if wave_attempt > 1:
                        backoff_sleep(wave_attempt)
                    items = [(i, attempts[i]) for i in remaining]
                    # chunking amortizes pipe traffic, but a lost worker
                    # loses its whole chunk — dispatch singly once
                    # per-task timeouts are in play
                    chunk_n = (
                        1
                        if config.fault_tolerance.task_timeout is not None
                        else max(1, len(items) // (config.jobs * 8))
                    )
                    chunks = [
                        items[k:k + chunk_n]
                        for k in range(0, len(items), chunk_n)
                    ]
                    iterator = pool.imap_unordered(
                        _pool_chunk, [(key, chunk) for chunk in chunks],
                        chunksize=1,
                    )
                    broken: Optional[str] = None
                    received = 0
                    while received < len(chunks):
                        try:
                            results = iterator.next(watchdog)
                        except StopIteration:
                            break
                        except multiprocessing.TimeoutError:
                            broken = (
                                f"no result within the "
                                f"{watchdog:.0f} s watchdog "
                                f"(worker death or wedged pool)"
                            )
                            break
                        except Exception as exc:
                            broken = (
                                f"pool failure: "
                                f"{type(exc).__name__}: {exc}"
                            )
                            break
                        received += 1
                        for index, payload, busy in results:
                            # the worker's counts join the parent's, so
                            # the run-wide delta in ``finally`` has them
                            counters.credit(payload.get("counts", {}))
                            if "ok" in payload:
                                succeed(index, payload, busy)
                            else:
                                fail_attempt(index, payload, busy)
                    # in-flight tasks of a broken pool were lost; any
                    # task not done re-enters the next wave until its
                    # attempt budget runs out
                    remaining = []
                    for index in indices:
                        if index in done:
                            continue
                        if attempts[index] >= config.fault_tolerance.retries + 1:
                            quarantine(
                                index,
                                "lost",
                                "task lost to a worker or pool failure",
                            )
                        else:
                            remaining.append(index)
                    if broken is not None and not replace_broken(broken):
                        return
            finally:
                pool.terminate()
                pool.join()

        active = _ActiveCampaign(
            runner=runner,
            timeout=config.fault_tolerance.task_timeout,
            chaos=_chaos_from_env(),
        )
        # the registry key travels inside every pool work item, so
        # workers forked for any concurrently running campaign (late
        # respawns included) resolve their own campaign's context —
        # concurrent campaigns in one process no longer clobber each
        # other's module state
        key = f"{self.campaign}#{next(_ACTIVE_SEQ)}"
        status = "ok"
        try:
            # a batch answers its rows without running their tasks:
            # those outcomes are recorded here, and only the other
            # rows are dispatched
            outcomes = getattr(runner, "outcomes", None)
            answered = outcomes(pending) if outcomes is not None else {}
            # their busy time: the batch's, shared evenly
            share = (time.perf_counter() - started) / max(1, len(answered))
            pending = [i for i in pending if i not in answered]
            attempts.update(dict.fromkeys(pending, 0))
            # report the backend actually used: the process backend
            # falls back to serial when fork is unavailable or the
            # rows left are too few to be worth a pool
            backend = config.resolved_backend()
            if backend == "process" and (
                "fork" not in multiprocessing.get_all_start_methods()
                or len(pending) <= 1
            ):
                backend = "serial"
            telemetry.backend = backend
            telemetry.jobs = config.jobs if backend == "process" else 1
            start_fields: Dict[str, Any] = {
                "backend": backend,
                "jobs": telemetry.jobs,
                "total": n_tasks,
                "resumed": resumed,
            }
            if indices is not None:
                start_fields["batch"] = len(wanted)
            events.emit("run_start", **start_fields)
            for index, value in answered.items():
                succeed(index, {"ok": value}, share)
            if backend == "process":
                if sentinel is not None and config.integrity.policy != "off":
                    # the parent's own digest, computed before the
                    # fork, is the reference every worker probe is
                    # compared against
                    active.sentinel = (sentinel, sentinel())
                with _ACTIVE_LOCK:
                    _ACTIVE[key] = active
                run_pool(pending)
            else:
                run_serial(pending)
        except BaseException as exc:  # KeyboardInterrupt included
            status = type(exc).__name__
            raise
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE.pop(key, None)
            telemetry.wall_s = time.perf_counter() - started
            telemetry.cache_hits = self._hits + golden_cache.hits - hits0
            telemetry.cache_misses = self._misses + golden_cache.misses - misses0
            counters.add(telemetry.counts, self._counts)
            counters.add(
                telemetry.counts, counters.delta(counts0, counters.snapshot())
            )
            self._hits = self._misses = 0
            self._counts = {}
            # the no-lost-progress guarantee: flush on every exit path
            if store is not None:
                flush_store()
                telemetry.store_flushes = store.stats.flushes
                telemetry.store_flushes_skipped = (
                    store.stats.skipped_flushes
                )
                telemetry.store_records_written = (
                    store.stats.records_written
                )
                telemetry.store_bytes_written = store.stats.bytes_written
            self.telemetry = telemetry
            events.emit(
                "run_end",
                status=status,
                executed=telemetry.executed_runs,
                resumed=telemetry.resumed_runs,
                retries=telemetry.retries,
                failures=telemetry.failures,
                timeouts=telemetry.timeouts,
                respawns=telemetry.pool_respawns,
                degraded=telemetry.degraded,
                drift_events=telemetry.drift_events,
                checkpoint_rejects=telemetry.checkpoint_rejects,
                violations=len(self.violations),
                **telemetry.counts,
                vec_occupancy=round(telemetry.vec_occupancy, 4),
                wall_s=round(telemetry.wall_s, 3),
            )
            events.close()
            self._events = RunEventLog(None, self.campaign)
            if status != "ok":
                # a failed campaign must not leave a hot WAL journal
                # (or any open store handle) behind; the store reopens
                # lazily if the executor is reused after the error
                self.close()
        output: List[Any] = []
        for index in wanted:
            if index in done:
                output.append(done[index])
                continue
            # resumed records are fetched from the store lazily, so
            # the full result set is never materialized twice
            value = store.get_record(index)
            if TaskFailure.is_encoded(value):
                value = TaskFailure.from_json(value)
            output.append(value)
        return output
