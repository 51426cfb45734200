"""Result-integrity layer: content digests, audit replay, sentinels.

Every optimization added to the campaign runner — process pools,
golden-run caches, checkpoint/resume, the snapshot fast-forward
engine — claims to be invisible: "bit-identical to a serial full
replay".  Until now that claim was asserted only by the test suite.
This module verifies it at runtime, cheaply and by sampling:

* **Canonical content digests.**  :func:`canonical_digest` maps any
  JSON-compatible value to a sha256 over a canonical byte encoding:
  floats are hashed by their IEEE-754 bit pattern (all NaNs collapse
  to one canonical NaN; ``-0.0`` stays distinct from ``0.0``; ints
  never alias floats), dictionary keys are stringified and sorted,
  tuples alias lists.  The encoding is chosen so that a value and its
  ``json.loads(json.dumps(value))`` round trip digest identically —
  a digest computed in a worker can be re-verified against a record
  loaded from a checkpoint file.
* **Sampled audit replay.**  :class:`RunAuditor` re-executes a
  seeded, configurable fraction of fast-forwarded injected runs
  full-length from tick 0 and field-diffs the two results.  A
  mismatch is an :class:`IntegrityViolation`; the ``strict`` policy
  raises, ``repair`` adopts the full-replay result (and disables
  fast-forwarding after repeated violations), ``off`` skips auditing.
* **Worker drift sentinels.**  :func:`golden_sentinel` builds the
  probe a forked pool worker runs at startup: digest a locally
  computed golden run and compare it with the parent's.  A divergent
  digest (FP environment drift, mismatched code) marks the worker's
  pool broken before any of its results are merged.

Audit counters live in :data:`integrity_stats`, an unprefixed
:class:`~repro.fi.counters.Counters` (keys ``audits``,
``audit_mismatches``, ``audit_repairs``); pool workers ship the
per-task delta — and any structured violations — home beside the task
result.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import IntegrityError
from repro.fi.counters import Counters

__all__ = [
    "DEFAULT_POLICY",
    "POLICIES",
    "IntegrityViolation",
    "RunAuditor",
    "canonical_digest",
    "drain_violations",
    "field_diff",
    "golden_sentinel",
    "integrity_stats",
    "push_violation",
    "run_digest",
]

#: integrity policies, in decreasing strictness.  ``strict`` raises an
#: :class:`~repro.errors.IntegrityError` on any violation; ``repair``
#: substitutes a trusted recomputation and keeps going; ``off``
#: disables verification entirely.
POLICIES = ("strict", "repair", "off")

#: default policy: self-heal without taking the campaign down.
DEFAULT_POLICY = "repair"

#: audit mismatches tolerated in one process before the auditor stops
#: trusting the fast-forward engine and replays everything full-length.
DEFAULT_DISABLE_AFTER = 3


# ======================================================================
# Canonical content digests.
# ======================================================================
#: every NaN payload collapses to this bit pattern before hashing.
_CANONICAL_NAN = struct.pack("<d", float("nan"))


def _float_bytes(value: float) -> bytes:
    if math.isnan(value):
        return _CANONICAL_NAN
    # IEEE-754 bits, not repr: -0.0 != 0.0, and every finite value
    # digests the same on every platform and after a JSON round trip
    return struct.pack("<d", value)


def _update(h, value: Any) -> None:
    """Feed one value into the hash, type-tagged and length-prefixed."""
    if value is None:
        h.update(b"n;")
    elif value is True:
        h.update(b"t;")
    elif value is False:
        h.update(b"f;")
    elif isinstance(value, int):
        text = str(value).encode("ascii")
        h.update(b"i%d:%s;" % (len(text), text))
    elif isinstance(value, float):
        h.update(b"d")
        h.update(_float_bytes(value))
        h.update(b";")
    elif isinstance(value, str):
        raw = value.encode("utf-8", "surrogatepass")
        h.update(b"s%d:" % len(raw))
        h.update(raw)
        h.update(b";")
    elif isinstance(value, (bytes, bytearray)):
        h.update(b"b%d:" % len(value))
        h.update(bytes(value))
        h.update(b";")
    elif isinstance(value, (list, tuple)):
        # tuples alias lists: JSON cannot tell them apart, and the
        # digest must survive a save/load round trip
        h.update(b"l%d:" % len(value))
        for item in value:
            _update(h, item)
        h.update(b";")
    elif isinstance(value, (set, frozenset)):
        digests = sorted(canonical_digest(item) for item in value)
        h.update(b"e%d:" % len(digests))
        for digest in digests:
            h.update(digest.encode("ascii"))
        h.update(b";")
    elif isinstance(value, Mapping):
        # keys are stringified (as json.dumps does) and sorted, so the
        # digest is independent of insertion order and of int-vs-str
        # key drift across a JSON round trip
        items = sorted(
            ((_key_str(key), item) for key, item in value.items()),
            key=lambda pair: pair[0],
        )
        h.update(b"m%d:" % len(items))
        for key, item in items:
            _update(h, key)
            _update(h, item)
        h.update(b";")
    else:
        raise IntegrityError(
            f"cannot canonically digest a {type(value).__name__}: {value!r}"
        )


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    return str(key)


def canonical_digest(value: Any) -> str:
    """sha256 hex digest of *value*'s canonical byte encoding.

    Equal values digest equally; a value digests the same before and
    after a JSON round trip; any field perturbation — including float
    sign-of-zero — changes the digest.  Raises
    :class:`~repro.errors.IntegrityError` for non-JSON-encodable
    types.
    """
    h = hashlib.sha256()
    _update(h, value)
    return h.hexdigest()


def field_diff(expected: Any, observed: Any, path: str = "$") -> Optional[str]:
    """Locate the first difference between two result values.

    Returns a human-readable description anchored at a JSON-path-like
    location (``$.latencies.TOC2[3]``), or ``None`` when the values
    are canonically identical.  Comparison follows the digest's
    equivalence: NaNs match each other, ``-0.0`` differs from ``0.0``,
    ints never equal floats, tuples alias lists.
    """
    if isinstance(expected, bool) or isinstance(observed, bool):
        if expected is not observed:
            return f"{path}: expected {expected!r}, observed {observed!r}"
        return None
    if isinstance(expected, (list, tuple)) and isinstance(
        observed, (list, tuple)
    ):
        if len(expected) != len(observed):
            return (
                f"{path}: length {len(expected)} != {len(observed)}"
            )
        for index, (a, b) in enumerate(zip(expected, observed)):
            found = field_diff(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(expected, Mapping) and isinstance(observed, Mapping):
        a_keys = {_key_str(k) for k in expected}
        b_keys = {_key_str(k) for k in observed}
        if a_keys != b_keys:
            only_a = sorted(a_keys - b_keys)
            only_b = sorted(b_keys - a_keys)
            return (
                f"{path}: key sets differ "
                f"(missing {only_b or '-'}, extra {only_a or '-'})"
            )
        a_items = {_key_str(k): v for k, v in expected.items()}
        b_items = {_key_str(k): v for k, v in observed.items()}
        for key in sorted(a_items):
            found = field_diff(a_items[key], b_items[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, float) and isinstance(observed, float):
        if _float_bytes(expected) != _float_bytes(observed):
            return f"{path}: expected {expected!r}, observed {observed!r}"
        return None
    if type(expected) is not type(observed) and not (
        isinstance(expected, (list, tuple))
        and isinstance(observed, (list, tuple))
    ):
        if canonical_digest(expected) == canonical_digest(observed):
            return None
        return (
            f"{path}: type {type(expected).__name__} != "
            f"{type(observed).__name__}"
        )
    if expected != observed:
        return f"{path}: expected {expected!r}, observed {observed!r}"
    return None


def run_digest(result: Any) -> str:
    """Canonical digest of a simulation result's observable content.

    Covers the run length, completion tick and every recorded signal
    trace stream — the facts golden-run comparisons and EA banks read.
    Works for any target whose result carries ``ticks_run`` /
    ``completion_tick`` / ``traces``.
    """
    traces = getattr(result, "traces", None)
    streams: Dict[str, Any] = {}
    if traces is not None:
        for signal in sorted(traces.signals()):
            streams[signal] = [
                list(traces.ticks_of(signal)),
                [float(v) for v in traces.values_of(signal)],
            ]
    return canonical_digest(
        {
            "ticks_run": getattr(result, "ticks_run", None),
            "completion_tick": getattr(result, "completion_tick", None),
            "traces": streams,
        }
    )


# ======================================================================
# Structured violations and counters.
# ======================================================================
@dataclass(frozen=True)
class IntegrityViolation:
    """One detected integrity violation, structured for the event log.

    ``kind`` is one of ``audit_mismatch`` (fast-forward result
    diverged from its full replay), ``checkpoint_digest`` (a stored
    record did not match its digest), ``result_digest`` (a saved
    result file failed verification), ``worker_drift`` (a pool
    worker's golden digest diverged from the parent's) or
    ``fast_forward_disabled`` (the auditor stopped trusting the
    engine after repeated mismatches).
    """

    kind: str
    campaign: str = ""
    index: Optional[int] = None
    detail: str = ""
    expected: str = ""
    observed: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "index": self.index,
            "detail": self.detail,
            "expected": self.expected,
            "observed": self.observed,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "IntegrityViolation":
        index = payload.get("index")
        return cls(
            kind=str(payload.get("kind", "")),
            campaign=str(payload.get("campaign", "")),
            index=int(index) if index is not None else None,
            detail=str(payload.get("detail", "")),
            expected=str(payload.get("expected", "")),
            observed=str(payload.get("observed", "")),
        )

    def describe(self) -> str:
        where = f" task {self.index}" if self.index is not None else ""
        text = f"[{self.campaign or 'campaign'}]{where} {self.kind}"
        if self.detail:
            text += f": {self.detail}"
        return text


#: the process-wide counters used by all auditing machinery.
integrity_stats = Counters("", "audits", "audit_mismatches", "audit_repairs")

#: violations raised since the last drain; the executor drains this
#: after every task attempt and ships the records home in-band.
_PENDING_VIOLATIONS: List[IntegrityViolation] = []


def push_violation(violation: IntegrityViolation) -> None:
    _PENDING_VIOLATIONS.append(violation)


def drain_violations() -> List[IntegrityViolation]:
    drained = list(_PENDING_VIOLATIONS)
    _PENDING_VIOLATIONS.clear()
    return drained


# ======================================================================
# Sampled audit replay.
# ======================================================================
class RunAuditor:
    """Re-executes a sampled fraction of fast-forwarded runs in full.

    ``run(index, execute)`` calls ``execute(ff)`` — the campaign's
    per-run function parameterized on a fast-forward handle — once
    with the campaign's real handle.  When the run is selected for
    audit *and* actually used the engine (restored a checkpoint or
    resynchronized), it is executed a second time with fast-forwarding
    disabled — a full replay from tick 0 — and the two JSON-encodable
    outcomes are field-diffed.  A difference means some layer between
    the simulator and the result lied; it becomes an
    :class:`IntegrityViolation` and is handled per the policy:

    * ``strict`` — raise :class:`~repro.errors.IntegrityError`; the
      executor aborts the campaign (a deterministic mismatch would
      only repeat on retry).
    * ``repair`` — adopt the trusted full-replay result.  After
      ``disable_after`` mismatches in one process the auditor stops
      using fast-forward for *every* subsequent run (audited or not):
      an engine that repeatedly lies is not worth its speedup.
    * ``off`` — never audit.

    Sampling is deterministic per ``(audit_seed, index)``, so serial
    and parallel campaigns audit the same runs and stay bit-identical.
    """

    def __init__(
        self,
        ff: Any,
        config: Any,
        campaign: str = "campaign",
        disable_after: int = DEFAULT_DISABLE_AFTER,
    ) -> None:
        self.campaign = campaign
        self.policy = config.integrity.policy
        self.fraction = config.integrity.audit_fraction
        seed = config.integrity.audit_seed
        self.seed = seed if seed is not None else config.seed
        self.disable_after = disable_after
        self._ff = ff
        self._replay_ff = None
        if ff is not None:
            # same factory, target, stride and bank specs — only the
            # engine is off, so the replay builds its simulator the
            # way a --no-fast-forward campaign would
            self._replay_ff = copy.copy(ff)
            self._replay_ff.enabled = False
        self._mismatches = 0
        self._ff_disabled = False

    @property
    def active(self) -> bool:
        return (
            self._ff is not None
            and self._ff.enabled
            and self.policy != "off"
            and self.fraction > 0.0
        )

    def should_audit(self, index: int) -> bool:
        """Deterministic Bernoulli(fraction) draw for one task index."""
        if not self.active:
            return False
        if self.fraction >= 1.0:
            return True
        blob = f"{self.seed}:{index}".encode("ascii")
        bucket = int.from_bytes(
            hashlib.sha256(blob).digest()[:8], "big"
        ) / float(1 << 64)
        return bucket < self.fraction

    def run(self, index: int, execute: Callable[[Any], Any]) -> Any:
        """Execute one run, audited per the policy and sampling."""
        if self._ff is None:
            return execute(None)
        if self._ff_disabled:
            return execute(self._replay_ff)
        from repro.fi.snapshot import ff_stats

        engaged = ff_stats.restores + ff_stats.resyncs
        result = execute(self._ff)
        if not self.should_audit(index):
            return result
        # a run that never touched the engine is already a full
        # replay — nothing to audit
        if ff_stats.restores + ff_stats.resyncs == engaged:
            return result
        integrity_stats.audits += 1
        replayed = execute(self._replay_ff)
        difference = field_diff(replayed, result)
        if difference is None:
            return result
        integrity_stats.audit_mismatches += 1
        violation = IntegrityViolation(
            kind="audit_mismatch",
            campaign=self.campaign,
            index=index,
            detail=difference,
            expected=canonical_digest(_jsonable(replayed)),
            observed=canonical_digest(_jsonable(result)),
        )
        push_violation(violation)
        if self.policy == "strict":
            raise IntegrityError(
                f"audit replay mismatch: {violation.describe()}"
            )
        integrity_stats.audit_repairs += 1
        self._mismatches += 1
        if not self._ff_disabled and self._mismatches >= self.disable_after:
            self._ff_disabled = True
            push_violation(
                IntegrityViolation(
                    kind="fast_forward_disabled",
                    campaign=self.campaign,
                    index=index,
                    detail=(
                        f"{self._mismatches} audit mismatches in one "
                        f"process; replaying all remaining runs in full"
                    ),
                )
            )
        return replayed


def _jsonable(value: Any) -> Any:
    """Best-effort canonical form for digesting arbitrary outcomes."""
    try:
        canonical_digest(value)
        return value
    except IntegrityError:
        return repr(value)


# ======================================================================
# Worker drift sentinels.
# ======================================================================
def golden_sentinel(factory: Callable[[Any], Any], test_case: Any):
    """Build the probe a pool worker runs before its first real task.

    The returned callable computes a *fresh* golden run for
    *test_case* (no caches involved) and returns its
    :func:`run_digest`.  The parent computes the same digest before
    forking; a worker whose digest differs is drifting — different FP
    environment, mismatched code version, corrupted memory — and none
    of its results can be trusted.
    """

    def compute() -> str:
        simulator = factory(test_case)
        return run_digest(simulator.run())

    return compute
