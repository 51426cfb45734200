"""Sequential-sampling (adaptive) campaign scheduling.

Fixed-n campaigns spend the same injection budget on every stratum,
although most strata are decided after a handful of samples: an
architectural-zero pair never shows a hit, a saturated pass-through
pair shows almost nothing else.  This module replaces the fixed-n
schedule with confidence-driven batching:

* the campaign driver pre-draws its **full** per-stratum budget in the
  exact legacy RNG order (so the task list is identical to a fixed-n
  campaign with that budget),
* the :class:`AdaptiveSampler` dispatches ``min_batch`` tasks per
  still-open stratum per round through the shared
  :class:`~repro.fi.executor.CampaignExecutor`,
* after each merged round it re-evaluates every stratum's monitored
  proportions against a :class:`StoppingRule` (Wilson intervals from
  :mod:`repro.analysis.intervals`) and closes strata that are decided:
  every proportion is certified an architectural zero, certified
  saturated, or estimated to within the half-width target,
* tasks of closed strata are never dispatched; their result slots hold
  the :data:`SKIPPED` sentinel, which campaign aggregation ignores.

Determinism and replay
----------------------
Stopping decisions are pure functions of the merged (and, when
checkpointing, digest-verified) results of each stratum's executed
prefix, evaluated in deterministic stratum order.  A resumed campaign
therefore replays the identical batch schedule and reaches the
identical decisions; and because the pre-drawn task list equals the
fixed-n list, an adaptive campaign with stopping disabled
(``ci_halfwidth=0``) executes every task and is bit-identical to the
fixed-n path on any backend.

Per-stratum spend, savings and stop reasons are recorded in
:class:`~repro.fi.executor.CampaignTelemetry` (``runs_saved``,
``stop_reasons``) and in the run-event log (``stratum_stop`` and
``adaptive_summary`` events).  Each round's telemetry folds into the
campaign's: run fields add up, and so does every registered layer
counter in ``counts`` (:mod:`repro.fi.counters`), whatever it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.intervals import (
    certifies_saturation,
    certifies_zero,
    wilson_halfwidth,
)
from repro.errors import CampaignError
from repro.fi import counters
from repro.fi.executor import (
    CampaignConfig,
    CampaignExecutor,
    CampaignTelemetry,
    RunEventLog,
)
from repro.fi.integrity import IntegrityViolation

__all__ = [
    "SKIPPED",
    "AdaptiveStratum",
    "StoppingRule",
    "StratumReport",
    "AdaptiveSampler",
    "stopping_rule_from",
]

#: run fields the campaign aggregate sums over its rounds
_SUMMED = (
    "executed_runs", "resumed_runs", "wall_s", "busy_s", "retries",
    "failures", "timeouts", "pool_respawns", "drift_events",
    "checkpoint_rejects",
)
#: golden-cache and store figures count over the executor's lifetime,
#: so the latest round's values already cover the whole campaign
_LATEST = (
    "cache_hits", "cache_misses", "store_backend", "store_flushes",
    "store_flushes_skipped", "store_records_written", "store_bytes_written",
)


class _Skipped:
    """Singleton filling result slots of never-dispatched tasks."""

    _instance: Optional["_Skipped"] = None

    def __new__(cls) -> "_Skipped":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "SKIPPED"


#: result-slot marker for tasks an adaptive campaign never dispatched.
#: Distinct from ``None`` (an executed-but-inactive injection) so
#: aggregation loops can tell "no observation" from "not sampled".
SKIPPED = _Skipped()


@dataclass(frozen=True)
class AdaptiveStratum:
    """One sampling stratum: a label and its slice of the task space.

    *indices* must be the stratum's task indices in deterministic
    (pre-draw) order; the sampler dispatches prefixes of it.
    """

    label: str
    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise CampaignError(
                f"stratum {self.label!r} has no tasks"
            )


@dataclass(frozen=True)
class StoppingRule:
    """Interval-based stratum stopping criteria.

    A monitored proportion is *decided* when one of three certificates
    holds at confidence ``level``:

    ``zero``
        no success observed and the one-sided upper Wilson bound is at
        most ``zero_threshold`` — the pair is an architectural zero
        for every purpose the shape verdicts depend on;
    ``saturated``
        the one-sided lower Wilson bound is at least
        ``saturation_threshold`` — a saturated pass-through;
    ``halfwidth``
        the two-sided Wilson half-width is at most ``halfwidth`` —
        the estimate is simply precise enough.

    A stratum stops when **all** its monitored proportions are
    decided, or when its budget is exhausted.
    """

    level: float = 0.95
    halfwidth: float = 0.2
    zero_threshold: float = 0.3
    saturation_threshold: float = 0.6

    def classify(self, successes: int, n: int) -> Optional[str]:
        """The certificate deciding a proportion, or ``None``."""
        if n <= 0:
            return None
        if certifies_zero(successes, n, self.level, self.zero_threshold):
            return "zero"
        if certifies_saturation(
            successes, n, self.level, self.saturation_threshold
        ):
            return "saturated"
        if (
            self.halfwidth > 0.0
            and wilson_halfwidth(successes, n, self.level) <= self.halfwidth
        ):
            return "halfwidth"
        return None


def stopping_rule_from(config: CampaignConfig) -> Optional[StoppingRule]:
    """The stopping rule a config asks for; ``None`` = stopping off.

    ``ci_halfwidth == 0`` is the master off switch: the adaptive
    engine then schedules the full budget in batches, which is
    bit-identical to fixed-n scheduling (the A/B determinism
    contract).
    """
    sampling = config.sampling
    if sampling.ci_halfwidth <= 0.0:
        return None
    return StoppingRule(
        level=sampling.ci_level,
        halfwidth=sampling.ci_halfwidth,
        zero_threshold=sampling.zero_threshold,
        saturation_threshold=sampling.saturation_threshold,
    )


@dataclass
class StratumReport:
    """Spend accounting of one stratum after its last round."""

    label: str
    budget: int
    spent: int
    stop_reason: str
    #: proportion name -> (successes, observations) at stop time
    counts: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: proportion name -> deciding certificate ("budget" if none)
    decisions: Dict[str, str] = field(default_factory=dict)

    @property
    def saved(self) -> int:
        return self.budget - self.spent

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "budget": self.budget,
            "spent": self.spent,
            "saved": self.saved,
            "stop_reason": self.stop_reason,
            "counts": {
                name: list(pair) for name, pair in self.counts.items()
            },
            "decisions": dict(self.decisions),
        }


class AdaptiveSampler:
    """Drives a campaign's executor with confidence-driven batches.

    *counts_of* maps ``(stratum, executed_results)`` — the results of
    the stratum's executed prefix, in task order — to the stratum's
    monitored proportions as ``{name: (successes, observations)}``.
    Quarantined tasks appear as :class:`TaskFailure` entries in
    *executed_results* and must be treated as "no observation" by the
    callback, exactly like the campaign's aggregation phase treats
    them.

    ``run()`` has the same contract as
    :meth:`~repro.fi.executor.CampaignExecutor.run_tasks` — a result
    list in task order — except that slots of never-dispatched tasks
    hold :data:`SKIPPED`.
    """

    def __init__(
        self,
        executor: CampaignExecutor,
        strata: Sequence[AdaptiveStratum],
        counts_of: Callable[
            [AdaptiveStratum, List[Any]], Dict[str, Tuple[int, int]]
        ],
        rule: Optional[StoppingRule],
        min_batch: int = 4,
    ):
        if not strata:
            raise CampaignError("adaptive sampling needs at least 1 stratum")
        if min_batch < 1:
            raise CampaignError(f"min_batch must be >= 1, got {min_batch}")
        self.executor = executor
        self.strata = list(strata)
        self.counts_of = counts_of
        self.rule = rule
        self.min_batch = min_batch
        #: per-stratum spend reports of the most recent run.
        self.reports: List[StratumReport] = []
        #: aggregated telemetry of the most recent run.
        self.telemetry: Optional[CampaignTelemetry] = None
        #: integrity violations accumulated over all rounds.
        self.violations: List[IntegrityViolation] = []

    # ------------------------------------------------------------------
    def _evaluate(
        self, stratum: AdaptiveStratum, executed: List[Any]
    ) -> Tuple[bool, Dict[str, Tuple[int, int]], Dict[str, str]]:
        """(decided, counts, per-proportion decisions) of a stratum."""
        counts = self.counts_of(stratum, executed)
        decisions: Dict[str, str] = {}
        if self.rule is None:
            return False, counts, decisions
        decided = True
        for name, (successes, n) in counts.items():
            verdict = self.rule.classify(successes, n)
            if verdict is None:
                decided = False
            else:
                decisions[name] = verdict
        return decided and bool(counts), counts, decisions

    @staticmethod
    def _stop_reason(decisions: Dict[str, str], decided: bool) -> str:
        if not decided:
            return "budget"
        reasons = set(decisions.values())
        if reasons == {"zero"}:
            return "zero"
        if reasons <= {"zero", "saturated"}:
            return "saturated"
        return "halfwidth"

    def _fold_round(
        self, aggregate: CampaignTelemetry, round_telemetry: CampaignTelemetry
    ) -> None:
        for name in _SUMMED:
            total = getattr(aggregate, name) + getattr(round_telemetry, name)
            setattr(aggregate, name, total)
        for name in _LATEST:
            setattr(aggregate, name, getattr(round_telemetry, name))
        aggregate.degraded = aggregate.degraded or round_telemetry.degraded
        counters.add(aggregate.counts, round_telemetry.counts)

    # ------------------------------------------------------------------
    def run(
        self,
        runner: Callable[[int], Any],
        n_tasks: int,
        fingerprint: str = "",
        sentinel: Optional[Callable[[], str]] = None,
    ) -> List[Any]:
        """Batch-execute until every stratum stops; results in task
        order, with :data:`SKIPPED` in never-dispatched slots."""
        config = self.executor.config
        events = RunEventLog(
            config.event_log_path,
            self.executor.campaign,
            sink=self.executor.store,
        )
        results: List[Any] = [SKIPPED] * n_tasks
        cursor: Dict[str, int] = {s.label: 0 for s in self.strata}
        open_strata = list(self.strata)
        self.reports = []
        self.violations = []
        aggregate = CampaignTelemetry(
            campaign=self.executor.campaign,
            backend=config.resolved_backend(),
            jobs=config.jobs,
            total_runs=n_tasks,
            adaptive=True,
            strata=len(self.strata),
        )
        reports: Dict[str, StratumReport] = {}
        first_round = True
        try:
            while open_strata:
                batch: List[int] = []
                for stratum in open_strata:
                    at = cursor[stratum.label]
                    take = stratum.indices[at:at + self.min_batch]
                    cursor[stratum.label] = at + len(take)
                    batch.extend(take)
                round_results = self.executor.run_tasks(
                    runner,
                    n_tasks,
                    fingerprint,
                    sentinel=sentinel,
                    indices=batch,
                )
                for index, value in zip(batch, round_results):
                    results[index] = value
                round_telemetry = self.executor.telemetry
                if round_telemetry is not None:
                    if first_round:
                        # the first round's resolved backend is the
                        # representative one (later rounds may shrink
                        # below the pool-worthiness threshold)
                        aggregate.backend = round_telemetry.backend
                        aggregate.jobs = round_telemetry.jobs
                        first_round = False
                    self._fold_round(aggregate, round_telemetry)
                self.violations.extend(self.executor.violations)

                still_open: List[AdaptiveStratum] = []
                for stratum in open_strata:
                    spent = cursor[stratum.label]
                    executed = [
                        results[i] for i in stratum.indices[:spent]
                    ]
                    decided, counts, decisions = self._evaluate(
                        stratum, executed
                    )
                    exhausted = spent >= len(stratum.indices)
                    if not decided and not exhausted:
                        still_open.append(stratum)
                        continue
                    report = StratumReport(
                        label=stratum.label,
                        budget=len(stratum.indices),
                        spent=spent,
                        stop_reason=self._stop_reason(
                            decisions, decided
                        ),
                        counts=counts,
                        decisions={
                            name: decisions.get(name, "budget")
                            for name in counts
                        },
                    )
                    reports[stratum.label] = report
                    events.emit(
                        "stratum_stop",
                        stratum=report.label,
                        spent=report.spent,
                        budget=report.budget,
                        saved=report.saved,
                        reason=report.stop_reason,
                    )
                open_strata = still_open
        finally:
            # reports in deterministic stratum order, not stop order
            self.reports = [
                reports[s.label] for s in self.strata if s.label in reports
            ]
            aggregate.runs_saved = sum(r.saved for r in self.reports)
            aggregate.strata_early = sum(
                1 for r in self.reports if r.saved > 0
            )
            for report in self.reports:
                aggregate.stop_reasons[report.stop_reason] = (
                    aggregate.stop_reasons.get(report.stop_reason, 0) + 1
                )
            self.telemetry = aggregate
            events.emit(
                "adaptive_summary",
                strata=aggregate.strata,
                strata_early=aggregate.strata_early,
                runs_saved=aggregate.runs_saved,
                executed=aggregate.executed_runs,
                resumed=aggregate.resumed_runs,
                stop_reasons=dict(aggregate.stop_reasons),
            )
            events.close()
        return results
