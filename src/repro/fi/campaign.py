"""Fault-injection campaigns (paper Sections 5.3, 6.2 and 7).

Four campaigns:

* :class:`PermeabilityCampaign` — estimates every ``P^M_{i,k}`` of the
  system (Table 1): inject one bit flip into one module input per run,
  golden-run-compare the module's invocation stream, count *direct*
  first differences per output.
* :class:`DetectionCampaign` — the input error model comparison
  (Table 4): inject one bit flip into one system input signal per run
  and record which executable assertions detect it.
* :class:`MemoryCampaign` — the harsher error model (Fig. 3): inject a
  periodic bit flip (20 ms period) into one RAM or stack location per
  run, record detections and the failure verdict, and derive
  ``c_tot`` / ``c_fail`` / ``c_nofail`` per region for any EA set.
* :class:`RecoveryCampaign` — re-runs the memory error model with and
  without containment wrappers and compares failure verdicts.

Execution model
---------------
A campaign declares what it runs as a :class:`CampaignPlan`, and one
driver, :func:`run_campaigns`, executes a list of campaigns; a
campaign's ``run()`` is that driver over a one-campaign list.  It has
three phases:

* *plan* — every campaign of the list draws every random parameter
  from a fresh ``random.Random(seed)``, in the exact order the
  original single-loop drivers drew them, into a task list, before
  any campaign executes.  With the tasks come each task's ``(test
  case, RowInjection)`` row for the vectorized core, the parts of the
  checkpoint fingerprint, the scalar per-run function, the
  fast-forward handle and, for the sampled campaigns, the strata;
* *execute* — campaign by campaign, the driver maps the per-run
  function over the task list through the campaign's own
  :class:`~repro.fi.executor.CampaignExecutor` (serially or on a
  process pool), answering batchable runs from the vectorized core
  (:mod:`repro.fi.vector`) — one batch the campaigns of the list
  share, so a reproduction's permeability, detection and memory rows
  advance in one kernel loop — and audit-replaying a sampled fraction
  of fast-forwarded ones;
* *aggregate* — each campaign folds its observed ``(task, outcome)``
  pairs in task order; quarantined runs are reported, not folded.

Campaigns are therefore deterministic given their seed,
**bit-identical between serial and parallel execution**, and a second
``run()`` repeats the first (with a checkpoint, it resumes the
records of the very draw it repeats).  Every run is a fresh simulator
instance (no state leaks between runs).  Golden runs are shared
through the process-wide :data:`~repro.fi.executor.golden_cache`.

The sampled campaigns (permeability and detection) additionally
support **adaptive scheduling** (``config.sampling``): the drawn task
list is unchanged, but batches are dispatched per stratum through an
:class:`~repro.fi.adaptive.AdaptiveSampler`, which stops a stratum as
soon as its Wilson intervals certify the estimates (architectural
zero, saturated, or within the half-width target).  The enumerative
campaigns (memory and recovery) visit every (location, test case)
pair exactly once and ignore the adaptive options.

Campaigns accept either a bare simulator factory or a registered
:class:`~repro.targets.TargetSystem` (anything with a
``simulator_factory`` attribute); the shared execution options live in
a :class:`~repro.fi.executor.CampaignConfig` passed as ``config=``
(``None``: the default config).  Explicit constructor arguments win
over config values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.edm.assertions import AssertionSpec
from repro.edm.monitors import MonitorBank
from repro.errors import CampaignError
from repro.fi.adaptive import (
    SKIPPED,
    AdaptiveSampler,
    AdaptiveStratum,
    StratumReport,
    stopping_rule_from,
)
from repro.fi.executor import (
    CampaignConfig,
    CampaignExecutor,
    CampaignTelemetry,
    TaskFailure,
    fingerprint_of,
    golden_cache,
)
from repro.fi.golden import (
    InvocationLog,
    SimulatorFactory,
    first_output_differences,
)
from repro.fi.integrity import (
    IntegrityViolation,
    RunAuditor,
    golden_sentinel,
)
from repro.fi.injector import FaultInjector
from repro.fi.memory import MemoryLocation, MemoryMap, Region
from repro.fi.models import (
    DEFAULT_PERIOD_TICKS,
    InputSignalFlip,
    ModuleInputFlip,
    PeriodicMemoryFlip,
)
from repro.fi.snapshot import FastForward
from repro.fi.vector import (
    BatchPart,
    RowInjection,
    vector_stats,
    wrap_runners,
)
from repro.target.testcases import TestCase

__all__ = [
    "run_campaigns",
    "PermeabilityCampaign",
    "PermeabilityEstimate",
    "DetectionCampaign",
    "DetectionResult",
    "LatencyStats",
    "MemoryCampaign",
    "MemoryCampaignResult",
    "MemoryRunRecord",
    "CoverageTriple",
    "RecoveryCampaign",
    "RecoveryOutcome",
    "RecoveryResult",
]


# ======================================================================
# Shared constructor plumbing.
# ======================================================================
def _resolve_factory(factory) -> SimulatorFactory:
    """Accept a simulator factory or anything carrying one.

    A :class:`~repro.targets.TargetSystem` (or any object with a
    callable ``simulator_factory`` attribute) stands in for its
    factory, so campaigns can be pointed at a registered target
    directly.
    """
    if not callable(factory):
        simulator_factory = getattr(factory, "simulator_factory", None)
        if callable(simulator_factory):
            return simulator_factory
        raise CampaignError(
            f"factory must be callable or provide a simulator_factory, "
            f"got {factory!r}"
        )
    return factory


def _resolve_test_cases(
    factory,
    test_cases: Optional[Sequence[TestCase]],
    config: CampaignConfig,
) -> List[TestCase]:
    if test_cases is None:
        test_cases = config.test_cases
    if test_cases is None and not callable(factory):
        default_cases = getattr(factory, "standard_test_cases", None)
        if callable(default_cases):
            test_cases = default_cases()
    if not test_cases:
        raise CampaignError("at least one test case is required")
    return list(test_cases)


def _target_label(factory) -> str:
    name = getattr(factory, "name", None)
    if isinstance(name, str):
        return name
    return getattr(factory, "__qualname__", type(factory).__name__)


# ======================================================================
# Plans and the driver.
# ======================================================================
@dataclass
class CampaignPlan:
    """Everything one campaign run executes, drawn before any run.

    ``tasks[i]`` holds the arguments of the scalar per-run function,
    called as ``one_run(*tasks[i], ff=...)``, and ``rows[i]`` is the
    same run as a ``(test case, RowInjection)`` row of the vectorized
    core.  Only the campaign that drew a task knows its layout.
    """

    kind: str
    #: the target system the tasks were drawn for
    system: Any
    tasks: List[tuple]
    rows: List[Tuple[TestCase, RowInjection]]
    #: the parts of the checkpoint fingerprint (:func:`fingerprint_of`)
    fingerprint: List[Any]
    one_run: Callable[..., Any]
    #: the fast-forward handle; ``None``: every run replays in full
    ff: Optional[FastForward]
    #: the campaign's inputs to its batch kernel (see
    #: :class:`~repro.fi.vector.BatchPart`)
    batch: Dict[str, Any] = field(default_factory=dict)
    #: sampled campaigns: the strata an adaptive run stops one by one,
    #: and ``counts_of(stratum, executed)`` -> ``{name: (successes, n)}``
    strata: Optional[List[AdaptiveStratum]] = None
    counts_of: Optional[Callable[..., Dict[str, Tuple[int, int]]]] = None


def _preload_tracks(plan: CampaignPlan, runner: Any) -> None:
    """Record the checkpoint tracks the plan's runs will need, up front.

    Runs before the process pool forks, so workers inherit the tracks
    through copy-on-write instead of each recording their own.  The
    tasks a batch answers are skipped; a run that needs a track anyway
    records it on launch.
    """
    answers = getattr(runner, "answers", None)
    needed: Dict[int, TestCase] = {}
    for index, (test_case, injection) in enumerate(plan.rows):
        if answers is not None and answers(index):
            continue
        if plan.ff.wants_track(injection.tick):
            needed.setdefault(test_case.case_id, test_case)
    plan.ff.preload(list(needed.values()))


def _scalar_runner(plan: CampaignPlan, auditor: RunAuditor):
    """Task ``index`` of *plan* on the scalar path, audit-replayed
    when the auditor samples it."""

    def scalar(index: int) -> Any:
        task = plan.tasks[index]
        return auditor.run(index, lambda ff: plan.one_run(*task, ff=ff))

    return scalar


def _execute(
    campaign: "_Campaign",
    executor: CampaignExecutor,
    plan: CampaignPlan,
    runner: Callable[[int], Any],
) -> Tuple[CampaignPlan, List[Tuple[tuple, Any]], List[TaskFailure]]:
    """Execute *campaign*'s drawn plan through *runner*.

    Returns the plan, the observed ``(task, outcome)`` pairs in task
    order and the quarantined tasks.  Neither a quarantined run nor a
    task an adaptive run never dispatched is an observation, so a
    faulty campaign completes with the surviving runs while the losses
    stay accounted for.
    """
    config = campaign.config
    if plan.ff is not None:
        with executor.counted():
            _preload_tracks(plan, runner)
    fingerprint = fingerprint_of(*plan.fingerprint)
    sentinel = golden_sentinel(campaign.factory, campaign.test_cases[0])
    if plan.strata is not None and config.sampling.enabled:
        source = AdaptiveSampler(
            executor,
            plan.strata,
            plan.counts_of,
            rule=stopping_rule_from(config),
            min_batch=config.sampling.min_batch,
        )
        results = source.run(
            runner, len(plan.tasks), fingerprint, sentinel=sentinel
        )
        campaign.stratum_reports = list(source.reports)
    else:
        source = executor
        results = executor.run_tasks(
            runner, len(plan.tasks), fingerprint, sentinel=sentinel
        )
        campaign.stratum_reports = []
    campaign.telemetry = source.telemetry
    campaign.integrity_violations = list(source.violations)
    observed = [
        (task, outcome)
        for task, outcome in zip(plan.tasks, results)
        if outcome is not SKIPPED and not isinstance(outcome, TaskFailure)
    ]
    failures = [r for r in results if isinstance(r, TaskFailure)]
    return plan, observed, failures


def run_campaigns(campaigns: Sequence["_Campaign"]) -> List[Any]:
    """Run *campaigns*; returns their results in order.

    Every campaign draws its plan before any executes, so the rows of
    all of them share one batch (:func:`~repro.fi.vector.wrap_runners`:
    the batching campaigns of one factory and job count).  Then each
    campaign executes in order with its own executor, auditor,
    fingerprint, golden sentinel, checkpoint and adaptive or fixed-n
    schedule.  Its telemetry counts its own draw, track preload and
    execution, each once, and its own planned rows as its group
    capacity; the other ``vec_`` counters of a shared group land in
    the campaign whose execution computes it.  Every executor is
    closed on every exit path.
    """
    executors: List[CampaignExecutor] = []
    try:
        plans: List[CampaignPlan] = []
        parts: List[BatchPart] = []
        for campaign in campaigns:
            executor = CampaignExecutor(campaign.config, campaign=campaign.kind)
            executors.append(executor)
            with executor.counted():
                plan = campaign._plan(
                    campaign.factory(campaign.test_cases[0]).system
                )
            plans.append(plan)
            # a sampled audit replay re-checks fast-forwarded runs
            auditor = RunAuditor(plan.ff, campaign.config, campaign=plan.kind)
            parts.append(BatchPart(
                plan.kind, plan.rows, _scalar_runner(plan, auditor),
                auditor=auditor, **plan.batch,
            ))
        runners = wrap_runners(
            parts,
            [campaign.config for campaign in campaigns],
            [campaign.factory for campaign in campaigns],
        )
        for executor, runner in zip(executors, runners):
            with executor.counted():
                vector_stats.group_capacity += getattr(runner, "planned", 0)
        return [
            campaign._result(*_execute(campaign, executor, plan, runner))
            for campaign, executor, plan, runner in zip(
                campaigns, executors, plans, runners
            )
        ]
    finally:
        for executor in executors:
            executor.close()


class _Campaign:
    """What every campaign shares: the constructor plumbing, the state
    its last run left behind, and the way a drawn task list becomes a
    plan.  A campaign supplies ``_plan(system)``, ``_row(task)``,
    ``_one_run(*task, ff=None)``, a ``_result(plan, observed,
    failures)`` that aggregates what the driver observed, and a
    ``run()`` that is :func:`run_campaigns` over the campaign alone."""

    #: the campaign's name in checkpoints, telemetry and run events
    kind = "campaign"

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]],
        seed: Optional[int],
        config: Optional[CampaignConfig],
        assertion_specs: Sequence[AssertionSpec] = (),
    ):
        if config is None:
            config = CampaignConfig()
        self.factory = _resolve_factory(factory)
        self.test_cases = _resolve_test_cases(factory, test_cases, config)
        self.specs = list(assertion_specs)
        self.seed = seed if seed is not None else config.seed
        self.config = config
        self._target = _target_label(factory)
        self.goldens = partial(golden_cache.get, self._target, self.factory)
        self.telemetry: Optional[CampaignTelemetry] = None
        self.integrity_violations: List[IntegrityViolation] = []
        #: per-stratum spend reports (adaptive campaigns only).
        self.stratum_reports: List[StratumReport] = []

    def _new_plan(
        self, system, tasks: List[tuple], fingerprint: List[Any], **fields
    ) -> CampaignPlan:
        return CampaignPlan(
            kind=self.kind,
            system=system,
            tasks=tasks,
            rows=[self._row(task) for task in tasks],
            fingerprint=fingerprint,
            one_run=self._one_run,
            **fields,
        )


class _SampledCampaign(_Campaign):
    """A campaign that samples its fault space per stratum: each run
    flips one uniformly drawn bit at one uniformly drawn tick within
    the golden run, cycling over the test cases."""

    def _budget(self, runs: int) -> int:
        """Per-stratum budget: ``max_runs`` caps adaptive campaigns."""
        sampling = self.config.sampling
        if sampling.enabled and sampling.max_runs is not None:
            return sampling.max_runs
        return runs

    def _sample(
        self, strata: Sequence[Tuple[tuple, int]], budget: int
    ) -> Tuple[List[tuple], List[AdaptiveStratum]]:
        """``budget`` tasks ``(*key, test case, tick, bit)`` for each
        ``(key, bit width)`` stratum, and the strata over them.

        The adaptive path draws the identical full-budget list — a
        stopped stratum simply never dispatches its tail.
        """
        rng = random.Random(self.seed)
        # the cases the draw cycles over, each golden run read once
        cases = self.test_cases[:budget]
        ticks = [self.goldens(case).completion_tick for case in cases]
        tasks: List[tuple] = []
        for key, width in strata:
            for run_index in range(budget):
                i = run_index % len(cases)
                tick = rng.randrange(0, ticks[i])
                bit = rng.randrange(0, width)
                tasks.append((*key, cases[i], tick, bit))
        return tasks, [
            AdaptiveStratum(
                label=".".join(key),
                indices=tuple(range(i * budget, (i + 1) * budget)),
            )
            for i, (key, _) in enumerate(strata)
        ]


# ======================================================================
# Permeability estimation (Table 1).
# ======================================================================
@dataclass
class PermeabilityEstimate:
    """Raw counts and derived estimates for all pairs of one system."""

    #: (module, in_port, out_port) -> direct-error count
    direct_counts: Dict[Tuple[str, str, str], int]
    #: (module, in_port) -> active (injected) run count
    active_runs: Dict[Tuple[str, str], int]
    #: (module, in_port, out_port) -> estimated permeability
    values: Dict[Tuple[str, str, str], float]
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def value(self, module: str, in_port: str, out_port: str) -> float:
        try:
            return self.values[(module, in_port, out_port)]
        except KeyError:
            raise CampaignError(
                f"no permeability estimated for "
                f"{module}.{in_port}->{out_port}"
            ) from None


class PermeabilityCampaign(_SampledCampaign):
    """Estimate error permeabilities by module-input fault injection.

    For each module input port, ``runs_per_input`` injection runs are
    performed, cycling over the test cases.  Each run flips one
    uniformly chosen bit of the input value at one uniformly chosen
    invocation within the golden run's duration.  Only *direct* output
    errors are counted (Section 5.3).
    """

    kind = "permeability"

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        runs_per_input: int = 32,
        seed: Optional[int] = None,
        direct_only: bool = True,
        config: Optional[CampaignConfig] = None,
        modules: Optional[Sequence[str]] = None,
    ):
        """*direct_only* selects the paper's accounting (Section 5.3:
        count only direct output errors, excluding errors that left
        through another output and came back).  Setting it to False
        counts every first difference — the ablation of design
        decision D2 in DESIGN.md.

        *modules* restricts injection to the named modules (the
        compositional-reuse path of ``repro.place.cache``: only
        modules whose fingerprint changed are re-injected).  ``None``
        injects every module.  The restriction is part of the campaign
        fingerprint, so restricted and full campaigns never share
        checkpoints."""
        if runs_per_input <= 0:
            raise CampaignError(
                f"runs_per_input must be positive, got {runs_per_input}"
            )
        super().__init__(factory, test_cases, seed, config)
        self.runs_per_input = runs_per_input
        self.direct_only = direct_only
        self.modules = tuple(modules) if modules is not None else None
        self._ff = FastForward(self.factory, self._target, config=self.config)

    def _inputs(self, system) -> List[Tuple[str, str, Tuple[str, ...], int]]:
        """``(module, in_port, out_ports, bit width)`` of every injected
        module input, in draw order (module -> in_port)."""
        if self.modules is not None:
            known = {module.name for module in system.modules()}
            unknown = [m for m in self.modules if m not in known]
            if unknown:
                raise CampaignError(
                    f"unknown modules {unknown}; "
                    f"system has {sorted(known)}"
                )
        return [
            (
                module.name, in_port, tuple(module.outputs),
                system.signal(
                    system.signal_of_input(module.name, in_port)
                ).width,
            )
            for module in system.modules()
            if self.modules is None or module.name in self.modules
            for in_port in module.inputs
        ]

    def _plan(self, system) -> CampaignPlan:
        inputs = self._inputs(system)
        budget = self._budget(self.runs_per_input)
        tasks, strata = self._sample(
            [((module, port), width) for module, port, _, width in inputs],
            budget,
        )
        ports_of = {
            f"{module}.{in_port}": out_ports
            for module, in_port, out_ports, _ in inputs
        }

        def counts_of(stratum, executed):
            active_n = 0
            hits_per_port = {port: 0 for port in ports_of[stratum.label]}
            for hits in executed:
                if hits is None or isinstance(hits, TaskFailure):
                    continue
                active_n += 1
                for out_port in hits:
                    hits_per_port[out_port] += 1
            return {
                port: (count, active_n)
                for port, count in hits_per_port.items()
            }

        fingerprint = [
            self.kind, system.name, self.seed, budget, self.direct_only,
            [case.label for case in self.test_cases],
        ]
        if self.modules is not None:
            fingerprint.append(sorted(self.modules))
        return self._new_plan(
            system, tasks, fingerprint, ff=self._ff,
            batch={"goldens": self.goldens, "direct_only": self.direct_only},
            strata=strata, counts_of=counts_of,
        )

    def _row(self, task: tuple) -> Tuple[TestCase, RowInjection]:
        module, in_port, test_case, from_tick, bit = task
        return test_case, RowInjection(
            kind="arg", tick=from_tick, bit=bit, port=in_port, module=module
        )

    def run(self) -> PermeabilityEstimate:
        return run_campaigns([self])[0]

    def _result(self, plan, observed, failures) -> PermeabilityEstimate:
        direct: Dict[Tuple[str, str, str], int] = {}
        active: Dict[Tuple[str, str], int] = {}
        for module, in_port, out_ports, _ in self._inputs(plan.system):
            active[(module, in_port)] = 0
            for out_port in out_ports:
                direct[(module, in_port, out_port)] = 0
        for (module, in_port, *_), hits in observed:
            if hits is None:
                continue  # the flip never became active
            active[(module, in_port)] += 1
            for out_port in hits:
                direct[(module, in_port, out_port)] += 1
        values = {
            (m, i, k): (
                direct[(m, i, k)] / active[(m, i)] if active[(m, i)] else 0.0
            )
            for (m, i, k) in direct
        }
        return PermeabilityEstimate(
            direct_counts=direct,
            active_runs=active,
            values=values,
            task_failures=failures,
        )

    def _one_run(
        self,
        module: str,
        in_port: str,
        test_case: TestCase,
        from_tick: int,
        bit: int,
        ff: Optional[FastForward] = None,
    ) -> Optional[List[str]]:
        """One injection run; returns output ports hit directly.

        ``None`` means the injection never became active (the flip was
        not applied before the run ended).  *ff* overrides the
        campaign's fast-forward handle (the audit replay passes a
        disabled twin to force a full run from tick 0).
        """
        golden = self.goldens(test_case)
        engine = ff if ff is not None else self._ff
        simulator, _, arm = engine.launch(test_case, from_tick)
        mod = simulator.system.module(module)
        injector = FaultInjector(
            ModuleInputFlip(module, in_port, from_tick, bit)
        ).attach(simulator)
        log = InvocationLog([module]).attach(simulator)
        # a fast-forwarded run never executed the prefix, so seed its
        # log with the golden invocations before the resume tick to
        # keep the lock-step comparison aligned
        log.prime(golden.invocations, simulator.executor.tick)
        arm(injector)
        result = simulator.run()
        if not injector.injected:
            return None
        completed = result.completion_tick
        if (
            completed is not None
            and injector.first_injection_tick is not None
            and injector.first_injection_tick > completed
        ):
            return None
        differences = first_output_differences(
            golden.invocations.stream(module),
            log.stream(module),
            mod.inputs,
            mod.outputs,
            in_port,
        )
        return [
            diff.out_port
            for diff in differences.values()
            if diff.direct or not self.direct_only
        ]


# ======================================================================
# Detection under the input error model (Table 4).
# ======================================================================
@dataclass(frozen=True)
class LatencyStats:
    """Detection-latency summary over a set of detections (in ticks)."""

    count: int
    mean: float
    median: float
    maximum: int

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "LatencyStats":
        if not samples:
            return cls(0, 0.0, 0.0, 0)
        ordered = sorted(samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = float(ordered[mid])
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2.0
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            median=median,
            maximum=ordered[-1],
        )


@dataclass
class DetectionResult:
    """Outcome of one :class:`DetectionCampaign`.

    ``n_err`` counts *active* errors per targeted signal; per-EA
    detections only count firings at or after the injection tick.
    ``run_latencies`` records, for each detecting EA of each active
    run, the detection latency in ticks (first firing minus injection
    tick) — the second axis, besides coverage, on which EDM sets are
    compared in the literature (the paper's reference [18]).
    """

    targets: List[str]
    ea_names: List[str]
    n_injected: Dict[str, int]
    n_err: Dict[str, int]
    #: (target signal, ea name) -> detection count
    detections: Dict[Tuple[str, str], int]
    #: target signal -> runs where at least one EA of the bank fired
    any_detections: Dict[str, int]
    #: target signal -> per-run fired-EA name sets (for set coverages)
    run_records: Dict[str, List[frozenset]]
    #: target signal -> per-run {ea name -> latency in ticks}
    run_latencies: Dict[str, List[Dict[str, int]]] = field(
        default_factory=dict
    )
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def latency_stats(
        self,
        target: Optional[str] = None,
        ea_subset: Optional[Iterable[str]] = None,
    ) -> LatencyStats:
        """Latency of the *first* detection per run, over the chosen
        targets and EA subset."""
        subset = frozenset(ea_subset) if ea_subset is not None else None
        samples: List[int] = []
        targets = [target] if target is not None else self.targets
        for name in targets:
            for per_run in self.run_latencies.get(name, []):
                relevant = [
                    latency
                    for ea, latency in per_run.items()
                    if subset is None or ea in subset
                ]
                if relevant:
                    samples.append(min(relevant))
        return LatencyStats.from_samples(samples)

    def coverage(self, target: str, ea_name: str) -> float:
        n = self.n_err.get(target, 0)
        return self.detections.get((target, ea_name), 0) / n if n else 0.0

    def total_coverage(
        self, target: str, ea_subset: Optional[Iterable[str]] = None
    ) -> float:
        """Combined coverage of an EA subset for one target signal."""
        n = self.n_err.get(target, 0)
        if not n:
            return 0.0
        if ea_subset is None:
            return self.any_detections.get(target, 0) / n
        subset = frozenset(ea_subset)
        hits = sum(
            1 for fired in self.run_records[target] if fired & subset
        )
        return hits / n

    def combined(
        self, ea_subset: Optional[Iterable[str]] = None
    ) -> Dict[str, float]:
        """Per-EA (or subset-total) coverage over *all* targets (row "All")."""
        total_err = sum(self.n_err.values())
        if not total_err:
            return {"total": 0.0}
        if ea_subset is None:
            per_ea = {
                ea: sum(
                    self.detections.get((t, ea), 0) for t in self.targets
                ) / total_err
                for ea in self.ea_names
            }
            per_ea["total"] = (
                sum(self.any_detections.values()) / total_err
            )
            return per_ea
        subset = frozenset(ea_subset)
        hits = sum(
            1
            for target in self.targets
            for fired in self.run_records[target]
            if fired & subset
        )
        return {"total": hits / total_err}


class DetectionCampaign(_SampledCampaign):
    """Measure EA detection coverage for errors at the system inputs.

    Every run: one transient bit flip in one system input signal at a
    uniformly chosen tick within the golden run's duration; the full
    EA bank monitors passively, so any EA-set's coverage can be
    derived from one campaign.
    """

    kind = "detection"

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        assertion_specs: Sequence[AssertionSpec] = (),
        runs_per_signal: int = 80,
        targets: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        config: Optional[CampaignConfig] = None,
    ):
        if runs_per_signal <= 0:
            raise CampaignError(
                f"runs_per_signal must be positive, got {runs_per_signal}"
            )
        super().__init__(factory, test_cases, seed, config, assertion_specs)
        self.runs_per_signal = runs_per_signal
        self.targets = list(targets) if targets is not None else None
        self._ff = FastForward(
            self.factory, self._target, config=self.config,
            bank_specs=self.specs,
        )

    def _targets(self, system) -> List[str]:
        if self.targets is not None:
            return list(self.targets)
        return list(system.system_inputs())

    def _plan(self, system) -> CampaignPlan:
        targets = self._targets(system)
        budget = self._budget(self.runs_per_signal)
        tasks, strata = self._sample(
            [((target,), system.signal(target).width) for target in targets],
            budget,
        )

        def counts_of(stratum, executed):
            # monitored proportion: any-EA detection coverage over
            # the *active* errors (dict outcomes) of the stratum
            active_n = 0
            detected = 0
            for outcome in executed:
                if not isinstance(outcome, dict):
                    continue
                active_n += 1
                if outcome["fired"]:
                    detected += 1
            return {"coverage": (detected, active_n)}

        fingerprint = [
            self.kind, system.name, self.seed, budget, targets,
            [spec.name for spec in self.specs],
            [case.label for case in self.test_cases],
        ]
        return self._new_plan(
            system, tasks, fingerprint, ff=self._ff,
            batch={"specs": self.specs}, strata=strata, counts_of=counts_of,
        )

    def _row(self, task: tuple) -> Tuple[TestCase, RowInjection]:
        target, test_case, tick, bit = task
        return test_case, RowInjection(
            kind="input", tick=tick, bit=bit, signal=target
        )

    def run(self) -> DetectionResult:
        return run_campaigns([self])[0]

    def _result(self, plan, observed, failures) -> DetectionResult:
        targets = self._targets(plan.system)
        n_injected: Dict[str, int] = {t: 0 for t in targets}
        n_err: Dict[str, int] = {t: 0 for t in targets}
        detections: Dict[Tuple[str, str], int] = {}
        any_detections: Dict[str, int] = {t: 0 for t in targets}
        run_records: Dict[str, List[frozenset]] = {t: [] for t in targets}
        run_latencies: Dict[str, List[Dict[str, int]]] = {
            t: [] for t in targets
        }
        for (target, *_), outcome in observed:
            n_injected[target] += 1
            if not isinstance(outcome, dict):
                continue  # "inactive" / "late": injection not an error
            fired = frozenset(outcome["fired"])
            n_err[target] += 1
            run_records[target].append(fired)
            run_latencies[target].append(
                {ea: int(lat) for ea, lat in outcome["latencies"].items()}
            )
            if fired:
                any_detections[target] += 1
            for ea in fired:
                key = (target, ea)
                detections[key] = detections.get(key, 0) + 1
        return DetectionResult(
            targets=targets,
            ea_names=[spec.name for spec in self.specs],
            n_injected=n_injected,
            n_err=n_err,
            detections=detections,
            any_detections=any_detections,
            run_records=run_records,
            run_latencies=run_latencies,
            task_failures=failures,
        )

    def _one_run(
        self,
        target: str,
        test_case: TestCase,
        tick: int,
        bit: int,
        ff: Optional[FastForward] = None,
    ) -> Any:
        """One injection run; JSON-encodable outcome.

        ``"inactive"``: flip never applied; ``"late"``: applied after
        completion (not an error); otherwise a dict with the fired EA
        names and their latencies.  *ff* overrides the campaign's
        fast-forward handle (the audit replay passes a disabled twin).
        """
        engine = ff if ff is not None else self._ff
        simulator, bank, arm = engine.launch(test_case, tick)
        injector = FaultInjector(
            InputSignalFlip(target, tick, bit)
        ).attach(simulator)
        arm(injector)
        result = simulator.run()
        if not injector.injected:
            return "inactive"
        completed = result.completion_tick
        if completed is not None and tick > completed:
            return "late"
        fired = sorted(bank.fired_eas(after_tick=tick))
        latencies: Dict[str, int] = {}
        for ea in fired:
            first = bank.state(ea).first_fire_tick
            if first is not None:
                latencies[ea] = first - tick
        return {"fired": fired, "latencies": latencies}


# ======================================================================
# The harsher, periodic memory error model (Fig. 3).
# ======================================================================
@dataclass(frozen=True)
class CoverageTriple:
    """The paper's Fig. 3 measures for one bar group."""

    c_tot: float
    c_fail: float
    c_nofail: float
    n_runs: int
    n_fail: int


@dataclass
class MemoryRunRecord:
    """One memory-model run: where, what fired, and the verdict."""

    region: Region
    location_label: str
    fired: frozenset
    failed: bool


@dataclass
class MemoryCampaignResult:
    """Outcome of one :class:`MemoryCampaign`."""

    records: List[MemoryRunRecord]
    ea_names: List[str]
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def coverage(
        self,
        ea_subset: Iterable[str],
        region: Optional[Region] = None,
    ) -> CoverageTriple:
        """``c_tot`` / ``c_fail`` / ``c_nofail`` of an EA set.

        With *region* given, restrict to errors injected into that
        area (the RAM / Stack bar groups of Fig. 3); otherwise compute
        the Total group.
        """
        subset = frozenset(ea_subset)
        rows = [
            r for r in self.records
            if region is None or r.region is region
        ]
        if not rows:
            return CoverageTriple(0.0, 0.0, 0.0, 0, 0)
        fail_rows = [r for r in rows if r.failed]
        nofail_rows = [r for r in rows if not r.failed]

        def cov(selection: List[MemoryRunRecord]) -> float:
            if not selection:
                return 0.0
            return sum(1 for r in selection if r.fired & subset) / len(
                selection
            )

        return CoverageTriple(
            c_tot=cov(rows),
            c_fail=cov(fail_rows),
            c_nofail=cov(nofail_rows),
            n_runs=len(rows),
            n_fail=len(fail_rows),
        )


class _MemorySweep(_Campaign):
    """A campaign that enumerates the periodic memory error model's
    fault space: one run per (location, test case) pair, flipping a
    random bit of the location's byte every ``period_ticks`` from a
    random phase.
    """

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]],
        assertion_specs: Sequence[AssertionSpec],
        locations: Optional[Sequence[MemoryLocation]],
        period_ticks: int,
        seed: Optional[int],
        config: Optional[CampaignConfig],
    ):
        super().__init__(factory, test_cases, seed, config, assertion_specs)
        self.period_ticks = period_ticks
        self._locations = list(locations) if locations is not None else None

    def _sweep(self, system) -> Tuple[List[tuple], List[Any]]:
        """The tasks ``(location, test case, bit, phase)`` in legacy
        order (location -> test case), and the fingerprint parts."""
        locations = (
            self._locations
            if self._locations is not None
            else MemoryMap(system).locations()
        )
        rng = random.Random(self.seed)
        tasks: List[tuple] = []
        for location in locations:
            for test_case in self.test_cases:
                bit = rng.randrange(0, location.valid_bits)
                # random phase within the period: the injection train
                # must not be systematically aligned with the slot
                # schedule, or flips into producer-rewritten stores
                # would always be overwritten before anyone reads them
                phase = rng.randrange(0, self.period_ticks)
                tasks.append((location, test_case, bit, phase))
        fingerprint = [
            self.kind, system.name, self.seed, self.period_ticks,
            [spec.name for spec in self.specs],
            [location.label for location in locations],
            [case.label for case in self.test_cases],
        ]
        return tasks, fingerprint

    def _row(self, task: tuple) -> Tuple[TestCase, RowInjection]:
        location, test_case, bit, phase = task
        memory_kind, module, cell, cell_bit = location.vector_descriptor(bit)
        return test_case, RowInjection(
            kind="memory",
            tick=phase,
            bit=cell_bit,
            memory_kind=memory_kind,
            module=module,
            cell=cell,
            period=self.period_ticks,
        )


# ======================================================================
# Recovery (ERM) effectiveness under the memory error model.
# ======================================================================
@dataclass(frozen=True)
class RecoveryOutcome:
    """One location+test-case pair, run twice: detect-only vs wrapped."""

    region: Region
    location_label: str
    detected: bool
    baseline_failed: bool
    recovered_failed: bool
    recovery_actions: int


@dataclass
class RecoveryResult:
    """Outcome of one :class:`RecoveryCampaign`."""

    outcomes: List[RecoveryOutcome]
    #: quarantined runs (empty on a fault-free campaign)
    task_failures: List[TaskFailure] = field(default_factory=list)

    def failure_rate(
        self, with_recovery: bool, region: Optional[Region] = None
    ) -> float:
        rows = [
            o for o in self.outcomes
            if region is None or o.region is region
        ]
        if not rows:
            return 0.0
        failed = sum(
            1 for o in rows
            if (o.recovered_failed if with_recovery else o.baseline_failed)
        )
        return failed / len(rows)

    def failures_prevented(self, region: Optional[Region] = None) -> int:
        return sum(
            1 for o in self.outcomes
            if (region is None or o.region is region)
            and o.baseline_failed
            and not o.recovered_failed
        )

    def failures_introduced(self, region: Optional[Region] = None) -> int:
        """Runs where containment made things worse (possible: a
        recovery substitution is itself a disturbance)."""
        return sum(
            1 for o in self.outcomes
            if (region is None or o.region is region)
            and not o.baseline_failed
            and o.recovered_failed
        )


class RecoveryCampaign(_MemorySweep):
    """Measure the effect of containment wrappers (ERMs) at the
    EA-guarded signals under the harsher error model.

    Each (location, test case) pair runs twice with the identical
    injection train: once with a detect-only bank (the paper's
    experiments) and once with a :class:`RecoveringMonitorBank`; the
    failure verdicts are compared.

    The campaign enumerates its fault space exhaustively (one run per
    pair), so the adaptive-sampling options of
    :class:`~repro.fi.executor.CampaignConfig` do not apply and are
    ignored.
    """

    kind = "recovery"

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        assertion_specs: Sequence[AssertionSpec] = (),
        locations: Optional[Sequence[MemoryLocation]] = None,
        period_ticks: int = DEFAULT_PERIOD_TICKS,
        seed: Optional[int] = None,
        policies=None,
        config: Optional[CampaignConfig] = None,
    ):
        super().__init__(
            factory, test_cases, assertion_specs, locations, period_ticks,
            seed, config,
        )
        self.policies = policies

    def _plan(self, system) -> CampaignPlan:
        tasks, fingerprint = self._sweep(system)
        # no fast-forward (and so no audit replay) here, but the drift
        # sentinel still guards every pool worker
        return self._new_plan(
            system, tasks, fingerprint + [self.policies], ff=None,
            batch={"specs": self.specs, "policies": self.policies},
        )

    def run(self) -> RecoveryResult:
        return run_campaigns([self])[0]

    def _result(self, plan, observed, failures) -> RecoveryResult:
        return RecoveryResult(
            outcomes=[
                RecoveryOutcome(
                    region=location.region,
                    location_label=location.label,
                    detected=bool(outcome["detected"]),
                    baseline_failed=bool(outcome["baseline_failed"]),
                    recovered_failed=bool(outcome["recovered_failed"]),
                    recovery_actions=int(outcome["recovery_actions"]),
                )
                for (location, *_), outcome in observed
                if outcome is not None  # the flip never landed
            ],
            task_failures=failures,
        )

    def _one_run(
        self,
        location: MemoryLocation,
        test_case: TestCase,
        bit: int,
        phase: int,
        ff: Optional[FastForward] = None,
    ) -> Optional[Dict[str, Any]]:
        from repro.edm.recovery import RecoveringMonitorBank

        # no fast-forward here (*ff* is always None): the recovering
        # bank rewrites store values (the run is not a pure function of
        # the golden prefix), and the periodic injection starts within
        # the first period anyway, so there is no redundant prefix to
        # skip
        spec = PeriodicMemoryFlip(
            location, bit,
            period_ticks=self.period_ticks, start_tick=phase,
        )

        baseline_sim = self.factory(test_case)
        baseline_sim.record_traces = False
        baseline_inj = FaultInjector(spec).attach(baseline_sim)
        baseline_bank = MonitorBank(self.specs).attach(baseline_sim)
        baseline = baseline_sim.run()

        wrapped_sim = self.factory(test_case)
        wrapped_sim.record_traces = False
        FaultInjector(spec).attach(wrapped_sim)
        wrapped_bank = RecoveringMonitorBank(
            self.specs, policies=self.policies
        ).attach(wrapped_sim)
        wrapped = wrapped_sim.run()

        if not baseline_inj.injected:
            return None
        return {
            "detected": bool(baseline_bank.fired_eas()),
            "baseline_failed": baseline.verdict.failed,
            "recovered_failed": wrapped.verdict.failed,
            "recovery_actions": wrapped_bank.recovery_count,
        }



class MemoryCampaign(_MemorySweep):
    """Periodic bit flips into RAM and stack locations (Section 7).

    Enumerates (a subset of) the memory map's locations; for each
    location, one run per test case with a random bit of the
    location's byte, flipped every ``period_ticks`` for the entire
    arrestment.  An error is detected if an EA fires at least once
    during the run.

    The campaign enumerates its fault space exhaustively (one run per
    (location, test case) pair), so the adaptive-sampling options of
    :class:`~repro.fi.executor.CampaignConfig` do not apply and are
    ignored.
    """

    kind = "memory"

    def __init__(
        self,
        factory: SimulatorFactory,
        test_cases: Optional[Sequence[TestCase]] = None,
        assertion_specs: Sequence[AssertionSpec] = (),
        locations: Optional[Sequence[MemoryLocation]] = None,
        period_ticks: int = DEFAULT_PERIOD_TICKS,
        seed: Optional[int] = None,
        config: Optional[CampaignConfig] = None,
    ):
        super().__init__(
            factory, test_cases, assertion_specs, locations, period_ticks,
            seed, config,
        )
        # periodic flips never quiesce, so only the prefix before the
        # first period boundary can be skipped; with the default period
        # (20 ticks) every phase lands before the first checkpoint and
        # the engine stays entirely out of the way
        self._ff = FastForward(
            self.factory, self._target, config=self.config,
            bank_specs=self.specs, resync=False,
        )

    def _plan(self, system) -> CampaignPlan:
        tasks, fingerprint = self._sweep(system)
        return self._new_plan(
            system, tasks, fingerprint, ff=self._ff,
            batch={"specs": self.specs},
        )

    def run(self) -> MemoryCampaignResult:
        return run_campaigns([self])[0]

    def _result(self, plan, observed, failures) -> MemoryCampaignResult:
        return MemoryCampaignResult(
            records=[
                MemoryRunRecord(
                    region=location.region,
                    location_label=location.label,
                    fired=frozenset(outcome["fired"]),
                    failed=bool(outcome["failed"]),
                )
                for (location, *_), outcome in observed
                if outcome is not None  # the flip never landed
            ],
            ea_names=[spec.name for spec in self.specs],
            task_failures=failures,
        )

    def _one_run(
        self,
        location: MemoryLocation,
        test_case: TestCase,
        bit: int,
        phase: int,
        ff: Optional[FastForward] = None,
    ) -> Optional[Dict[str, Any]]:
        engine = ff if ff is not None else self._ff
        simulator, bank, _ = engine.launch(test_case, phase)
        injector = FaultInjector(
            PeriodicMemoryFlip(
                location,
                bit,
                period_ticks=self.period_ticks,
                start_tick=phase,
            )
        ).attach(simulator)
        result = simulator.run()
        if not injector.injected:
            return None
        return {
            "fired": sorted(bank.fired_eas()),
            "failed": result.verdict.failed,
        }
