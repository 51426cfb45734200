"""Shared context for the paper experiments.

An :class:`ExperimentContext` fixes the target system, the workload
scale (how many test cases, injection runs and memory locations), the
random seed, and the execution options (worker count, checkpointing),
and caches the expensive fault-injection campaigns so that the
analytic experiments (Tables 2, 5, the profiles, the extended
selection) reuse the Table-1 campaign instead of re-running it.

Scales
------
``test``
    Minimal workload for the unit/integration test suite.
``bench``
    Default for the benchmark harness: large enough that the paper's
    qualitative shape is reproduced, small enough to run in minutes.
``full``
    Full-envelope campaigns over all 25 test cases (slowest).

The environment variable ``REPRO_SCALE`` overrides the default scale
used by the benchmarks.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.core.permeability import PermeabilityMatrix
from repro.analysis.estimators import matrix_from_estimate
from repro.errors import ExperimentError
from repro.fi.adaptive import StratumReport
from repro.fi.campaign import (
    DetectionCampaign,
    DetectionResult,
    MemoryCampaign,
    MemoryCampaignResult,
    PermeabilityCampaign,
    PermeabilityEstimate,
    run_campaigns,
)
from repro.fi.executor import CampaignConfig, CampaignTelemetry
from repro.fi.store import SqliteResultStore
from repro.fi.memory import MemoryMap
from repro.model.graph import SignalGraph
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import TestCase
from repro.targets import TargetSystem, get_target

__all__ = ["ScaleConfig", "SCALES", "ExperimentContext", "default_scale"]


@dataclass(frozen=True)
class ScaleConfig:
    """Workload sizing of one scale."""

    name: str
    #: stride over the 25 standard test cases (1 = all)
    test_case_stride: int
    #: permeability campaign: injection runs per module input
    runs_per_input: int
    #: detection campaign: injection runs per system input signal
    runs_per_signal: int
    #: memory campaign: stride over memory locations (1 = all)
    location_stride: int
    #: memory campaign: stride over the context's test cases
    memory_case_stride: int


SCALES: Dict[str, ScaleConfig] = {
    "test": ScaleConfig("test", 12, 6, 10, 9, 3),
    "bench": ScaleConfig("bench", 6, 16, 36, 3, 2),
    "full": ScaleConfig("full", 1, 80, 400, 1, 1),
}


def default_scale() -> str:
    """Scale selected by ``REPRO_SCALE`` (default: ``bench``)."""
    scale = os.environ.get("REPRO_SCALE", "bench")
    if scale not in SCALES:
        raise ExperimentError(
            f"REPRO_SCALE must be one of {sorted(SCALES)}, got {scale!r}"
        )
    return scale


class ExperimentContext:
    """Caches campaigns and derived artefacts for one target + scale
    + seed.

    *target* is a registered target name or a
    :class:`~repro.targets.TargetSystem` (default: the paper's
    arrestment system).  *jobs* > 1 runs the campaigns on a process
    pool; *backend* pins the execution backend (``serial`` or
    ``process``; ``None`` derives it from *jobs*); *checkpoint_dir*
    enables checkpointing of partially completed campaigns into
    ``<checkpoint_dir>/results.db``, and
    *resume* picks existing checkpoints up instead of starting
    fresh.  *event_log* appends a JSONL record of run events (shared
    by all campaigns of the context; each record carries its campaign
    name), and *results_db* archives every finished campaign result
    under ``<run_name>/<campaign>``.

    *options* are execution options by their declared names
    (:data:`~repro.fi.executor.EXECUTION_OPTIONS`: ``retries=2``,
    ``adaptive=True``, ...; ``python -m
    repro.experiments --help`` lists them).  They build the one
    :class:`~repro.fi.executor.CampaignConfig` that every campaign of
    the context runs under.
    """

    def __init__(
        self,
        scale: str = "bench",
        seed: int = 2002,
        target: Union[str, TargetSystem] = "arrestment",
        jobs: int = 1,
        backend: Optional[str] = None,
        resume: bool = False,
        checkpoint_dir: Optional[str] = None,
        event_log: Optional[str] = None,
        results_db: Optional[str] = None,
        run_name: Optional[str] = None,
        **options: Any,
    ):
        if scale not in SCALES:
            raise ExperimentError(
                f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
            )
        self.scale = SCALES[scale]
        self.seed = seed
        self.target: TargetSystem = (
            get_target(target) if isinstance(target, str) else target
        )
        #: the execution config shared by the context's campaigns
        self.config = dataclasses.replace(
            CampaignConfig.from_options(**options),
            seed=seed, jobs=jobs, backend=backend, event_log_path=event_log,
        )
        self.resume = resume
        if resume and checkpoint_dir is None:
            checkpoint_dir = os.path.join(
                ".repro-checkpoints",
                f"{self.target.name}-{self.scale.name}-{seed}",
            )
        self.checkpoint_dir = checkpoint_dir
        self.results_db = results_db
        self.run_name = run_name or (
            f"{self.target.name}-{self.scale.name}-seed{seed}"
        )
        # shadows the class-level staticmethod: campaigns and
        # benchmarks read ``ctx.simulator_factory`` as a plain callable
        self.simulator_factory = self.target.simulator_factory
        self.test_cases: List[TestCase] = list(
            self.target.standard_test_cases()
        )[:: self.scale.test_case_stride]
        #: per-campaign execution telemetry of the campaigns run so far
        self.telemetries: Dict[str, CampaignTelemetry] = {}
        #: per-campaign stratum spend reports (adaptive campaigns only)
        self.stratum_reports: Dict[str, List[StratumReport]] = {}
        #: campaign name -> the result of its one run
        self._results: Dict[str, Any] = {}
        self._matrix: Optional[PermeabilityMatrix] = None
        self._system = None
        self._graph: Optional[SignalGraph] = None

    # ------------------------------------------------------------------
    # Building blocks.
    # ------------------------------------------------------------------
    simulator_factory = staticmethod(ArrestmentSimulator)

    def campaign_config(self, campaign: str) -> CampaignConfig:
        """The shared execution config, checkpointing *campaign* into
        the ``results.db`` database every campaign of the context
        shares."""
        if self.checkpoint_dir is None:
            return self.config
        path = os.path.join(self.checkpoint_dir, "results.db")
        if not self.resume and os.path.exists(path):
            # fresh start requested: drop this campaign's records,
            # keep the rest of the database
            with SqliteResultStore(path) as store:
                store.discard_campaign(campaign)
        return dataclasses.replace(
            self.config,
            checkpoint=dataclasses.replace(self.config.checkpoint, path=path),
        )

    def _save_result(self, campaign: str, result) -> None:
        """Mirror a finished campaign's result into the results
        database (``results_db``) under ``<run_name>/<campaign>``."""
        if self.results_db is None:
            return
        with SqliteResultStore(self.results_db) as store:
            store.save_result(
                result,
                run=f"{self.run_name}/{campaign}",
                meta={
                    "target": self.target.name,
                    "scale": self.scale.name,
                    "seed": self.seed,
                    "adaptive": self.config.sampling.enabled,
                    "campaign": campaign,
                },
            )

    @property
    def system(self):
        if self._system is None:
            self._system = self.simulator_factory(self.test_cases[0]).system
        return self._system

    @property
    def graph(self) -> SignalGraph:
        if self._graph is None:
            self._graph = SignalGraph(self.system)
        return self._graph

    def assertion_specs(self):
        return list(self.target.assertion_specs())

    # ------------------------------------------------------------------
    # Campaign caches.
    # ------------------------------------------------------------------
    def _permeability(self, config: CampaignConfig) -> PermeabilityCampaign:
        return PermeabilityCampaign(
            self.simulator_factory,
            self.test_cases,
            runs_per_input=self.scale.runs_per_input,
            config=config,
        )

    def _detection(self, config: CampaignConfig) -> DetectionCampaign:
        return DetectionCampaign(
            self.simulator_factory,
            self.test_cases,
            self.assertion_specs(),
            runs_per_signal=self.scale.runs_per_signal,
            config=config,
        )

    def _memory(self, config: CampaignConfig) -> MemoryCampaign:
        return MemoryCampaign(
            self.simulator_factory,
            self.test_cases[:: self.scale.memory_case_stride],
            self.assertion_specs(),
            locations=MemoryMap(self.system).locations()[
                :: self.scale.location_stride
            ],
            config=config,
        )

    #: campaign name -> the method building it from its config
    CAMPAIGNS = {
        "permeability": _permeability,
        "detection": _detection,
        "memory": _memory,
    }

    def run_campaigns(self, names: List[str]) -> None:
        """Run the named campaigns that have not run yet, together
        (:func:`~repro.fi.campaign.run_campaigns`: every plan drawn
        first, then one shared batch), and keep each one's result,
        telemetry and stratum reports under its name."""
        pending = [
            name for name in dict.fromkeys(names)
            if name not in self._results
        ]
        campaigns = [
            self.CAMPAIGNS[name](self, self.campaign_config(name))
            for name in pending
        ]
        for name, campaign, result in zip(
            pending, campaigns, run_campaigns(campaigns)
        ):
            self._results[name] = result
            self._save_result(name, result)
            self.telemetries[name] = campaign.telemetry
            if campaign.stratum_reports:
                self.stratum_reports[name] = campaign.stratum_reports

    def permeability_estimate(self) -> PermeabilityEstimate:
        self.run_campaigns(["permeability"])
        return self._results["permeability"]

    def measured_matrix(self) -> PermeabilityMatrix:
        if self._matrix is None:
            self._matrix = matrix_from_estimate(
                self.system, self.permeability_estimate()
            )
        return self._matrix

    def detection_result(self) -> DetectionResult:
        self.run_campaigns(["detection"])
        return self._results["detection"]

    def memory_result(self) -> MemoryCampaignResult:
        self.run_campaigns(["memory"])
        return self._results["memory"]
