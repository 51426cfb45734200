"""The output oracle, applied to every measured pass.

Each campaign result is identified by
``canonical_digest(result_to_document(result))``.  A pass is correct
when

* every planned task ran and none was quarantined (direct workloads:
  executed == planned; adaptive jobs: no quarantined task, their plan
  equal to the fixed one);
* every digest equals the reference recorded for that campaign seed
  (``references.json``, recorded by ``record_references.py`` with
  scalar and batched execution required to agree);
* every digest equals what earlier runs in the same checkout recorded
  for that seed in the ledger.  ``repro-scalar`` and ``repro-batched``
  share their keys, since fixed-n execution is bit-identical across
  strategies, so on a seed without references scalar <-> batched
  agreement is the oracle; the memory sweep ignores adaptive
  scheduling, so ``service-adaptive`` shares that key too;
* on ``service-adaptive``: all three jobs finished ``done`` and the
  placement is certified optimal and dominates both hand sets.

A failed check counts the affected operations — the planned tasks of
the campaign, plus the job on ``service-adaptive`` — as failed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

#: the job that runs each campaign on ``service-adaptive``
JOB_OF = {
    "permeability": "table1",
    "detection": "table4",
    "memory": "figure3",
}


def load_references(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest_key(workload: str, campaign: str) -> str:
    """The ledger/reference key of one campaign's result."""
    if workload == "service-adaptive" and campaign != "memory":
        return f"adaptive/{campaign}"
    return campaign


class Ledger:
    """Digests seen per (scale, campaign seed) in this checkout."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, scale: str, seed: int) -> str:
        return os.path.join(self.directory, f"{scale}-{seed}.json")

    def load(self, scale: str, seed: int) -> Dict[str, str]:
        try:
            with open(self._path(scale, seed), "r", encoding="utf-8") as h:
                return json.load(h)
        except (OSError, ValueError):
            return {}

    def record(self, scale: str, seed: int, digests: Dict[str, str]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        merged = self.load(scale, seed)
        for key, digest in digests.items():
            merged.setdefault(key, digest)
        staged = self._path(scale, seed) + ".tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1, sort_keys=True)
        os.replace(staged, self._path(scale, seed))


class Verdict:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, planned: Dict[str, int], jobs: int):
        self.planned_per_pass = sum(planned.values())
        self.ops_per_pass = self.planned_per_pass + jobs
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        #: (pass, campaign) pairs already counted as failed
        self._counted: set = set()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, operations: int, problem: str, key=None) -> None:
        """Record *problem*; its *operations* count as failed once per
        *key* (a pass and campaign), however many checks it fails."""
        if key is None or key not in self._counted:
            self.failed += operations
        if key is not None:
            self._counted.add(key)
        self.problems.append(problem)

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(problem)


def check(
    workload: str,
    scale: str,
    seed: int,
    passes: List[Dict[str, Any]],
    references: Dict[str, Any],
    ledger: Ledger,
) -> Verdict:
    """Check every pass of one run; record agreeing digests."""
    plan = references["plan"][scale]
    service = workload == "service-adaptive"
    verdict = Verdict(plan, len(JOB_OF) if service else 0)
    expected: Dict[str, str] = dict(ledger.load(scale, seed))
    reference = references.get("digests", {}).get(scale, {}).get(str(seed))
    if reference is not None:
        expected.update(reference)
    else:
        verdict.notes.append(
            f"no reference digests for {scale} seed {seed}; checked "
            f"against this checkout's ledger only"
        )
    seen: Dict[str, str] = {}
    for index, result in enumerate(passes):
        verdict.attempted += verdict.ops_per_pass
        label = f"pass {index + 1}"
        if service:
            digests = _check_service(result, plan, verdict, index)
        else:
            digests = _check_direct(result, plan, verdict, index)
        for campaign, digest in digests.items():
            key = digest_key(workload, campaign)
            want = expected.get(key, seen.get(key))
            if want is not None and digest != want:
                verdict.fail(
                    plan[campaign] + (1 if service else 0),
                    f"{label}: {key} digest {digest[:12]} != expected "
                    f"{want[:12]}",
                    key=(index, campaign),
                )
            seen[key] = digest
    if verdict.correct:
        missing = [key for key in seen if key not in expected]
        if missing and reference is None:
            verdict.notes.append(f"first digests for {missing} recorded")
        ledger.record(scale, seed, seen)
    return verdict


def _check_direct(result, plan, verdict: Verdict, index: int):
    label = f"pass {index + 1}"
    digests = {}
    for campaign, stats in result["campaigns"].items():
        if stats["planned"] != plan[campaign]:
            verdict.fail(plan[campaign], (
                f"{label}: {campaign} planned {stats['planned']} tasks, "
                f"the fixed plan has {plan[campaign]}"
            ), key=(index, campaign))
        elif stats["executed"] != plan[campaign] or stats["failures"]:
            verdict.fail(plan[campaign], (
                f"{label}: {campaign} executed {stats['executed']}/"
                f"{plan[campaign]} tasks, {stats['failures']} quarantined"
            ), key=(index, campaign))
        digests[campaign] = stats["digest"]
    return digests


def _check_service(result, plan, verdict: Verdict, index: int):
    label = f"pass {index + 1}"
    states = {job["experiment"]: job["state"] for job in result["jobs"]}
    events = result["events"]
    for campaign, experiment in JOB_OF.items():
        state = states.get(experiment)
        stats: Optional[Dict[str, Any]] = events.get(campaign)
        if state != "done":
            problem = f"{label}: job {experiment} ended {state}"
        elif stats is None or stats["planned"] != plan[campaign]:
            problem = (
                f"{label}: job {experiment} planned "
                f"{stats and stats['planned']} tasks, the fixed plan "
                f"has {plan[campaign]}"
            )
        elif stats["failures"]:
            problem = (f"{label}: job {experiment} quarantined "
                       f"{stats['failures']} tasks")
        else:
            continue
        verdict.fail(plan[campaign] + 1, problem, key=(index, campaign))
    placement = result["placement"]
    if not (placement.get("optimal") and placement.get("dominates_all")):
        # placement reads table1's stored run: charged to that job
        verdict.fail(
            plan["permeability"] + 1,
            f"{label}: placement {placement} is not certified optimal "
            f"and dominating both hand sets",
            key=(index, "permeability"),
        )
    return dict(result["digests"])
