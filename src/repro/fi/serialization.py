"""Persistence of campaign results.

Fault-injection campaigns are the expensive part of the workflow; the
analyses downstream of them are cheap.  This module serializes the
three campaign result types to plain JSON-compatible dictionaries (and
files) so that a campaign run once — possibly on another machine —
can feed any number of later analyses.

The format is versioned; loading rejects unknown versions rather than
guessing.  Every saved envelope carries a canonical content digest
(:func:`~repro.fi.integrity.canonical_digest`);
:func:`document_to_result` re-verifies it and raises :class:`~repro.errors.IntegrityError` on a
mismatch, so a campaign file corrupted at rest (bit rot, truncated
copy, hand edit) is detected instead of silently feeding wrong numbers
into the analyses.  Files written before digests existed load
unverified.
"""

from __future__ import annotations

import json
from typing import Dict, List, Union

from repro.errors import CampaignError, IntegrityError
from repro.fi.adaptive import StratumReport
from repro.fi.integrity import canonical_digest
from repro.fi.campaign import (
    DetectionResult,
    MemoryCampaignResult,
    MemoryRunRecord,
    PermeabilityEstimate,
)
from repro.fi.memory import Region

__all__ = [
    "FORMAT_VERSION",
    "permeability_to_dict",
    "permeability_from_dict",
    "detection_to_dict",
    "detection_from_dict",
    "memory_to_dict",
    "memory_from_dict",
    "stratum_reports_to_dict",
    "stratum_reports_from_dict",
    "result_to_document",
    "document_to_result",
]

FORMAT_VERSION = 1

_KIND_PERMEABILITY = "permeability_estimate"
_KIND_DETECTION = "detection_result"
_KIND_MEMORY = "memory_campaign_result"


def _envelope(kind: str, payload: dict) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind, **payload}


def _check(data: dict, kind: str) -> None:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise CampaignError(
            f"unsupported campaign-file format version {version!r} "
            f"(supported: {FORMAT_VERSION})"
        )
    if data.get("kind") != kind:
        raise CampaignError(
            f"campaign file holds a {data.get('kind')!r}, expected {kind!r}"
        )


# ----------------------------------------------------------------------
# PermeabilityEstimate.
# ----------------------------------------------------------------------
def permeability_to_dict(estimate: PermeabilityEstimate) -> dict:
    return _envelope(
        _KIND_PERMEABILITY,
        {
            "direct_counts": [
                {"module": m, "in_port": i, "out_port": k, "count": c}
                for (m, i, k), c in estimate.direct_counts.items()
            ],
            "active_runs": [
                {"module": m, "in_port": i, "runs": n}
                for (m, i), n in estimate.active_runs.items()
            ],
        },
    )


def permeability_from_dict(data: dict) -> PermeabilityEstimate:
    _check(data, _KIND_PERMEABILITY)
    direct = {
        (row["module"], row["in_port"], row["out_port"]): row["count"]
        for row in data["direct_counts"]
    }
    active = {
        (row["module"], row["in_port"]): row["runs"]
        for row in data["active_runs"]
    }
    values = {
        (m, i, k): (direct[(m, i, k)] / active[(m, i)] if active[(m, i)] else 0.0)
        for (m, i, k) in direct
    }
    return PermeabilityEstimate(
        direct_counts=direct, active_runs=active, values=values
    )


# ----------------------------------------------------------------------
# DetectionResult.
# ----------------------------------------------------------------------
def detection_to_dict(result: DetectionResult) -> dict:
    return _envelope(
        _KIND_DETECTION,
        {
            "targets": result.targets,
            "ea_names": result.ea_names,
            "n_injected": result.n_injected,
            "n_err": result.n_err,
            "detections": [
                {"target": t, "ea": ea, "count": c}
                for (t, ea), c in result.detections.items()
            ],
            "any_detections": result.any_detections,
            "run_records": {
                target: [sorted(fired) for fired in records]
                for target, records in result.run_records.items()
            },
            "run_latencies": result.run_latencies,
        },
    )


def detection_from_dict(data: dict) -> DetectionResult:
    _check(data, _KIND_DETECTION)
    return DetectionResult(
        targets=list(data["targets"]),
        ea_names=list(data["ea_names"]),
        n_injected=dict(data["n_injected"]),
        n_err=dict(data["n_err"]),
        detections={
            (row["target"], row["ea"]): row["count"]
            for row in data["detections"]
        },
        any_detections=dict(data["any_detections"]),
        run_records={
            target: [frozenset(fired) for fired in records]
            for target, records in data["run_records"].items()
        },
        run_latencies={
            target: [dict(per_run) for per_run in records]
            for target, records in data.get("run_latencies", {}).items()
        },
    )


# ----------------------------------------------------------------------
# MemoryCampaignResult.
# ----------------------------------------------------------------------
def memory_to_dict(result: MemoryCampaignResult) -> dict:
    return _envelope(
        _KIND_MEMORY,
        {
            "ea_names": result.ea_names,
            "records": [
                {
                    "region": record.region.value,
                    "location": record.location_label,
                    "fired": sorted(record.fired),
                    "failed": record.failed,
                }
                for record in result.records
            ],
        },
    )


def memory_from_dict(data: dict) -> MemoryCampaignResult:
    _check(data, _KIND_MEMORY)
    return MemoryCampaignResult(
        ea_names=list(data["ea_names"]),
        records=[
            MemoryRunRecord(
                region=Region(row["region"]),
                location_label=row["location"],
                fired=frozenset(row["fired"]),
                failed=row["failed"],
            )
            for row in data["records"]
        ],
    )


# ----------------------------------------------------------------------
# Adaptive stratum reports (spend accounting, not campaign results).
# ----------------------------------------------------------------------
def stratum_reports_to_dict(reports: List[StratumReport]) -> dict:
    """JSON-encodable summary of an adaptive campaign's spend.

    Not a campaign-result kind (no :func:`result_to_document`
    envelope): the reports describe how the budget was spent, not what
    was measured, and ride along inside benchmark/telemetry artefacts.
    """
    return {
        "strata": [report.to_json() for report in reports],
        "budget": sum(report.budget for report in reports),
        "spent": sum(report.spent for report in reports),
        "saved": sum(report.saved for report in reports),
    }


def stratum_reports_from_dict(data: dict) -> List[StratumReport]:
    return [
        StratumReport(
            label=row["label"],
            budget=row["budget"],
            spent=row["spent"],
            stop_reason=row["stop_reason"],
            counts={
                name: (pair[0], pair[1])
                for name, pair in row.get("counts", {}).items()
            },
            decisions=dict(row.get("decisions", {})),
        )
        for row in data["strata"]
    ]


# ----------------------------------------------------------------------
# Files.
# ----------------------------------------------------------------------
_TO_DICT = {
    PermeabilityEstimate: permeability_to_dict,
    DetectionResult: detection_to_dict,
    MemoryCampaignResult: memory_to_dict,
}
_FROM_DICT = {
    _KIND_PERMEABILITY: permeability_from_dict,
    _KIND_DETECTION: detection_from_dict,
    _KIND_MEMORY: memory_from_dict,
}

AnyResult = Union[PermeabilityEstimate, DetectionResult, MemoryCampaignResult]


def result_to_document(result: AnyResult) -> dict:
    """The digest-stamped JSON envelope of a campaign result.

    This is the persistence format of saved results in
    :class:`~repro.fi.store.SqliteResultStore`: the envelope gains
    a ``digest`` field — the canonical content digest of everything
    else in it — which :func:`document_to_result` re-verifies.
    """
    converter = _TO_DICT.get(type(result))
    if converter is None:
        raise CampaignError(
            f"cannot serialize a {type(result).__name__}"
        )
    data = converter(result)
    data["digest"] = canonical_digest(data)
    return data


def document_to_result(data: dict, source: str = "<document>") -> AnyResult:
    """Decode (and digest-verify) a result envelope.

    *source* names the document's origin in error messages.  Raises
    :class:`~repro.errors.IntegrityError` when the content does not
    match its stored digest; envelopes saved before digests existed
    (no ``digest`` field) load unverified.
    """
    data = dict(data)
    stored = data.pop("digest", None)
    if stored is not None:
        computed = canonical_digest(data)
        if computed != stored:
            raise IntegrityError(
                f"campaign file {source} failed verification: stored "
                f"digest {str(stored)[:16]}… does not match content "
                f"digest {computed[:16]}… — the file was modified or "
                f"corrupted after it was saved"
            )
    loader = _FROM_DICT.get(data.get("kind"))
    if loader is None:
        raise CampaignError(
            f"campaign file has unknown kind {data.get('kind')!r}"
        )
    return loader(data)
