"""FastFlip-style compositional permeability cache.

The permeability campaign's strata are per-module: an injection run
flips a bit of one module-input value and compares that module's
invocation stream against the golden run.  The per-module stratum
counts are therefore *compositional* — re-estimating one module never
changes another module's counts — which is the FastFlip observation
(PAPERS.md): cache per-module propagation results keyed by a
**module fingerprint** (the module's interface/state shape plus the
campaign parameters), and after a change re-inject *only* the modules
whose fingerprint moved.

:func:`cached_estimate` is the entry point ``repro place`` solves
over: it looks every module up in a :class:`PlacementCache`, runs one
restricted :class:`~repro.fi.campaign.PermeabilityCampaign` for the
misses (through the ordinary ``CampaignExecutor``/adaptive-sampler
stack via ``config=``), stores the fresh per-module counts, and
merges hits and misses into a single
:class:`~repro.fi.campaign.PermeabilityEstimate` that is
bit-identical to what an uncached full campaign with the same seed
would have produced.

The cache entries are campaign results, so they live beside the
estimates they cache: in the ``module_estimates`` table of a results
database (:class:`~repro.fi.store.SqliteResultStore`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PlacementError
from repro.fi.campaign import PermeabilityCampaign, PermeabilityEstimate
from repro.fi.store import SqliteResultStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheTelemetry",
    "PlacementCache",
    "module_fingerprint",
    "system_fingerprints",
    "cached_estimate",
]

#: bumped when the payload layout changes; part of every fingerprint.
CACHE_SCHEMA_VERSION = 1


# ======================================================================
# Fingerprints.
# ======================================================================
def module_fingerprint(
    system,
    module_name: str,
    *,
    seed,
    runs_per_input: int,
    direct_only: bool,
    case_labels: Sequence[str],
    salt: Optional[str] = None,
    extra: Optional[str] = None,
) -> str:
    """Content fingerprint of one module's campaign contribution.

    Hashes the module's observable interface (ports, wired signals
    with their types and widths, state and local cell shapes) together
    with every campaign parameter that shapes its stratum counts.
    *salt* lets callers force an invalidation (a stand-in for source
    revisions the model layer cannot see); *extra* folds in execution
    settings such as the adaptive-sampling policy.
    """
    module = system.module(module_name)
    ports = []
    for port in module.inputs:
        signal = system.signal_of_input(module_name, port)
        spec = system.signal(signal)
        ports.append(["in", port, signal, spec.sig_type.value, spec.width])
    for port in module.outputs:
        signal = system.signal_of_output(module_name, port)
        spec = system.signal(signal)
        ports.append(["out", port, signal, spec.sig_type.value, spec.width])
    cells = [
        ["state", spec.name, spec.cell_type.value, spec.width]
        for spec in module.state.specs()
    ] + [
        ["local", spec.name, spec.cell_type.value, spec.width]
        for spec in module.local_specs
    ]
    blob = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "system": system.name,
            "module": module_name,
            "ports": ports,
            "cells": cells,
            "seed": seed,
            "runs_per_input": runs_per_input,
            "direct_only": direct_only,
            "cases": list(case_labels),
            "salt": salt,
            "extra": extra,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def system_fingerprints(
    system,
    *,
    seed,
    runs_per_input: int,
    direct_only: bool,
    case_labels: Sequence[str],
    salts: Optional[Mapping[str, str]] = None,
    extra: Optional[str] = None,
) -> Dict[str, str]:
    """Fingerprint of every module of *system* (module -> hash)."""
    salts = dict(salts or {})
    known = {module.name for module in system.modules()}
    unknown = sorted(set(salts) - known)
    if unknown:
        raise PlacementError(
            f"salts name unknown modules {unknown}; "
            f"system has {sorted(known)}"
        )
    return {
        module.name: module_fingerprint(
            system,
            module.name,
            seed=seed,
            runs_per_input=runs_per_input,
            direct_only=direct_only,
            case_labels=case_labels,
            salt=salts.get(module.name),
            extra=extra,
        )
        for module in system.modules()
    }


# ======================================================================
# The cache store.
# ======================================================================
class PlacementCache:
    """Per-module stratum counts in the ``module_estimates`` table of
    the results database at *path*."""

    def __init__(self, path: str):
        self.path = path
        self._store = SqliteResultStore(path)

    def lookup(self, module: str, fingerprint: str) -> Optional[Dict]:
        """The cached payload for *module*, or ``None`` when absent or
        stored under a different fingerprint (stale)."""
        row = self._store.connection.execute(
            "SELECT fingerprint, payload FROM module_estimates"
            " WHERE module = ?",
            (module,),
        ).fetchone()
        if row is None or row[0] != fingerprint:
            return None
        return json.loads(row[1])

    def store(self, module: str, fingerprint: str, payload: Dict) -> None:
        conn = self._store.connection
        conn.execute(
            "INSERT INTO module_estimates (module, fingerprint, payload)"
            " VALUES (?, ?, ?)"
            " ON CONFLICT(module) DO UPDATE SET"
            " fingerprint = excluded.fingerprint,"
            " payload = excluded.payload",
            (module, fingerprint, json.dumps(payload, sort_keys=True)),
        )
        conn.commit()

    def modules(self) -> List[str]:
        rows = self._store.connection.execute(
            "SELECT module FROM module_estimates ORDER BY module"
        ).fetchall()
        return [row[0] for row in rows]

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "PlacementCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ======================================================================
# Cache-aware estimation.
# ======================================================================
@dataclass(frozen=True)
class CacheTelemetry:
    """What one :func:`cached_estimate` call reused vs re-injected."""

    hits: Tuple[str, ...]  #: modules answered from the cache
    misses: Tuple[str, ...]  #: modules re-injected this call

    def describe(self) -> str:
        return (
            f"cache: hits={len(self.hits)} "
            f"misses={len(self.misses)}"
            + (f" reinjected={','.join(self.misses)}" if self.misses else "")
        )


def _module_payload(estimate: PermeabilityEstimate, module: str) -> Dict:
    """The per-module slice of an estimate, in a json-stable shape."""
    active = [
        {"in": in_port, "runs": runs}
        for (m, in_port), runs in sorted(estimate.active_runs.items())
        if m == module
    ]
    counts = [
        {"in": in_port, "out": out_port, "count": count}
        for (m, in_port, out_port), count in sorted(
            estimate.direct_counts.items()
        )
        if m == module
    ]
    return {"active": active, "counts": counts}


def _merge_payloads(
    system, payloads: Mapping[str, Dict], failures
) -> PermeabilityEstimate:
    direct: Dict[Tuple[str, str, str], int] = {}
    active: Dict[Tuple[str, str], int] = {}
    values: Dict[Tuple[str, str, str], float] = {}
    for module in system.modules():
        payload = payloads[module.name]
        for rec in payload["active"]:
            active[(module.name, rec["in"])] = int(rec["runs"])
        for rec in payload["counts"]:
            key = (module.name, rec["in"], rec["out"])
            direct[key] = int(rec["count"])
            runs = active.get((module.name, rec["in"]), 0)
            values[key] = direct[key] / runs if runs else 0.0
    return PermeabilityEstimate(
        direct_counts=direct,
        active_runs=active,
        values=values,
        task_failures=list(failures),
    )


def cached_estimate(
    factory,
    test_cases: Sequence,
    cache: PlacementCache,
    *,
    runs_per_input: int,
    seed,
    direct_only: bool = True,
    config=None,
    salts: Optional[Mapping[str, str]] = None,
    invalidate: Sequence[str] = (),
) -> Tuple[PermeabilityEstimate, CacheTelemetry]:
    """A full-system permeability estimate through the cache.

    Modules whose fingerprint matches a cache entry are answered from
    the stored counts; the rest are measured by one restricted
    :class:`PermeabilityCampaign` (``modules=missing``) and stored.
    With an empty cache this produces exactly the counts a full
    uncached campaign with the same seed yields, because the module
    iteration (and thus the RNG draw order) is the system order
    either way.

    *salts* folds per-module revision tokens into the fingerprints
    (a changed salt is a changed module); *invalidate* instead forces
    the named modules to miss once — they are re-injected and stored
    back under their ordinary fingerprint.
    """
    resolved = getattr(factory, "simulator_factory", factory)
    system = resolved(test_cases[0]).system
    extra = None
    if config is not None and config.sampling.enabled:
        extra = f"adaptive:max_runs={config.sampling.max_runs}"
    fingerprints = system_fingerprints(
        system,
        seed=seed,
        runs_per_input=runs_per_input,
        direct_only=direct_only,
        case_labels=[case.label for case in test_cases],
        salts=salts,
        extra=extra,
    )
    forced = set(invalidate)
    unknown = sorted(forced - set(fingerprints))
    if unknown:
        raise PlacementError(
            f"cannot invalidate unknown modules {unknown}; "
            f"system has {sorted(fingerprints)}"
        )
    payloads: Dict[str, Dict] = {}
    hits: List[str] = []
    misses: List[str] = []
    for module in system.modules():
        if module.name in forced:
            misses.append(module.name)
            continue
        payload = cache.lookup(module.name, fingerprints[module.name])
        if payload is None:
            misses.append(module.name)
        else:
            hits.append(module.name)
            payloads[module.name] = payload
    failures = []
    if misses:
        campaign = PermeabilityCampaign(
            factory,
            test_cases,
            runs_per_input=runs_per_input,
            seed=seed,
            direct_only=direct_only,
            config=config,
            modules=misses,
        )
        fresh = campaign.run()
        failures = list(fresh.task_failures)
        for name in misses:
            payload = _module_payload(fresh, name)
            cache.store(name, fingerprints[name], payload)
            payloads[name] = payload
    estimate = _merge_payloads(system, payloads, failures)
    telemetry = CacheTelemetry(
        hits=tuple(sorted(hits)),
        misses=tuple(sorted(misses)),
    )
    return estimate, telemetry
