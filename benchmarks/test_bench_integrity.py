"""Result-integrity layer: audit overhead and bit-identity.

Runs the Table-4 detection campaign three ways — full replay,
fast-forward, and fast-forward with a 10% strict audit sample — and
asserts all three produce bit-identical results.  Records the cost of
auditing to ``BENCH_integrity.json``: the audit overhead must stay
under 25% of the fast-forward win (the paper-harness contract: cheap
enough to leave on), asserted at the bench and full scales.
"""

from __future__ import annotations

import json
import time

from conftest import run_once, strict

from repro.fi.campaign import DetectionCampaign
from repro.fi.executor import (
    CampaignConfig,
    FastForwardPolicy,
    IntegrityPolicy,
)
from repro.fi.snapshot import checkpoint_cache

AUDIT_FRACTION = 0.1


def _campaign(ctx, fast_forward, audit_fraction=0.0):
    return DetectionCampaign(
        ctx.simulator_factory,
        ctx.test_cases,
        ctx.assertion_specs(),
        runs_per_signal=ctx.scale.runs_per_signal,
        seed=ctx.seed,
        config=CampaignConfig(
            seed=ctx.seed,
            fastforward=FastForwardPolicy(enabled=fast_forward),
            integrity=IntegrityPolicy(
                policy="strict", audit_fraction=audit_fraction
            ),
        ),
    )


def test_bench_integrity_audit_overhead(benchmark, ctx):
    """Sampled strict auditing: bit-identical, cheap relative to the
    fast-forward win it safeguards."""
    # warm the golden cache so all timings start from the same place
    goldens = _campaign(ctx, False).goldens
    for test_case in ctx.test_cases:
        goldens.get(test_case)

    repeats = 3 if strict(ctx) else 1

    full = None
    full_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = _campaign(ctx, False).run()
        full_s = min(full_s, time.perf_counter() - started)
        full = result

    def timed(audit_fraction):
        best = None
        best_s = float("inf")
        for _ in range(repeats):
            # cold track cache every repeat, as a fresh campaign would be
            checkpoint_cache.clear()
            campaign = _campaign(ctx, True, audit_fraction)
            result = campaign.run()
            if campaign.telemetry.wall_s < best_s:
                best_s = campaign.telemetry.wall_s
                best = (campaign, result)
        return best[0], best[1], best_s

    _, fast, ff_s = timed(0.0)

    def run_audited():
        return timed(AUDIT_FRACTION)

    audited_campaign, audited, audited_s = run_once(benchmark, run_audited)
    telemetry = audited_campaign.telemetry

    win = full_s - ff_s
    overhead = audited_s - ff_s
    ratio = overhead / win if win > 0 else float("inf")

    print()
    print(f"integrity bench (audit fraction {AUDIT_FRACTION}, "
          f"policy strict, scale {ctx.scale.name})")
    print(f"  full replay   : {full_s:.2f} s")
    print(f"  fast-forward  : {ff_s:.2f} s (win {win:.2f} s)")
    print(f"  ff + audit    : {audited_s:.2f} s "
          f"({telemetry.counts['audits']} audits, "
          f"{telemetry.counts['audit_mismatches']} mismatches)")
    print(f"  overhead      : {overhead:.2f} s "
          f"({ratio:.0%} of the ff win)")

    # the core contract holds at any scale: a strict audited campaign
    # neither perturbs the results nor trips on honest fast-forwarding
    for other in (fast, audited):
        assert other.n_injected == full.n_injected
        assert other.n_err == full.n_err
        assert other.detections == full.detections
        assert other.run_records == full.run_records
        assert other.run_latencies == full.run_latencies
    assert telemetry.counts["audit_mismatches"] == 0
    assert telemetry.counts["audits"] > 0

    with open("BENCH_integrity.json", "w") as handle:
        json.dump(
            {
                "campaign": "detection",
                "scale": ctx.scale.name,
                "audit_fraction": AUDIT_FRACTION,
                "integrity_policy": "strict",
                "full_replay_s": round(full_s, 3),
                "fast_forward_s": round(ff_s, 3),
                "audited_s": round(audited_s, 3),
                "ff_win_s": round(win, 3),
                "audit_overhead_s": round(overhead, 3),
                "overhead_over_win": round(ratio, 3),
                "audits": telemetry.counts["audits"],
                "audit_mismatches": telemetry.counts["audit_mismatches"],
                "bit_identical": True,
            },
            handle,
            indent=2,
        )

    # overhead bound: sampling 10% of the runs must cost well under
    # the win fast-forwarding brings (needs enough runs to average
    # out).  Guard against scheduler jitter: with a sub-second win the
    # ratio is dominated by timing noise, so the bound only applies
    # once the win is comfortably measurable, and the overhead gets an
    # absolute floor so a noisy-but-tiny overhead cannot fail it.
    if strict(ctx) and win >= 1.0:
        assert overhead <= max(0.25 * win, 0.25), (
            f"audit overhead {overhead:.2f} s exceeds 25% of the "
            f"fast-forward win {win:.2f} s"
        )
    else:
        print(f"  (overhead bound not asserted: scale {ctx.scale.name}, "
              f"win {win:.2f} s)")
