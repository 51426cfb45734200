"""Snapshot/fast-forward engine: speedup and bit-identity.

Runs the Table-4 detection campaign with the fast-forward engine off
(full replay from tick 0) and on (golden checkpoints + prefix skip +
resynchronization) at the default stride, asserts the results are
bit-identical, and records the wall-clock speedup to
``BENCH_snapshot.json``.  The >=3x speedup bound is asserted at the
bench and full scales; the smoke scale still verifies identity and
reports the measured ratio.
"""

from __future__ import annotations

import json
import time

from conftest import run_once, strict

from repro.fi.campaign import DetectionCampaign
from repro.fi.executor import CampaignConfig, FastForwardPolicy
from repro.fi.snapshot import DEFAULT_CHECKPOINT_STRIDE, checkpoint_cache


def _campaign(ctx, fast_forward):
    return DetectionCampaign(
        ctx.simulator_factory,
        ctx.test_cases,
        ctx.assertion_specs(),
        runs_per_signal=ctx.scale.runs_per_signal,
        seed=ctx.seed,
        config=CampaignConfig(
            seed=ctx.seed,
            fastforward=FastForwardPolicy(enabled=fast_forward),
        ),
    )


def test_bench_snapshot_fast_forward(benchmark, ctx):
    """Detection campaign, full replay vs fast-forward: identical
    bits, less wall."""
    # warm the golden cache so both timings start from the same place
    goldens = _campaign(ctx, False).goldens
    for test_case in ctx.test_cases:
        goldens.get(test_case)

    # best-of-N on both sides: the speedup bound is about the engine,
    # not about scheduler noise on a shared box
    repeats = 3 if strict(ctx) else 1

    full = None
    full_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = _campaign(ctx, False).run()
        full_s = min(full_s, time.perf_counter() - started)
        assert full is None or result.run_records == full.run_records
        full = result

    def run_fast_forward():
        # cold track cache every repeat: each measurement pays the full
        # track-recording cost a fresh campaign would
        checkpoint_cache.clear()
        campaign = _campaign(ctx, True)
        result = campaign.run()
        return campaign, result

    campaign, fast = run_once(benchmark, run_fast_forward)
    telemetry = campaign.telemetry
    ff_s = telemetry.wall_s
    for _ in range(repeats - 1):
        extra_campaign, extra = run_fast_forward()
        assert extra.run_records == fast.run_records
        ff_s = min(ff_s, extra_campaign.telemetry.wall_s)
    speedup = full_s / ff_s if ff_s > 0 else 0.0

    print()
    print(f"snapshot bench (stride {DEFAULT_CHECKPOINT_STRIDE}, "
          f"scale {ctx.scale.name})")
    print(f"  full replay : {full_s:.2f} s")
    print(f"  fast-forward: {ff_s:.2f} s "
          f"({telemetry.counts['ff_ticks_skipped']} ticks saved, "
          f"{telemetry.counts['ff_restores']} restores, "
          f"{telemetry.counts['ff_resyncs']} resyncs, "
          f"{telemetry.counts['ff_tracks_recorded']} tracks)")
    print(f"  speedup     : {speedup:.2f}x")

    # the core contract holds at any scale: bit-identical results
    assert fast.n_injected == full.n_injected
    assert fast.n_err == full.n_err
    assert fast.detections == full.detections
    assert fast.run_records == full.run_records
    assert fast.run_latencies == full.run_latencies
    assert telemetry.counts["ff_ticks_skipped"] > 0

    with open("BENCH_snapshot.json", "w") as handle:
        json.dump(
            {
                "campaign": "detection",
                "scale": ctx.scale.name,
                "checkpoint_stride": DEFAULT_CHECKPOINT_STRIDE,
                "full_replay_s": round(full_s, 3),
                "fast_forward_s": round(ff_s, 3),
                "speedup": round(speedup, 2),
                "bit_identical": True,
                "ff_ticks_saved": telemetry.counts["ff_ticks_skipped"],
                "ff_restores": telemetry.counts["ff_restores"],
                "ff_resyncs": telemetry.counts["ff_resyncs"],
                "ff_tracks": telemetry.counts["ff_tracks_recorded"],
            },
            handle,
            indent=2,
        )

    # the throughput bound needs enough runs to amortize track
    # recording, and a full-replay baseline long enough that the ratio
    # is not dominated by timing jitter on a loaded CI box
    if strict(ctx) and full_s >= 1.0:
        assert speedup >= 3.0, (
            f"expected >=3x fast-forward speedup at stride "
            f"{DEFAULT_CHECKPOINT_STRIDE}, measured {speedup:.2f}x"
        )
    else:
        print(f"  (speedup bound not asserted: scale {ctx.scale.name}, "
              f"baseline {full_s:.2f} s)")
