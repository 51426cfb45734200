"""Vectorized batch core: speedup and bit-identity.

Runs water-tank detection and memory campaigns (full 6000-tick
missions, no fast-forward, so the baseline is an honest serial full
replay) and the arrestment permeability campaign (against scalar
fast-forward, the best scalar path) with ``batch_width`` off and on,
asserts the results are bit-identical on the serial *and* process
backends, and records the wall-clock speedups to
``BENCH_vector.json`` (one entry per campaign).  The >=10x
(detection), >=5x (memory) and >=2x (permeability) speedup bounds are
asserted at the bench and full scales; the smoke scale still verifies
identity and reports the measured ratios.
"""

from __future__ import annotations

import json
import os
import time

from conftest import run_once, strict

from repro.fi.campaign import (
    DetectionCampaign,
    MemoryCampaign,
    PermeabilityCampaign,
)
from repro.fi.executor import (
    CampaignConfig,
    FastForwardPolicy,
    VectorPolicy,
)
from repro.fi.memory import MemoryMap
from repro.watertank.catalogue import tank_assertions
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases

BATCH_WIDTH = 256
# the memory sweep batches every (location, case) row of the
# enumerative fault space into one cross-case group; a width above the
# row count keeps the whole sweep in a single fat group
MEM_BATCH_WIDTH = 512
#: ROADMAP's aim for batched permeability over scalar fast-forward;
#: reported, not asserted (the asserted bound is 2x)
PERM_TARGET_SPEEDUP = 3.0


def _factory(test_case):
    return WaterTankSimulator(test_case)


def _config(ctx, batch_width, backend="serial", jobs=1):
    return CampaignConfig(
        seed=ctx.seed,
        backend=backend,
        jobs=jobs,
        # an honest full-replay baseline: fast-forward off on
        # both sides, so the ratio isolates the vectorized core
        fastforward=FastForwardPolicy(enabled=False),
        vector=VectorPolicy(batch_width=batch_width),
    )


def _campaign(ctx, batch_width, backend="serial", jobs=1):
    runs = ctx.scale.runs_per_signal
    return DetectionCampaign(
        _factory,
        standard_tank_cases()[:3],
        tank_assertions(),
        runs_per_signal=max(runs, 8),
        seed=ctx.seed,
        config=_config(ctx, batch_width, backend, jobs),
    )


def _mem_campaign(ctx, batch_width, locations, backend="serial", jobs=1):
    return MemoryCampaign(
        _factory,
        standard_tank_cases()[:3],
        tank_assertions(),
        locations=locations,
        seed=ctx.seed,
        config=_config(ctx, batch_width, backend, jobs),
    )


def _digest(result):
    return (
        result.n_injected,
        result.n_err,
        result.detections,
        result.run_records,
        result.run_latencies,
    )


def _mem_digest(result):
    return [
        (rec.region, rec.location_label, tuple(sorted(rec.fired)),
         rec.failed)
        for rec in result.records
    ]


def _record_bench(entry, payload):
    """Merge one campaign's entry into ``BENCH_vector.json`` so the
    detection and memory benches survive in any test order."""
    data = {}
    if os.path.exists("BENCH_vector.json"):
        try:
            with open("BENCH_vector.json") as handle:
                loaded = json.load(handle)
        except (OSError, ValueError):
            loaded = None
        if isinstance(loaded, dict) and all(
            isinstance(value, dict) for value in loaded.values()
        ):
            data = loaded
    data[entry] = payload
    with open("BENCH_vector.json", "w") as handle:
        json.dump(data, handle, indent=2)


def test_bench_vector_batch(benchmark, ctx):
    """Detection campaign, scalar vs vectorized: identical bits on
    both backends, an order of magnitude less wall."""
    # warm the golden cache so both timings start from the same place
    goldens = _campaign(ctx, 0).goldens
    for test_case in standard_tank_cases()[:3]:
        goldens.get(test_case)

    started = time.perf_counter()
    scalar = _campaign(ctx, 0).run()
    scalar_s = time.perf_counter() - started

    def run_batched():
        campaign = _campaign(ctx, BATCH_WIDTH)
        return campaign, campaign.run()

    campaign, batched = run_once(benchmark, run_batched)
    telemetry = campaign.telemetry
    counts = telemetry.counts
    batched_s = telemetry.wall_s
    speedup = scalar_s / batched_s if batched_s > 0 else 0.0

    # bit-identity, serial backend
    assert _digest(batched) == _digest(scalar)
    assert counts["vec_rows"] > 0
    assert counts["vec_batched_ticks"] > 0

    # bit-identity, process backend (groups computed whole in workers)
    pool_campaign = _campaign(ctx, BATCH_WIDTH, backend="process", jobs=2)
    pooled = pool_campaign.run()
    assert _digest(pooled) == _digest(scalar)
    assert pool_campaign.telemetry.counts["vec_rows"] > 0

    print()
    print(f"vector bench (batch width {BATCH_WIDTH}, "
          f"scale {ctx.scale.name})")
    print(f"  scalar full replay: {scalar_s:.2f} s")
    print(f"  vectorized        : {batched_s:.2f} s "
          f"({counts['vec_rows']} rows in {counts['vec_groups']} groups, "
          f"{counts['vec_batched_ticks']} batched ticks, "
          f"{counts['vec_retired_rows']} retired)")
    print(f"  speedup           : {speedup:.2f}x")

    _record_bench(
        "detection",
        {
            "campaign": "detection",
            "target": "watertank",
            "scale": ctx.scale.name,
            "batch_width": BATCH_WIDTH,
            "scalar_full_replay_s": round(scalar_s, 3),
            "vectorized_s": round(batched_s, 3),
            "speedup": round(speedup, 2),
            "bit_identical_serial": True,
            "bit_identical_process": True,
            "vec_rows": counts["vec_rows"],
            "vec_groups": counts["vec_groups"],
            "vec_batched_ticks": counts["vec_batched_ticks"],
            "vec_retired_rows": counts["vec_retired_rows"],
            "vec_occupancy": round(telemetry.vec_occupancy, 3),
            "vec_cross_case_groups": counts["vec_cross_case_groups"],
        },
    )

    # the throughput bound needs a baseline long enough that the
    # ratio is not dominated by timing jitter on a loaded CI box
    if strict(ctx) and scalar_s >= 1.0:
        assert speedup >= 10.0, (
            f"expected >=10x vectorized speedup at batch width "
            f"{BATCH_WIDTH}, measured {speedup:.2f}x"
        )
    else:
        print(f"  (speedup bound not asserted: scale {ctx.scale.name}, "
              f"baseline {scalar_s:.2f} s)")


def test_bench_vector_memory(benchmark, ctx):
    """Memory campaign full sweep, scalar vs vectorized: the
    enumerative (location x case) fault space batches into one
    cross-case group; per-row dispatch keeps flips that corrupt the
    schedule chain inside the batch, so results stay bit-identical at
    a >=5x full-replay speedup."""
    probe = _factory(standard_tank_cases()[0])
    locations = MemoryMap(probe.system).locations()
    if not strict(ctx):
        # the smoke scale verifies identity on a slice of the memory
        # map; the full enumerative sweep runs at bench/full scales
        locations = locations[:24]

    started = time.perf_counter()
    scalar = _mem_campaign(ctx, 0, locations).run()
    scalar_s = time.perf_counter() - started

    def run_batched():
        campaign = _mem_campaign(ctx, MEM_BATCH_WIDTH, locations)
        return campaign, campaign.run()

    campaign, batched = run_once(benchmark, run_batched)
    telemetry = campaign.telemetry
    counts = telemetry.counts
    batched_s = telemetry.wall_s
    speedup = scalar_s / batched_s if batched_s > 0 else 0.0

    # bit-identity, serial backend
    assert _mem_digest(batched) == _mem_digest(scalar)
    assert counts["vec_rows"] > 0
    assert counts["vec_batched_ticks"] > 0
    # the whole sweep rides in cross-case groups
    assert counts["vec_cross_case_groups"] >= 1

    # bit-identity, process backend (groups computed whole in workers)
    pool_campaign = _mem_campaign(
        ctx, MEM_BATCH_WIDTH, locations, backend="process", jobs=2
    )
    pooled = pool_campaign.run()
    assert _mem_digest(pooled) == _mem_digest(scalar)
    assert pool_campaign.telemetry.counts["vec_rows"] > 0

    occupancy = telemetry.vec_occupancy
    print()
    print(f"vector memory bench (batch width {MEM_BATCH_WIDTH}, "
          f"scale {ctx.scale.name}, {len(locations)} locations)")
    print(f"  scalar full replay: {scalar_s:.2f} s")
    print(f"  vectorized        : {batched_s:.2f} s "
          f"({counts['vec_rows']} rows in {counts['vec_groups']} groups, "
          f"{100 * occupancy:.1f}% occupancy, "
          f"{counts['vec_cross_case_groups']} cross-case, "
          f"{counts['vec_retired_rows']} retired)")
    print(f"  speedup           : {speedup:.2f}x")

    _record_bench(
        "memory",
        {
            "campaign": "memory",
            "target": "watertank",
            "scale": ctx.scale.name,
            "batch_width": MEM_BATCH_WIDTH,
            "locations": len(locations),
            "scalar_full_replay_s": round(scalar_s, 3),
            "vectorized_s": round(batched_s, 3),
            "speedup": round(speedup, 2),
            "bit_identical_serial": True,
            "bit_identical_process": True,
            "vec_rows": counts["vec_rows"],
            "vec_groups": counts["vec_groups"],
            "vec_batched_ticks": counts["vec_batched_ticks"],
            "vec_retired_rows": counts["vec_retired_rows"],
            "vec_occupancy": round(occupancy, 3),
            "vec_cross_case_groups": counts["vec_cross_case_groups"],
        },
    )

    if strict(ctx) and scalar_s >= 1.0:
        assert speedup >= 5.0, (
            f"expected >=5x vectorized speedup on the enumerative "
            f"memory sweep at batch width {MEM_BATCH_WIDTH}, "
            f"measured {speedup:.2f}x"
        )
    else:
        print(f"  (speedup bound not asserted: scale {ctx.scale.name}, "
              f"baseline {scalar_s:.2f} s)")


def _perm_campaign(ctx, batch_width, backend="serial", jobs=1):
    """The context's (arrestment) permeability campaign with
    fast-forward on, as the reproduction runs it."""
    return PermeabilityCampaign(
        ctx.simulator_factory,
        ctx.test_cases,
        runs_per_input=ctx.scale.runs_per_input,
        seed=ctx.seed,
        config=CampaignConfig(
            seed=ctx.seed,
            backend=backend,
            jobs=jobs,
            vector=VectorPolicy(batch_width=batch_width),
        ),
    )


def _perm_digest(estimate):
    return estimate.direct_counts, estimate.active_runs


def test_bench_vector_permeability(benchmark, ctx):
    """Permeability campaign, scalar fast-forward vs one batch across
    modules: identical bits on both backends, >=2x less wall.  Rows
    whose dispatch diverges still retire to the scalar path."""
    # the process-backend identity run goes first: it records the
    # golden runs and checkpoint tracks that both timed runs share
    pool_campaign = _perm_campaign(ctx, BATCH_WIDTH, "process", jobs=2)
    pooled = pool_campaign.run()

    started = time.perf_counter()
    scalar = _perm_campaign(ctx, 0).run()
    scalar_s = time.perf_counter() - started

    def run_batched():
        campaign = _perm_campaign(ctx, BATCH_WIDTH)
        started = time.perf_counter()
        estimate = campaign.run()
        return campaign, estimate, time.perf_counter() - started

    campaign, batched, batched_s = run_once(benchmark, run_batched)
    telemetry = campaign.telemetry
    counts = telemetry.counts
    speedup = scalar_s / batched_s if batched_s > 0 else 0.0

    # bit-identity, serial and process backends
    assert _perm_digest(batched) == _perm_digest(scalar)
    assert _perm_digest(pooled) == _perm_digest(scalar)
    assert counts["vec_rows"] > 0
    assert pool_campaign.telemetry.counts["vec_rows"] > 0

    print()
    print(f"vector permeability bench (batch width {BATCH_WIDTH}, "
          f"scale {ctx.scale.name}, {ctx.target.name})")
    print(f"  scalar fast-forward: {scalar_s:.2f} s")
    print(f"  vectorized         : {batched_s:.2f} s "
          f"({counts['vec_rows']} rows in {counts['vec_groups']} groups, "
          f"{100 * telemetry.vec_occupancy:.1f}% occupancy, "
          f"{counts['vec_retired_rows']} retired)")
    print(f"  speedup            : {speedup:.2f}x "
          f"(target {PERM_TARGET_SPEEDUP:.0f}x "
          f"{'met' if speedup >= PERM_TARGET_SPEEDUP else 'not met'})")

    _record_bench(
        "permeability",
        {
            "campaign": "permeability",
            "target": ctx.target.name,
            "scale": ctx.scale.name,
            "batch_width": BATCH_WIDTH,
            "scalar_fastforward_s": round(scalar_s, 3),
            "vectorized_s": round(batched_s, 3),
            "speedup": round(speedup, 2),
            "target_speedup": PERM_TARGET_SPEEDUP,
            "bit_identical_serial": True,
            "bit_identical_process": True,
            "vec_rows": counts["vec_rows"],
            "vec_groups": counts["vec_groups"],
            "vec_batched_ticks": counts["vec_batched_ticks"],
            "vec_retired_rows": counts["vec_retired_rows"],
            "vec_occupancy": round(telemetry.vec_occupancy, 3),
            "vec_cross_case_groups": counts["vec_cross_case_groups"],
        },
    )

    if strict(ctx) and scalar_s >= 1.0:
        assert speedup >= 2.0, (
            f"expected >=2x batched permeability over scalar "
            f"fast-forward at batch width {BATCH_WIDTH}, "
            f"measured {speedup:.2f}x"
        )
    else:
        print(f"  (speedup bound not asserted: scale {ctx.scale.name}, "
              f"baseline {scalar_s:.2f} s)")
