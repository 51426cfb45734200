"""Parallel campaign execution: speedup and bit-identity.

Runs the Table-1 permeability campaign serially and on a 4-worker
process pool, asserts the results are bit-identical, and records the
speedup.  The >=2x speedup bound is only asserted where the hardware
can deliver it (>= 4 CPU cores); on smaller machines the bench still
verifies identity and reports the measured ratio.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.fi.campaign import PermeabilityCampaign
from repro.fi.executor import CampaignConfig, VectorPolicy


def _campaign(ctx, jobs=1):
    # a batched campaign is one group in one worker, so the pool
    # speedup is measured on the scalar path
    return PermeabilityCampaign(
        ctx.simulator_factory,
        ctx.test_cases,
        runs_per_input=ctx.scale.runs_per_input,
        seed=ctx.seed,
        config=CampaignConfig(jobs=jobs, vector=VectorPolicy(batch_width=0)),
    )


def test_bench_parallel_table1(benchmark, ctx):
    """Table-1 campaign, 1 vs 4 workers: identical bits, less wall."""
    jobs = 4

    started = time.perf_counter()
    serial = _campaign(ctx).run()
    serial_s = time.perf_counter() - started

    def run_parallel():
        campaign = _campaign(ctx, jobs)
        estimate = campaign.run()
        return campaign, estimate

    campaign, parallel = run_once(benchmark, run_parallel)
    telemetry = campaign.telemetry
    speedup = serial_s / telemetry.wall_s if telemetry.wall_s > 0 else 0.0
    cores = os.cpu_count() or 1

    print()
    print(f"parallel campaign bench ({cores} cores)")
    print(f"  serial   : {serial_s:.2f} s")
    print(f"  {jobs} workers: {telemetry.wall_s:.2f} s "
          f"(backend={telemetry.backend}, "
          f"util={telemetry.worker_utilization:.0%})")
    print(f"  speedup  : {speedup:.2f}x")

    # the core contract holds on any machine: bit-identical results
    assert parallel.values == serial.values
    assert parallel.direct_counts == serial.direct_counts
    assert parallel.active_runs == serial.active_runs

    # the throughput bound needs the cores to be there AND a serial
    # baseline long enough that the ratio measures throughput rather
    # than scheduler jitter and pool startup
    if cores >= jobs and serial_s >= 1.0:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at {jobs} workers on {cores} cores, "
            f"measured {speedup:.2f}x"
        )
    else:
        print(f"  (speedup bound not asserted: {cores} core(s), "
              f"serial baseline {serial_s:.2f} s)")
