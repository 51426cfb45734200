"""Fault-tolerant execution: overhead and identity under injected chaos.

Runs the Table-1 permeability campaign on a 2-worker pool while the
chaos hooks make one task raise on its first attempt and another
hard-kill its worker, then asserts the recovered result is
bit-identical to a clean serial run (both faults are transient, so
nothing is quarantined) and records the recovery cost — retry backoff
plus one pool respawn — that a production campaign would pay.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.fi.campaign import PermeabilityCampaign
from repro.fi.executor import CampaignConfig, FaultTolerancePolicy


def _campaign(ctx, config=None):
    return PermeabilityCampaign(
        ctx.simulator_factory,
        ctx.test_cases,
        runs_per_input=ctx.scale.runs_per_input,
        seed=ctx.seed,
        config=config,
    )


def test_bench_chaos_recovery(benchmark, ctx):
    """Table-1 campaign with a raising task and a killed worker."""
    started = time.perf_counter()
    serial = _campaign(ctx).run()
    serial_s = time.perf_counter() - started

    chaos = {"REPRO_CHAOS_FAIL_INDEX": "3", "REPRO_CHAOS_KILL_INDEX": "5"}

    def run_chaos():
        campaign = _campaign(ctx, CampaignConfig(
            jobs=2,
            fault_tolerance=FaultTolerancePolicy(
                retries=2, task_timeout=30.0,
                retry_backoff_s=0.05, pool_watchdog_s=2.0,
            ),
        ))
        saved = {k: os.environ.get(k) for k in chaos}
        os.environ.update(chaos)
        try:
            estimate = campaign.run()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return campaign, estimate

    campaign, recovered = run_once(benchmark, run_chaos)
    telemetry = campaign.telemetry

    print()
    print("chaos recovery bench (2 workers, 1 raise + 1 worker kill)")
    print(f"  serial    : {serial_s:.2f} s")
    print(f"  recovered : {telemetry.wall_s:.2f} s "
          f"(backend={telemetry.backend}, retries={telemetry.retries}, "
          f"respawns={telemetry.pool_respawns})")

    # both faults are first-attempt-only, so recovery is total:
    # no quarantined task, and the recovered bits match a clean run
    assert recovered.task_failures == []
    assert recovered.values == serial.values
    assert recovered.direct_counts == serial.direct_counts
    assert recovered.active_runs == serial.active_runs

    # the faults were actually exercised, and telemetry says so
    assert telemetry.faulted
    assert telemetry.retries >= 1
    assert telemetry.pool_respawns >= 1
    assert telemetry.failures == 0
    assert not telemetry.degraded
