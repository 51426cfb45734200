"""Checkpoint cost: the results database against no checkpoint.

Runs the Table-1 permeability campaign checkpointing after every task
(the worst case for the store) into the results database, and again
without a checkpoint, and records the contrast to
``BENCH_store.json``.  Asserted: identical campaign bits, one record
per task, every record written exactly once (the flush bytes equal the
bytes of the rows the database holds), and (at the strict scales) a
checkpointed wall clock no worse than 1.10x the cost the retired JSON
checkpoint document had over no checkpoint.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import closing

from conftest import run_once, strict

from repro.fi.campaign import PermeabilityCampaign
from repro.fi.executor import CampaignConfig, CheckpointPolicy

#: wall clock of the retired JSON checkpoint document over no
#: checkpoint, checkpointing every task: medians of 32 alternating
#: bench-scale runs each on a 2-core host (1.727 s / 1.613 s)
JSON_OVER_NONE = 1.07


def _run(ctx, path=None):
    campaign = PermeabilityCampaign(
        ctx.simulator_factory,
        ctx.test_cases,
        runs_per_input=ctx.scale.runs_per_input,
        seed=ctx.seed,
        config=CampaignConfig(
            seed=ctx.seed,
            checkpoint=CheckpointPolicy(path=path, every=1),
        ),
    )
    started = time.perf_counter()
    result = campaign.run()
    return campaign.telemetry, result, time.perf_counter() - started


def _row_bytes(path):
    """Bytes of the task rows the database holds."""
    with closing(sqlite3.connect(path)) as conn:
        (total,) = conn.execute(
            "SELECT SUM(LENGTH(record) + COALESCE(LENGTH(digest), 0)) "
            "FROM tasks"
        ).fetchone()
    return total


def test_bench_store_overhead(benchmark, ctx, tmp_path):
    """Checkpointing into sqlite: identical bits, bounded cost."""
    repeats = 3 if strict(ctx) else 1

    def fresh(name):
        path = str(tmp_path / name)
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(path + suffix)
            except OSError:
                pass
        return path

    # alternate the two sides, so drift on a shared host hits both
    path = fresh("results.db")
    _, baseline, none_s = _run(ctx)
    telemetry, checkpointed, sqlite_s = run_once(benchmark, _run, ctx, path)
    row_bytes = _row_bytes(path)
    for _ in range(repeats - 1):
        _, result, wall = _run(ctx)
        assert result.values == baseline.values
        none_s = min(none_s, wall)
        _, extra, wall = _run(ctx, fresh("results.db"))
        assert extra.values == checkpointed.values
        sqlite_s = min(sqlite_s, wall)

    ratio = sqlite_s / none_s if none_s > 0 else 0.0
    bound = 1.10 * JSON_OVER_NONE

    print()
    print(f"store bench (checkpoint every task, scale {ctx.scale.name})")
    print(f"  no checkpoint: {none_s:.2f} s")
    print(
        f"  sqlite       : {sqlite_s:.2f} s, "
        f"{telemetry.store_flushes} flushes, "
        f"{telemetry.store_records_written} records, "
        f"{telemetry.store_bytes_written} B written"
    )
    print(f"  sqlite / none: {ratio:.3f}x (bound {bound:.3f}x)")

    # the core contract holds at any scale: bit-identical estimates
    assert checkpointed.values == baseline.values
    assert checkpointed.direct_counts == baseline.direct_counts
    assert checkpointed.active_runs == baseline.active_runs
    # one record per task, each written once: the flushes wrote
    # exactly the bytes the database holds, never a rewrite
    assert telemetry.store_records_written == telemetry.total_runs
    assert telemetry.store_bytes_written == row_bytes

    with open("BENCH_store.json", "w") as handle:
        json.dump(
            {
                "campaign": "permeability",
                "scale": ctx.scale.name,
                "checkpoint_every": 1,
                "none_s": round(none_s, 3),
                "sqlite_s": round(sqlite_s, 3),
                "sqlite_over_none": round(ratio, 4),
                "json_over_none": JSON_OVER_NONE,
                "bound": round(bound, 4),
                "sqlite_flush_bytes": telemetry.store_bytes_written,
                "row_bytes": row_bytes,
                "records": telemetry.store_records_written,
                "bit_identical": True,
            },
            handle,
            indent=2,
        )

    # wall-clock bound only where the baseline is long enough that
    # the ratio is not dominated by jitter on a loaded CI box
    if strict(ctx) and none_s >= 1.0:
        assert ratio <= bound, (
            f"expected checkpointing within {bound:.3f}x of no "
            f"checkpoint, measured {ratio:.3f}x"
        )
    else:
        print(f"  (bound not asserted: scale {ctx.scale.name}, "
              f"baseline {none_s:.2f} s)")
