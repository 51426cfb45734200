"""One measured process: set up a workload, optionally time one pass.

Started by ``run.py`` as a fresh interpreter for every measurement, so
no cache, pool or shared-memory segment survives from one measurement
to the next.  ``--spawned`` is the parent's ``time.monotonic()`` just
before the spawn (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports, context, golden runs and checkpoint
tracks.  The report is written as JSON to ``--report``; spans of a
traced process go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--campaign-seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from hostspeed import SpeedSampler
    from workloads import make_workload

    sampler = SpeedSampler(os.path.join(args.workdir, "speed")).start()
    tracer = None
    if args.spans:
        from tracer import Tracer, install_layers

        tracer = Tracer(run_id=f"{args.workload}-{args.campaign_seed}")
        install_layers(tracer)
    workload = make_workload(
        args.workload, args.scale, args.campaign_seed, args.workdir, tracer
    )
    report = {}
    try:
        workload.setup()
        ready = time.monotonic()
        report["raw_setup_s"] = ready - args.spawned
        report["setup_s"], report["setup_speed"] = sampler.at_reference(
            report["raw_setup_s"], args.spawned, ready
        )
        if not args.setup_only:
            report["raw_wall_s"] = workload.timed()
            report["wall_s"], report["speed"] = sampler.at_reference(
                report["raw_wall_s"], ready, time.monotonic()
            )
    finally:
        sampler.stop()
        workload.close()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
    if not args.setup_only:
        report.update(workload.collect())
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
