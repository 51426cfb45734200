"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root::

    python3 perfbench/spread.py --workload repro-scalar --seeds 0-9

Runs ``run.py --trace 0`` once per seed, for ``run_seconds`` of
``BENCHMARK.json``, and prints, per metric, the
median, the quartile spread (Q3 - Q1, by
``statistics.quantiles(values, n=4)``) as a share of the median, and
the metric's bound from ``BENCHMARK.json``.  Raw results are appended
as JSON lines to ``--log``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seeds", default="0-9",
        help="a range (0-9) or a list (3,3,3,3,3: one seed repeated "
        "gives the run-to-run noise without seed-dependent work)",
    )
    parser.add_argument("--log", default=os.path.join(".perfbench",
                                                      "spread.jsonl"))
    args = parser.parse_args(argv)
    if "," in args.seeds:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    else:
        low, _, high = args.seeds.partition("-")
        seeds = list(range(int(low), int(high or low) + 1))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    values = {name: [] for name in bounds}
    for seed in seeds:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = completed.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: no result\n{completed.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        with open(args.log, "a", encoding="utf-8") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: check failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload} {name}: median {median:.4g}, "
              f"spread {(q3 - q1) / median:.3f} (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
