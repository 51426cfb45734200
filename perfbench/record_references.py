"""Record the oracle's reference digests into ``references.json``.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/record_references.py \
        --scale bench --seeds 0-15

For each workload seed (campaign seed = 2002 + seed) it runs the
fixed-n campaigns twice — scalar (``batch_width=0``) and batched
(``batch_width=256``) — and refuses to record unless both digest
identically, then records the adaptive permeability and detection
results.  The fixed task plan of the scale is recorded too.  Only run
this when a change of results is intended; the digests are what every
benchmark run is checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import campaign_seed  # noqa: E402
from workloads import CAMPAIGNS, _digest  # noqa: E402


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def fixed_n(scale: str, seed: int, batch_width: int):
    from repro.experiments.context import ExperimentContext

    ctx = ExperimentContext(scale=scale, seed=seed, batch_width=batch_width)
    results = {
        "permeability": ctx.permeability_estimate(),
        "detection": ctx.detection_result(),
        "memory": ctx.memory_result(),
    }
    plan = {name: ctx.telemetries[name].total_runs for name in CAMPAIGNS}
    return {name: _digest(results[name]) for name in CAMPAIGNS}, plan


def adaptive(scale: str, seed: int):
    from repro.experiments.context import ExperimentContext

    ctx = ExperimentContext(scale=scale, seed=seed, adaptive=True)
    return {
        "adaptive/permeability": _digest(ctx.permeability_estimate()),
        "adaptive/detection": _digest(ctx.detection_result()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("test", "bench"), required=True)
    parser.add_argument("--seeds", default="0", help="e.g. 0-15")
    parser.add_argument(
        "--out", default=os.path.join(HERE, "references.json")
    )
    args = parser.parse_args(argv)
    try:
        with open(args.out, "r", encoding="utf-8") as handle:
            references = json.load(handle)
    except OSError:
        references = {"plan": {}, "digests": {}}
    for workload_seed in _seeds(args.seeds):
        seed = campaign_seed(workload_seed)
        scalar, plan = fixed_n(args.scale, seed, 0)
        batched, _ = fixed_n(args.scale, seed, 256)
        if scalar != batched:
            print(f"seed {seed}: scalar and batched results differ; "
                  f"nothing recorded", file=sys.stderr)
            return 1
        digests = dict(scalar)
        digests.update(adaptive(args.scale, seed))
        references["plan"][args.scale] = plan
        references["digests"].setdefault(args.scale, {})[str(seed)] = digests
        staged = args.out + ".tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(staged, args.out)
        print(f"recorded {args.scale} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
