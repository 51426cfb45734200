"""Run every paper experiment and print the full report."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.context import ExperimentContext, default_scale
from repro.experiments.extended import run_extended
from repro.experiments.figure3 import run_figure3
from repro.experiments.profiles import run_profiles
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5

__all__ = [
    "ARRESTMENT_ONLY", "CAMPAIGNS_OF", "EXPERIMENTS", "run_all", "unsupported",
]

#: experiment id -> runner.  Order matches the paper's narrative.
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], object]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "figure3": run_figure3,
    "table5": run_table5,
    "profiles": run_profiles,
    "extended": run_extended,
}


#: experiment id -> the campaigns it reads from the context, so
#: ``run_all`` can run every campaign of a selection in one batch
CAMPAIGNS_OF: Dict[str, Tuple[str, ...]] = {
    "table1": ("permeability",),
    "table2": ("permeability",),
    "table3": (),
    "table4": ("detection",),
    "figure3": ("memory",),
    "table5": ("permeability",),
    "profiles": ("permeability",),
    "extended": ("permeability",),
}


#: the experiments that read the arrestment's own signals — its output
#: ``TOC2``, and Fig. 4's ``pulscnt`` — so no other target runs them
ARRESTMENT_ONLY = ("table5", "profiles", "extended")


def unsupported(target: str, exp_ids: Sequence[str]) -> List[str]:
    """The experiments of *exp_ids* that the target named *target*
    cannot run, in the order of *exp_ids*."""
    if target == "arrestment":
        return []
    return [exp_id for exp_id in exp_ids if exp_id in ARRESTMENT_ONLY]


def run_all(
    ctx: Optional[ExperimentContext] = None,
    only: Optional[List[str]] = None,
    echo: Callable[[str], None] = print,
    timing: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the selected experiments; returns id -> result object.

    The default selection is every experiment the context's target can
    run (:func:`unsupported`).  The campaigns the selection reads
    (:data:`CAMPAIGNS_OF`) run first, together: every plan is drawn
    before any executes, and their rows share one batch.  Each report
    goes to *echo* under an ``[id]`` header, and the time it took to
    *timing*, if given (the CLI sends it to stderr, beside the campaign
    telemetry), so reports of differently executed runs compare byte
    for byte.
    """
    if ctx is None:
        ctx = ExperimentContext(scale=default_scale())
    if only is not None:
        selected = list(only)
    else:
        skipped = unsupported(ctx.target.name, list(EXPERIMENTS))
        selected = [exp_id for exp_id in EXPERIMENTS if exp_id not in skipped]
    campaigns = [name for exp_id in selected for name in CAMPAIGNS_OF[exp_id]]
    if campaigns:
        started = time.time()
        ctx.run_campaigns(campaigns)
        if timing is not None:
            timing(
                f"[campaigns]  ({time.time() - started:.1f} s, "
                f"scale={ctx.scale.name})"
            )
    results: Dict[str, object] = {}
    for exp_id in selected:
        runner = EXPERIMENTS[exp_id]
        started = time.time()
        result = runner(ctx)
        elapsed = time.time() - started
        results[exp_id] = result
        echo("")
        echo("=" * 72)
        echo(f"[{exp_id}]")
        if timing is not None:
            timing(f"[{exp_id}]  ({elapsed:.1f} s, scale={ctx.scale.name})")
        echo("=" * 72)
        echo(result.render())
    return results
