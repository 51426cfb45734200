"""CLI entry point: ``python -m repro.experiments [ids...]``.

Runs the given experiments (default: all of them) under one
:class:`~repro.experiments.context.ExperimentContext`.  ``--help``
lists every flag.  The same flags serve ``python -m repro
<experiment>`` and, without the four the service scheduler sets per
job, ``python -m repro submit``: :func:`add_execution_options` builds
them from the context flags below and the execution options declared
on the campaign policies (:data:`~repro.fi.executor.EXECUTION_OPTIONS`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List

from repro.experiments.context import ExperimentContext, SCALES, default_scale
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.fi.executor import BACKENDS, EXECUTION_OPTIONS, ExecutionOption
from repro.targets import available_targets

#: context flags the service scheduler sets for each job itself: a job
#: always resumes from its own checkpoint directory and event log and
#: archives into the spool's results database.
SCHEDULER_OWNED = ("resume", "checkpoint_dir", "event_log", "results_db")


def _context_flags() -> Dict[str, Dict[str, Any]]:
    """The context flags: flag -> ``add_argument`` keywords.

    Each flag's destination is an argument of
    :class:`ExperimentContext` (``--checkpoint-dir`` -> ``checkpoint_dir``).
    """
    return {
        "--scale": dict(
            choices=sorted(SCALES),
            help="workload scale (default: REPRO_SCALE or bench; "
            "submitted jobs: test)",
        ),
        "--seed": dict(
            type=int, metavar="N", help="campaign seed (default: 2002)"
        ),
        "--target": dict(
            choices=available_targets(),
            help="registered target system (default: arrestment)",
        ),
        "--jobs": dict(
            type=int, metavar="N",
            help="worker processes for campaigns (default: 1 = serial)",
        ),
        "--backend": dict(
            choices=BACKENDS,
            help="pin the execution backend (default: derived from "
            "--jobs; results are bit-identical either way)",
        ),
        "--resume": dict(
            action="store_true",
            help="resume partially completed campaigns from checkpoints",
        ),
        "--checkpoint-dir": dict(
            metavar="DIR",
            help="directory for campaign checkpoints (default with "
            "--resume: .repro-checkpoints/<target>-<scale>-<seed>)",
        ),
        "--event-log": dict(
            metavar="PATH",
            help="append campaign run events (task finish/retry/failure, "
            "checkpoint flushes, pool respawns) to this JSONL file",
        ),
        "--results-db": dict(
            metavar="PATH",
            help="also save finished campaign results into this sqlite "
            "results database, queryable with 'python -m repro analyze'",
        ),
        "--run-name": dict(
            metavar="NAME",
            help="run name for results saved to --results-db "
            "(default: <target>-<scale>-seed<seed>; submitted jobs: "
            "job<id>)",
        ),
    }


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def submittable_keys() -> List[str]:
    """The context arguments and options a service job spec may set."""
    context = [_dest(flag) for flag in _context_flags()]
    return [
        key for key in context if key not in SCHEDULER_OWNED
    ] + list(EXECUTION_OPTIONS)


def _add_option(parser: argparse.ArgumentParser, option: ExecutionOption):
    if option.type is not bool:
        parser.add_argument(
            option.flag, dest=option.name, type=option.type,
            metavar=option.metavar, choices=option.choices,
            help=option.help,
        )
        return
    group = parser.add_mutually_exclusive_group() if option.off else parser
    group.add_argument(
        option.flag, dest=option.name, action="store_const",
        const=not option.default, help=option.help,
    )
    if option.off:
        off_flag, off_help = option.off
        group.add_argument(
            off_flag, dest=option.name, action="store_const",
            const=option.default, help=off_help,
        )


def add_execution_options(
    parser: argparse.ArgumentParser, submit: bool = False
) -> None:
    """Add the context flags and every execution option to *parser*.

    Flags default to ``None`` (``--resume``: False), so a flag left out
    keeps the default of :class:`ExperimentContext` or of the option's
    policy field.  *submit* leaves out the :data:`SCHEDULER_OWNED` flags.
    """
    for flag, kwargs in _context_flags().items():
        if not (submit and _dest(flag) in SCHEDULER_OWNED):
            parser.add_argument(flag, **kwargs)
    for option in EXECUTION_OPTIONS.values():
        _add_option(parser, option)


def context_from_args(args: argparse.Namespace) -> ExperimentContext:
    """The context the parsed flags ask for.

    The scale defaults to ``REPRO_SCALE`` (else ``bench``), resolved
    here rather than when the parser is built.
    """
    keys = [_dest(flag) for flag in _context_flags()]
    values = {
        key: getattr(args, key)
        for key in keys + list(EXECUTION_OPTIONS)
        if getattr(args, key) is not None
    }
    values.setdefault("scale", default_scale())
    return ExperimentContext(**values)


def report_telemetry(ctx: ExperimentContext) -> None:
    for telemetry in ctx.telemetries.values():
        print(telemetry.render(), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        choices=list(EXPERIMENTS) + [[]],
        help="experiments to run (default: all)",
    )
    add_execution_options(parser)
    args = parser.parse_args(argv)
    ctx = context_from_args(args)
    run_all(ctx, only=args.ids or None)
    report_telemetry(ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
