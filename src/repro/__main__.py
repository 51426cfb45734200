"""Top-level CLI: ``python -m repro <subcommand>``.

Subcommands
-----------
``simulate``
    Run one arrestment and print the outcome.
``profile``
    Print the target's exposure/impact profiles and the three
    placement decisions, from the paper's published permeabilities.
``memmap``
    Print the fault injector's address space of the target.
``sensitivity``
    Placement-stability analysis under permeability perturbation.
``experiments``
    Regenerate the paper's tables and figures (see
    ``python -m repro.experiments --help`` for its options).
``table1`` .. ``extended``
    Run one experiment directly, e.g. ``python -m repro table1
    --jobs 4``.  Accepts the flags of ``python -m repro.experiments``
    (see ``--help``); parallel and fast-forwarded runs are
    bit-identical to serial full-replay ones for the same seed, and
    failing runs are retried and quarantined instead of aborting the
    campaign.
``analyze``
    Query a campaign results database: ``list`` its contents, ``show``
    one stored result, ``diff`` two runs proportion-by-proportion with
    Wilson intervals, or ``import`` a legacy JSON checkpoint.
``place``
    Solve the budgeted EDM-placement problem over measured
    permeabilities: greedy + branch-and-bound ILP coverage
    maximization through the compositional per-module cache (see
    ``docs/placement.md``).  Exits 0 only when the solved set
    dominates both hand-derived sets on coverage per byte.
``serve`` / ``submit`` / ``status`` / ``cancel`` / ``drain``
    The campaign service (see ``docs/service.md``): a long-running
    daemon scheduling submitted campaign jobs over a shared worker
    budget with a durable sqlite queue, job-level retry, graceful
    drain and ``kill -9`` recovery from checkpoints.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.target import ArrestmentSimulator, standard_test_cases

    cases = standard_test_cases()
    if not 0 <= args.case < len(cases):
        print(f"error: case must be 0..{len(cases) - 1}", file=sys.stderr)
        return 2
    test_case = cases[args.case]
    result = ArrestmentSimulator(test_case).run()
    print(f"test case  : {test_case.label}")
    print(f"arrested   : {result.arrested}")
    print(f"distance   : {result.stop_distance_m:.1f} m")
    print(f"time       : {result.stop_time_s:.2f} s")
    print(f"verdict    : {result.verdict.describe()}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.profile import SystemProfile
    from repro.core.placement import (
        eh_placement,
        extended_placement,
        pa_placement,
    )
    from repro.experiments.paper_data import paper_matrix
    from repro.model.graph import SignalGraph
    from repro.target.wiring import build_arrestment_system

    system = build_arrestment_system()
    graph = SignalGraph(system)
    matrix = paper_matrix(system)
    print(SystemProfile(matrix, graph, output="TOC2").render())
    print()
    print(eh_placement(system).render())
    print()
    print(pa_placement(matrix, graph).render())
    print()
    print(
        extended_placement(
            matrix, graph, impact_threshold=0.10, output="TOC2",
            memory_error_model=True, self_permeability_threshold=0.8,
        ).render()
    )
    return 0


def _cmd_memmap(args: argparse.Namespace) -> int:
    from repro.fi.memory import MemoryMap
    from repro.target.wiring import build_arrestment_system

    print(MemoryMap(build_arrestment_system()).describe())
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.placement import pa_placement
    from repro.core.sensitivity import placement_sensitivity
    from repro.experiments.paper_data import paper_matrix
    from repro.model.graph import SignalGraph
    from repro.target.wiring import build_arrestment_system

    system = build_arrestment_system()
    graph = SignalGraph(system)
    report = placement_sensitivity(
        paper_matrix(system),
        graph,
        lambda m, g: pa_placement(m, g),
        epsilon=args.epsilon,
        n_samples=args.samples,
    )
    print(report.render())
    print()
    print(f"stable selections: {report.stable_selected()}")
    print(f"marginal signals : {report.marginal() or 'none'}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.core.profile import SystemProfile
    from repro.core.trees import build_backtrack_tree, build_impact_tree
    from repro.experiments.paper_data import paper_matrix
    from repro.model.graph import SignalGraph
    from repro.target.wiring import build_arrestment_system
    from repro.viz import profile_to_dot, system_to_dot, tree_to_dot

    system = build_arrestment_system()
    graph = SignalGraph(system)
    matrix = paper_matrix(system)
    if args.figure == "system":
        print(system_to_dot(system))
    elif args.figure == "exposure":
        print(profile_to_dot(
            SystemProfile(matrix, graph, output="TOC2"), "exposure"
        ))
    elif args.figure == "impact":
        print(profile_to_dot(
            SystemProfile(matrix, graph, output="TOC2"), "impact"
        ))
    elif args.figure == "impact-tree":
        print(tree_to_dot(build_impact_tree(graph, args.signal), matrix))
    else:  # backtrack
        print(tree_to_dot(build_backtrack_tree(graph, "TOC2"), matrix))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.rest)


def _render_result(result, run: str, meta: dict) -> str:
    """Human-readable summary of a stored campaign result."""
    from repro.fi.campaign import (
        DetectionResult,
        MemoryCampaignResult,
        PermeabilityEstimate,
    )

    lines = [f"run {run}"]
    if meta:
        pairs = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
        lines.append(f"  meta: {pairs}")
    if isinstance(result, PermeabilityEstimate):
        lines.append(
            f"  permeability estimate: {len(result.values)} "
            f"module-port pairs"
        )
        for (module, in_port, out_port), value in sorted(
            result.values.items()
        ):
            count = result.direct_counts.get((module, in_port, out_port), 0)
            runs = result.active_runs.get((module, in_port), 0)
            lines.append(
                f"    {module}.{in_port}->{out_port:<10} "
                f"{value:6.3f}  ({count}/{runs})"
            )
    elif isinstance(result, DetectionResult):
        lines.append(
            f"  detection result: {len(result.targets)} targets x "
            f"{len(result.ea_names)} EAs"
        )
        for target in result.targets:
            n = result.n_err.get(target, 0)
            any_count = result.any_detections.get(target, 0)
            coverage = f"{any_count / n:6.3f}" if n else f"{'—':>6}"
            per_ea = "  ".join(
                f"{ea}={result.detections.get((target, ea), 0)}"
                for ea in result.ea_names
            )
            lines.append(
                f"    {target:<10} any {coverage} "
                f"({any_count}/{n})  {per_ea}"
            )
    elif isinstance(result, MemoryCampaignResult):
        fired = sum(1 for r in result.records if r.fired)
        failed = sum(1 for r in result.records if r.failed)
        lines.append(
            f"  memory campaign result: {len(result.records)} runs, "
            f"{fired} with detections, {failed} failed; "
            f"EAs: {', '.join(result.ea_names)}"
        )
    else:
        lines.append(f"  {type(result).__name__}")
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.compare import compare_results
    from repro.errors import AnalysisError, CampaignError, IntegrityError
    from repro.fi.store import SqliteResultStore

    # list/show/diff are read-only queries: pointing them at a missing
    # path must not silently create an empty database there
    if args.action != "import" and not os.path.exists(args.db):
        print(f"error: {args.db}: no such results database", file=sys.stderr)
        return 2
    try:
        with SqliteResultStore(args.db) as store:
            if args.action == "list":
                runs = store.list_results()
                campaigns = store.list_campaigns()
                if not runs and not campaigns:
                    print(f"{args.db}: empty results database")
                    return 0
                if runs:
                    print(f"results ({len(runs)}):")
                    for stored in runs:
                        meta = store.result_meta(stored.run)
                        pairs = ", ".join(
                            f"{k}={meta[k]}" for k in sorted(meta)
                        )
                        suffix = f"  [{pairs}]" if pairs else ""
                        print(
                            f"  {stored.run:<40} {stored.kind}{suffix}"
                        )
                if campaigns:
                    print(f"campaign checkpoints ({len(campaigns)}):")
                    for stored in campaigns:
                        print(
                            f"  {stored.campaign:<40} "
                            f"{stored.completed}/{stored.n_tasks} "
                            f"tasks, {stored.failures} quarantined "
                            f"(fingerprint {stored.fingerprint[:12]}…)"
                        )
                return 0
            if args.action == "show":
                result = store.load_result(args.run)
                print(
                    _render_result(
                        result, args.run, store.result_meta(args.run)
                    )
                )
                return 0
            if args.action == "diff":
                a = store.load_result(args.run_a)
                b = store.load_result(args.run_b)
                comparison = compare_results(
                    a, b, args.run_a, args.run_b, level=args.level
                )
                print(comparison.render())
                return 1 if comparison.regressions else 0
            # import
            stored = store.import_checkpoint(args.checkpoint)
            print(
                f"imported campaign {stored.campaign!r} from "
                f"{args.checkpoint} into {args.db}: "
                f"{stored.completed}/{stored.n_tasks} tasks, "
                f"{stored.failures} quarantined"
            )
            return 0
    except (AnalysisError, CampaignError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_place(args: argparse.Namespace) -> int:
    from repro.edm.catalogue import EH_SET, PA_SET
    from repro.errors import (
        AnalysisError,
        CampaignError,
        ExperimentError,
        ModelError,
        PlacementError,
    )
    from repro.experiments.context import SCALES, default_scale
    from repro.fi.campaign import PermeabilityEstimate
    from repro.place import (
        Budget,
        PlacementCache,
        build_report,
        cached_estimate,
        greedy_solve,
        ilp_solve,
        instance_from_estimate,
        items_for_signals,
    )
    from repro.targets import get_target

    try:
        target = get_target(args.target)
        system = target.build_system()
        specs = target.assertion_specs()

        telemetry = None
        if args.run is not None:
            import os

            from repro.fi.store import SqliteResultStore

            # read-only query: must not create an empty database
            if not os.path.exists(args.db):
                print(
                    f"error: {args.db}: no such results database",
                    file=sys.stderr,
                )
                return 2
            with SqliteResultStore(args.db) as store:
                estimate = store.load_result(args.run)
            if not isinstance(estimate, PermeabilityEstimate):
                print(
                    f"error: stored run {args.run!r} is a "
                    f"{type(estimate).__name__}, not a permeability "
                    f"estimate",
                    file=sys.stderr,
                )
                return 2
        else:
            scale_name = (
                args.scale if args.scale is not None else default_scale()
            )
            if scale_name not in SCALES:
                print(
                    f"error: --scale must be one of {sorted(SCALES)}, "
                    f"got {scale_name!r}",
                    file=sys.stderr,
                )
                return 2
            scale = SCALES[scale_name]
            cases = list(target.standard_test_cases())
            cases = cases[:: scale.test_case_stride]
            runs = (
                args.runs if args.runs is not None else scale.runs_per_input
            )
            with PlacementCache(args.cache) as cache:
                estimate, telemetry = cached_estimate(
                    target,
                    cases,
                    cache,
                    runs_per_input=runs,
                    seed=args.seed,
                    invalidate=tuple(args.invalidate),
                )

        by_signal = {spec.signal: spec for spec in specs}
        if args.budget_rom is None and args.budget_ram is None \
                and args.budget_time is None:
            # default budget: the PA hand set's Table 3 footprint, so
            # "dominates PA" is an apples-to-apples claim
            pa_specs = [by_signal[s] for s in PA_SET if s in by_signal]
            budget = Budget(
                rom_bytes=sum(spec.rom_bytes for spec in pa_specs),
                ram_bytes=sum(spec.ram_bytes for spec in pa_specs),
            )
        else:
            budget = Budget(
                rom_bytes=args.budget_rom,
                ram_bytes=args.budget_ram,
                time_slots=args.budget_time,
            )

        instance = instance_from_estimate(
            system, estimate, specs, budget, level=args.level
        )
        greedy = ilp = None
        if args.solver in ("greedy", "both"):
            greedy = greedy_solve(instance)
        if args.solver in ("ilp", "both"):
            ilp = ilp_solve(instance)
        result = ilp if ilp is not None else greedy

        hand_sets = []
        for name, signals in (("EH", EH_SET), ("PA", PA_SET)):
            members = [s for s in signals if s in by_signal]
            if members:
                hand_sets.append(
                    (name, items_for_signals(instance, members))
                )
        report = build_report(target.name, instance, result, hand_sets)
        print(report.render())
        if greedy is not None and ilp is not None:
            agree = greedy.selected == ilp.selected
            print(
                f"Greedy cross-check: {'agrees' if agree else 'differs'} "
                f"(greedy coverage {greedy.coverage:.6f}, "
                f"certified >= {greedy.certified_fraction:.4f} of bound)"
            )
        if telemetry is not None:
            print(telemetry.describe())
        return 0 if report.dominates_all else 1
    except (
        AnalysisError, CampaignError, ExperimentError, ModelError,
        PlacementError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _render_status(payload: dict) -> str:
    """Human-readable rendering of one status payload."""
    lines = []
    if payload.get("offline"):
        lines.append("daemon: not running (offline queue view)")
    else:
        suffix = " (draining)" if payload.get("draining") else ""
        lines.append(f"daemon: pid {payload.get('pid')}{suffix}")
    depth = payload.get("queue", {})
    lines.append(
        "queue : "
        + ", ".join(f"{depth.get(s, 0)} {s}" for s in (
            "queued", "running", "done", "failed", "cancelled"
        ))
    )
    counters = payload.get("counters", {})
    if counters:
        lines.append(
            "faults: "
            + " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    for job in payload.get("jobs", []):
        note = f" [{job['degraded']}]" if job.get("degraded") else ""
        err = f"  ({job['error']})" if job.get("error") else ""
        lines.append(
            f"  #{job['id']:<3} {job['experiment']:<10} "
            f"{job['state']:<9} attempts={job['attempts']} "
            f"workers={job['workers']}{note}{err}"
        )
        for row in job.get("progress", []):
            lines.append(
                f"        {row['campaign']:<14} "
                f"{row['done']}/{row['total']} tasks, "
                f"{row['failures']} quarantined"
            )
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import ServiceDaemon
    from repro.service.scheduler import SchedulerConfig

    try:
        kwargs = {}
        if args.budget is not None:
            kwargs["budget"] = args.budget
        config = SchedulerConfig(
            max_jobs=args.max_jobs,
            job_retries=args.job_retries,
            lease_timeout_s=args.lease_timeout,
            stop_grace_s=args.stop_grace,
            prewarm=not args.no_prewarm,
            **kwargs,
        )
        daemon = ServiceDaemon(
            args.spool,
            config,
            max_queued=args.max_queued,
            drain_when_idle=args.drain_when_idle,
        )
        return daemon.serve()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.experiments.__main__ import submittable_keys
    from repro.service import ServiceClient

    spec = {"experiment": args.experiment}
    for key in submittable_keys():
        if getattr(args, key) is not None:
            spec[key] = getattr(args, key)
    client = ServiceClient(args.spool)
    try:
        reply = client.submit(spec)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job_id = reply["job"]
    where = "queued offline" if reply.get("offline") else "submitted"
    print(f"job #{job_id} {where} ({args.experiment})")
    if not args.wait:
        return 0
    if reply.get("offline"):
        print(
            "error: --wait needs a live daemon "
            f"(start one with 'repro serve --spool {args.spool}')",
            file=sys.stderr,
        )
        return 2
    final = None
    try:
        for payload in client.status_stream(job_id):
            final = payload
            rows = payload.get("jobs", [])
            mine_done = rows and rows[0]["state"] in (
                "done", "failed", "cancelled"
            )
            if mine_done or payload.get("final"):
                break
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if final is None:
        print("error: daemon went away while waiting", file=sys.stderr)
        return 2
    print(_render_status(final))
    states = [job["state"] for job in final.get("jobs", [])]
    return 0 if states and all(s == "done" for s in states) else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    client = ServiceClient(args.spool)
    try:
        if not args.follow:
            print(_render_status(client.status(args.job)))
            return 0
        for payload in client.status_stream(args.job):
            print(_render_status(payload))
            if payload.get("final"):
                break
            print()
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        reply = ServiceClient(args.spool).cancel(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"job #{args.job}: {reply.get('state', 'cancel requested')}")
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        ServiceClient(args.spool).drain()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("daemon draining (running jobs flush and requeue)")
    return 0


def _cmd_one_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import context_from_args, report_telemetry
    from repro.experiments.runner import EXPERIMENTS

    ctx = context_from_args(args)
    result = EXPERIMENTS[args.command](ctx)
    print(result.render())
    report_telemetry(ctx)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.__main__ import add_execution_options
    from repro.experiments.runner import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Error propagation & effect analysis for EDM placement "
            "(reproduction of Hiller/Jhumka/Suri, DSN 2002)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one arrestment")
    p_sim.add_argument(
        "--case", type=int, default=12,
        help="standard test-case index, 0..24 (default: 12)",
    )
    p_sim.set_defaults(fn=_cmd_simulate)

    p_prof = sub.add_parser(
        "profile", help="profiles and placements (paper permeabilities)"
    )
    p_prof.set_defaults(fn=_cmd_profile)

    p_mem = sub.add_parser("memmap", help="print the injectable memory map")
    p_mem.set_defaults(fn=_cmd_memmap)

    p_sens = sub.add_parser(
        "sensitivity", help="placement stability under estimation noise"
    )
    p_sens.add_argument("--epsilon", type=float, default=0.05)
    p_sens.add_argument("--samples", type=int, default=100)
    p_sens.set_defaults(fn=_cmd_sensitivity)

    p_dot = sub.add_parser(
        "dot", help="emit Graphviz DOT for the paper's figures"
    )
    p_dot.add_argument(
        "figure",
        choices=["system", "exposure", "impact", "impact-tree", "backtrack"],
    )
    p_dot.add_argument(
        "--signal", default="pulscnt",
        help="root signal for impact-tree (default: pulscnt)",
    )
    p_dot.set_defaults(fn=_cmd_dot)

    p_exp = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)
    p_exp.set_defaults(fn=_cmd_experiments)

    for exp_id in EXPERIMENTS:
        p_one = sub.add_parser(exp_id, help=f"run the {exp_id} experiment")
        add_execution_options(p_one)
        p_one.set_defaults(fn=_cmd_one_experiment)

    def add_spool(p: argparse.ArgumentParser) -> None:
        from repro.service.client import default_spool

        p.add_argument(
            "--spool", default=default_spool(), metavar="DIR",
            help="service spool directory "
            "(default: REPRO_SPOOL or .repro-service)",
        )

    p_serve = sub.add_parser(
        "serve", help="run the campaign-service daemon"
    )
    add_spool(p_serve)
    p_serve.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="total worker-process budget shared by all jobs "
        "(default: cpu count)",
    )
    p_serve.add_argument(
        "--max-jobs", type=int, default=4, metavar="N",
        help="concurrently running jobs (default: 4)",
    )
    p_serve.add_argument(
        "--job-retries", type=int, default=2, metavar="N",
        help="extra attempts a failing job gets (default: 2)",
    )
    p_serve.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="admission bound on queued+running jobs (default: 64)",
    )
    p_serve.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="S",
        help="heartbeat age before a dead scheduler's lease is "
        "reclaimed (default: 30)",
    )
    p_serve.add_argument(
        "--stop-grace", type=float, default=30.0, metavar="S",
        help="grace between SIGTERM and SIGKILL when stopping a "
        "job child (default: 30)",
    )
    p_serve.add_argument(
        "--no-prewarm", action="store_true",
        help="do not pre-warm the golden-run cache for submitted "
        "targets",
    )
    p_serve.add_argument(
        "--drain-when-idle", action="store_true",
        help="exit once every submitted job is terminal (CI mode)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit one experiment job to the service"
    )
    p_sub.add_argument("experiment", choices=list(EXPERIMENTS))
    add_spool(p_sub)
    add_execution_options(p_sub, submit=True)
    p_sub.add_argument(
        "--wait", action="store_true",
        help="follow the job until it is terminal (exit 0 only if "
        "it is done)",
    )
    p_sub.set_defaults(fn=_cmd_submit)

    p_stat = sub.add_parser(
        "status", help="show service queue and job progress"
    )
    add_spool(p_stat)
    p_stat.add_argument(
        "--job", type=int, default=None, metavar="N",
        help="restrict to one job id",
    )
    p_stat.add_argument(
        "--follow", action="store_true",
        help="stream status until every job is terminal",
    )
    p_stat.set_defaults(fn=_cmd_status)

    p_cancel = sub.add_parser("cancel", help="cancel one service job")
    p_cancel.add_argument("job", type=int)
    add_spool(p_cancel)
    p_cancel.set_defaults(fn=_cmd_cancel)

    p_drain = sub.add_parser(
        "drain", help="ask the daemon to drain and exit"
    )
    add_spool(p_drain)
    p_drain.set_defaults(fn=_cmd_drain)

    p_place = sub.add_parser(
        "place",
        help="solve the budgeted EDM placement (greedy + ILP over the "
        "compositional permeability cache)",
    )
    p_place.add_argument(
        "--target", default="arrestment",
        help="registered target system (default: arrestment)",
    )
    p_place.add_argument(
        "--budget-rom", type=int, default=None, metavar="BYTES",
        help="ROM budget in bytes (default: the PA hand set's ROM cost)",
    )
    p_place.add_argument(
        "--budget-ram", type=int, default=None, metavar="BYTES",
        help="RAM budget in bytes (default: the PA hand set's RAM cost)",
    )
    p_place.add_argument(
        "--budget-time", type=int, default=None, metavar="N",
        help="time budget: maximum number of EAs (default: none)",
    )
    p_place.add_argument(
        "--solver", choices=("greedy", "ilp", "both"), default="both",
        help="greedy (1-1/e certificate), ilp (proves optimality), or "
        "both with a cross-check line (the default)",
    )
    p_place.add_argument(
        "--cache", default="place-cache.json", metavar="PATH",
        help="compositional per-module permeability cache; .json or "
        ".db/.sqlite/.sqlite3 suffix picks the backend "
        "(default: place-cache.json)",
    )
    p_place.add_argument(
        "--invalidate", action="append", default=[], metavar="MODULE",
        help="force this module's cache entry stale so it is "
        "re-injected (repeatable)",
    )
    p_place.add_argument(
        "--scale", default=None,
        help="campaign scale for fresh injections "
        "(default: REPRO_SCALE or bench)",
    )
    p_place.add_argument("--seed", type=int, default=2002)
    p_place.add_argument(
        "--runs", type=int, default=None, metavar="N",
        help="override the scale's injection runs per module input",
    )
    p_place.add_argument(
        "--level", type=float, default=0.95, metavar="L",
        help="confidence level of the Wilson coverage bounds "
        "(default: 0.95)",
    )
    p_place.add_argument(
        "--db", default="results.db", metavar="PATH",
        help="results database for --run (default: results.db)",
    )
    p_place.add_argument(
        "--run", default=None, metavar="NAME",
        help="solve over this stored permeability estimate instead of "
        "injecting, e.g. arrestment-test-seed2002/permeability",
    )
    p_place.set_defaults(fn=_cmd_place)

    p_an = sub.add_parser(
        "analyze",
        help="query and diff a campaign results database",
    )
    p_an.add_argument(
        "--db", default="results.db", metavar="PATH",
        help="sqlite results database (default: results.db)",
    )
    an_sub = p_an.add_subparsers(dest="action", required=True)
    an_sub.add_parser(
        "list", help="list stored results and campaign checkpoints"
    )
    p_show = an_sub.add_parser("show", help="summarize one stored result")
    p_show.add_argument("run", help="run name, e.g. arrestment-test-seed2002/detection")
    p_diff = an_sub.add_parser(
        "diff",
        help="compare two runs proportion-by-proportion with Wilson CIs "
        "(exit 1 when a significant regression is found)",
    )
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")
    p_diff.add_argument(
        "--level", type=float, default=0.95, metavar="L",
        help="confidence level of the Wilson intervals (default: 0.95)",
    )
    p_imp = an_sub.add_parser(
        "import",
        help="migrate a legacy JSON checkpoint into the database",
    )
    p_imp.add_argument("checkpoint", help="path of the checkpoint .json file")
    p_an.set_defaults(fn=_cmd_analyze)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
