"""End-to-end benchmark of the reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload repro-scalar --seed 0 \
        --seconds 20 --trace 0

Workloads: ``repro-scalar``, ``repro-batched``, ``service-adaptive``
(see ``workloads.py`` and ``NOTES.md``).  Every measurement runs in a
fresh child process (``child.py``) inside a fresh work directory under
``.perfbench/``; the program is imported from ``src/``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` and
``tasks_per_s`` as the median over timed passes, repeated until
``--seconds`` of passes were measured (a pass is never cut short),
``setup_s`` as the median over every fresh set-up of the run, and
``peak_rss_mb``.  ``--trace 1`` runs one untraced and one traced
pass, whatever ``--seconds`` says, and prints the per-layer
metrics, derived from the traced pass's spans and the counters the
program exposes; ``trace.overhead_s`` is traced minus untraced
``wall_s``.

Every pass is checked (``oracle.py``) and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  A failed check counts the affected operations as
failed, reports no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import end_to_end, per_layer  # noqa: E402
from oracle import JOB_OF, Ledger, Verdict, check, load_references  # noqa: E402,E501
from workloads import WORKLOADS  # noqa: E402

#: the campaign seed of workload seed 0 (the paper's default seed)
BASE_SEED = 2002
#: set-up-only children per untraced run; every timed pass adds one
#: more set-up sample to the median that is ``setup_s``
SETUP_ONLY_CHILDREN = 2
#: a run whose children are still busy after this long is killed
RUN_TIMEOUT_S = 170
#: where runs keep their work directories, ledger and last spans
STATE_DIR = ".perfbench"


def campaign_seed(workload_seed: int) -> int:
    """The only seed the program sees."""
    return BASE_SEED + workload_seed


def _shm_segments() -> set:
    """Shared-memory segments currently in ``/dev/shm`` created by
    ``multiprocessing.shared_memory`` (the program's only kind)."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()


def _orphaned(names: set) -> List[str]:
    """The segments of *names* that no live process maps: left behind
    by a process that has ended.  Segments that other processes on the
    host create and still use while a run is going are not leaks."""
    mapped = set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/maps", "r", encoding="utf-8",
                      errors="replace") as handle:
                for line in handle:
                    if "/dev/shm/psm_" in line:
                        mapped.add(line.rsplit("/", 1)[-1].split()[0])
        except OSError:
            continue
    return sorted(name for name in names if name not in mapped)


class Runner:
    """Spawns measured children inside one run's work directory."""

    def __init__(self, args, root: str, workdir: str):
        self.args = args
        self.root = root
        self.workdir = workdir
        self.count = 0
        #: timed passes started, finished or not
        self.passes = 0
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # multiprocessing and tempfile stay inside the work directory
        self.env["TMPDIR"] = workdir

    def child(self, setup_only: bool = False,
              traced: bool = False) -> Dict[str, Any]:
        self.count += 1
        self.passes += 0 if setup_only else 1
        tag = f"c{self.count}"
        childdir = os.path.join(self.workdir, tag)
        os.makedirs(childdir)
        report = os.path.join(childdir, "report.json")
        spans = os.path.join(childdir, "spans.jsonl")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.args.workload,
            "--scale", self.args.scale,
            "--campaign-seed", str(campaign_seed(self.args.seed)),
            "--workdir", childdir,
            "--report", report,
        ]
        if setup_only:
            command.append("--setup-only")
        if traced:
            command += ["--spans", spans]
        log_path = os.path.join(childdir, "output.log")
        with open(log_path, "wb") as log:
            command += ["--spawned", repr(time.monotonic())]
            process = subprocess.Popen(
                command, cwd=self.root, env=self.env,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = process.wait(
                    timeout=max(1.0, self.deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                # the child's whole session: anything it forked and
                # left behind is stopped with it
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        if code != 0:
            with open(log_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                tail = handle.read()[-4000:]
            raise ChildFailed(f"measured child exited with {code}:\n{tail}")
        with open(report, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        if traced:
            result["spans_path"] = spans
        return result


class ChildFailed(RuntimeError):
    pass


def measure(args, runner: Runner) -> Tuple[List[Dict[str, Any]], List[float]]:
    """The run's timed passes and set-up samples.

    Untraced: :data:`SETUP_ONLY_CHILDREN` set-up-only children, then
    timed passes until ``--seconds`` of passes were measured; every
    pass also contributes a set-up sample.  Traced: one untraced and
    one traced pass, in that order.
    """
    if args.trace:
        return [runner.child(), runner.child(traced=True)], []
    setups = [runner.child(setup_only=True)["setup_s"]
              for _ in range(SETUP_ONLY_CHILDREN)]
    passes = [runner.child()]
    while sum(p["raw_wall_s"] for p in passes) < args.seconds:
        passes.append(runner.child())
    return passes, setups + [p["setup_s"] for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (campaign seed = 2002 + seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time of an untraced run: passes "
                        "repeat until it is reached; a pass is never cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("test", "bench"),
                        default="bench")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    references = load_references(os.path.join(HERE, "references.json"))
    state = os.path.join(root, STATE_DIR)
    os.makedirs(state, exist_ok=True)
    ledger = Ledger(os.path.join(state, "ledger"))
    workdir = tempfile.mkdtemp(prefix="r", dir=state)
    segments_before = _shm_segments()
    runner = Runner(args, root, workdir)
    try:
        passes, setups = measure(args, runner)
        leaked = _orphaned(_shm_segments() - segments_before)
        if args.trace:
            kept_spans = os.path.join(state, f"spans-{args.workload}.jsonl")
            shutil.copy(passes[1]["spans_path"], kept_spans)
            passes[1]["spans_path"] = kept_spans
    except ChildFailed as exc:
        # a crashed or timed-out pass: every operation of the run failed
        print(f"error: {exc}", file=sys.stderr)
        attempted = max(1, runner.passes) * Verdict(
            references["plan"][args.scale],
            len(JOB_OF) if args.workload == "service-adaptive" else 0,
        ).ops_per_pass
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = check(
        args.workload, args.scale, campaign_seed(args.seed), passes,
        references, ledger,
    )
    if leaked:
        verdict.fail_all(f"shared-memory segments left behind: {leaked}")
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for note in verdict.notes:
        print(f"note: {note}", file=sys.stderr)
    metrics: Dict[str, Any] = {}
    if verdict.correct:
        if args.trace:
            metrics = per_layer(args.workload, passes[0], passes[1])
        else:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = end_to_end(
                statistics.median(p["wall_s"] for p in passes),
                statistics.median(setups),
                verdict.planned_per_pass,
                usage / 1024.0,
            )
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
