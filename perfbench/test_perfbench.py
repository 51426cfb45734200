"""The benchmark's own test, at ``--scale test``.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload must print every metric BENCHMARK.json names, with its
unit; idle layers must read zero; a tampered reference digest must
turn into counted failures; and outside a checkout with sources the
benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IDLE_ON_DIRECT = ("adaptive.", "store.", "service.", "place.")


def bench(workload, trace, *extra, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "test",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, result, completed.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    code, result, stderr = bench(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
        return
    if workload != "service-adaptive":
        idle = [n for n in values if n.startswith(IDLE_ON_DIRECT)]
        assert idle and all(values[n] == 0 for n in idle), values
        assert values["target.runs"] > 0 and values["executor.tasks"] > 0
    else:
        assert values["adaptive.dispatches"] > 0
        assert values["store.records"] > 0
        assert values["place.ilp_s"] > 0
        assert values["vector.rows"] == 0
    if workload == "repro-scalar":
        vector = [n for n in values if n.startswith("vector.")]
        assert all(values[n] == 0 for n in vector), values
        assert values["snapshot.restores"] > 0
    if workload == "repro-batched":
        assert values["vector.rows"] > 0 and values["vector.s"] > 0


def test_tampered_reference_counts_failures(tmp_path):
    # a copy of the benchmark beside the real sources, so neither the
    # references nor the digest ledger of this checkout are touched
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    tampered = tmp_path / "perfbench" / "references.json"
    references = json.loads(tampered.read_text())
    digests = references["digests"]["test"]["2002"]
    digests["permeability"] = "0" * 64
    tampered.write_text(json.dumps(references))
    code, result, stderr = bench("repro-scalar", 0, cwd=str(tmp_path))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == references["plan"]["test"]["permeability"]
    assert result["metrics"] == {}
    assert "permeability digest" in stderr


def test_failed_job_counts_its_operations_once(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from oracle import Ledger, check, load_references

    references = load_references(
        os.path.join(ROOT, "perfbench", "references.json")
    )
    plan = references["plan"]["test"]
    # table1 failed: it stored no run, so there is no digest and no
    # placement, which is charged to the same job
    result = {
        "jobs": [
            {"experiment": "table1", "state": "failed"},
            {"experiment": "table4", "state": "done"},
            {"experiment": "figure3", "state": "done"},
        ],
        "events": {
            campaign: {"planned": plan[campaign], "failures": 0}
            for campaign in ("detection", "memory")
        },
        "placement": {},
        "digests": {},
    }
    verdict = check("service-adaptive", "test", 2002, [result], references,
                    Ledger(str(tmp_path)))
    assert not verdict.correct
    assert verdict.attempted == sum(plan.values()) + 3
    assert verdict.failed == plan["permeability"] + 1
    assert any("table1 ended failed" in p for p in verdict.problems)


def test_crashed_pass_prints_a_failed_result(monkeypatch, capsys):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run

    def crash(args, runner):
        runner.passes += 1
        raise run.ChildFailed("measured child exited with -9")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "measure", crash)
    code = run.main(["--workload", "repro-scalar", "--scale", "test"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_reference_seconds_follow_the_probe(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from hostspeed import REFERENCE_S, SpeedSampler

    def write(name, samples):
        (tmp_path / name).write_text(
            "".join(f"{stamp!r} {took!r}\n" for stamp, took in samples)
        )

    # own probes at speeds 2, 1, 2, 1 and one outside [1, 2]; a forked
    # process's at 1.5, 1.5: mean speed 1.5
    own = [(1.1, REFERENCE_S / 2), (1.2, REFERENCE_S),
           (1.3, REFERENCE_S / 2), (1.4, REFERENCE_S), (2.5, 9.0)]
    write(f"{os.getpid()}.txt", own)
    write("1.txt", [(1.5, REFERENCE_S / 1.5), (1.6, REFERENCE_S / 1.5)])
    sampler = SpeedSampler(str(tmp_path))
    probed = sum(took for _, took in own[:4])
    seconds, speed = sampler.at_reference(4.0 + probed, 1.0, 2.0)
    assert speed == pytest.approx(1.5)
    assert seconds == pytest.approx(6.0)
    with pytest.raises(RuntimeError):
        sampler.at_reference(1.0, 3.0, 4.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result, _ = bench("repro-scalar", 0, cwd=str(tmp_path))
    assert code != 0
    assert result is None
