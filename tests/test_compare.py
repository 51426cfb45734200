"""Tests for cross-campaign analytics and the ``analyze`` CLI.

A diff between two runs must flag a changed proportion only when its
Wilson intervals actually separate, orient the regression direction by
metric (detection coverage down = bad, permeability up = bad), and be
reachable end-to-end through ``python -m repro analyze`` on a results
database populated by a real experiment run.
"""

import json
import math

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.compare import (
    ProportionDelta,
    RunComparison,
    compare_detection,
    compare_permeability,
    compare_results,
)
from repro.analysis.intervals import wilson_interval
from repro.errors import AnalysisError
from repro.fi.campaign import (
    DetectionResult,
    MemoryCampaignResult,
    PermeabilityEstimate,
)
from repro.fi.store import SqliteResultStore


def _estimate(counts):
    """A PermeabilityEstimate from {(m, i, k): (direct, active)}."""
    direct = {key: pair[0] for key, pair in counts.items()}
    active = {key[:2]: pair[1] for key, pair in counts.items()}
    values = {
        key: (pair[0] / pair[1] if pair[1] else 0.0)
        for key, pair in counts.items()
    }
    return PermeabilityEstimate(
        direct_counts=direct, active_runs=active, values=values
    )


def _detection(per_target):
    """A DetectionResult from {target: {ea: count, "n": trials}}."""
    targets = sorted(per_target)
    eas = sorted(
        {ea for rows in per_target.values() for ea in rows if ea != "n"}
    )
    detections = {
        (target, ea): rows.get(ea, 0)
        for target, rows in per_target.items()
        for ea in eas
    }
    return DetectionResult(
        targets=targets,
        ea_names=eas,
        n_injected={t: per_target[t]["n"] for t in targets},
        n_err={t: per_target[t]["n"] for t in targets},
        detections=detections,
        any_detections={
            t: max(per_target[t].get(ea, 0) for ea in eas) for t in targets
        },
        run_records={},
        run_latencies={},
    )


class TestProportionDelta:
    def _delta(self, a, b, polarity=1, level=0.95):
        return ProportionDelta(
            key="x",
            metric="m",
            counts_a=a,
            counts_b=b,
            ci_a=wilson_interval(*a, level) if a[1] else (0.0, 1.0),
            ci_b=wilson_interval(*b, level) if b[1] else (0.0, 1.0),
            polarity=polarity,
        )

    def test_noise_is_not_significant(self):
        delta = self._delta((3, 6), (4, 6))
        assert not delta.significant
        assert not delta.regression and not delta.improvement

    def test_separated_intervals_flag(self):
        delta = self._delta((95, 100), (5, 100))
        assert delta.significant
        assert delta.regression  # coverage dropped (polarity +1)
        flipped = self._delta((95, 100), (5, 100), polarity=-1)
        assert flipped.improvement  # permeability dropped: good

    def test_zero_trials_maximally_uncertain(self):
        delta = self._delta((0, 0), (10, 10))
        assert delta.ci_a == (0.0, 1.0)
        assert not delta.significant

    def test_empty_stratum_is_unknown_not_zero(self):
        # a stratum nobody sampled must never separate from a sampled
        # one: 0/0 is "unknown", not a certified 0.0 that a healthy
        # 8/10 would then read as a regression against
        delta = self._delta((0, 0), (8, 10))
        assert not delta.measured
        assert math.isnan(delta.value_a)
        assert math.isnan(delta.delta)
        assert not delta.significant
        assert not delta.regression and not delta.improvement

    def test_empty_stratum_describe_renders_dashes(self):
        text = self._delta((0, 0), (8, 10)).describe()
        assert text.startswith("  ")  # no !! / ++ marker
        assert "—" in text
        assert "nan" not in text
        # the sampled side still renders its numbers
        assert "0.800" in text

    def test_describe_markers(self):
        assert self._delta((95, 100), (5, 100)).describe().startswith("!!")
        assert self._delta(
            (5, 100), (95, 100)
        ).describe().startswith("++")


class TestComparePermeability:
    def test_union_of_keys_and_polarity(self):
        a = _estimate({("M", "i", "o"): (0, 50)})
        b = _estimate({("M", "i", "o"): (45, 50), ("N", "x", "y"): (1, 4)})
        comparison = compare_permeability(a, b, "ra", "rb")
        keys = [d.key for d in comparison.deltas]
        assert keys == ["M.i->o", "N.x->y"]
        (worse,) = comparison.regressions  # permeability shot up
        assert worse.key == "M.i->o"
        assert "ra" in comparison.render() and "!!" in comparison.render()

    def test_identical_runs_all_noise(self):
        a = _estimate({("M", "i", "o"): (3, 6)})
        assert compare_permeability(a, a).significant == []

    def test_empty_stratum_not_reported_as_regression(self):
        # run A never exercised M.i->o (0 active runs); run B measured
        # a high permeability there — the diff must stay quiet rather
        # than compare B against a phantom 0.0
        a = _estimate({("M", "i", "o"): (0, 0), ("N", "x", "y"): (2, 8)})
        b = _estimate({("M", "i", "o"): (8, 10), ("N", "x", "y"): (2, 8)})
        comparison = compare_permeability(a, b, "ra", "rb")
        assert comparison.regressions == []
        assert comparison.significant == []
        assert "0 regressions" in comparison.render()


class TestCompareDetection:
    def test_per_ea_and_any_rows(self):
        a = _detection({"ADC": {"EA1": 40, "EA2": 2, "n": 40}})
        b = _detection({"ADC": {"EA1": 4, "EA2": 2, "n": 40}})
        comparison = compare_detection(a, b)
        keys = [d.key for d in comparison.deltas]
        assert keys == ["ADC/EA1", "ADC/EA2", "ADC/*"]
        assert [d.key for d in comparison.regressions] == [
            "ADC/EA1", "ADC/*",
        ]

    def test_disjoint_ea_sets_stay_comparable(self):
        a = _detection({"ADC": {"OLD": 30, "n": 40}})
        b = _detection({"ADC": {"NEW": 30, "n": 40}})
        comparison = compare_detection(a, b)
        assert {d.key for d in comparison.deltas} == {
            "ADC/OLD", "ADC/NEW", "ADC/*",
        }


class TestCompareResults:
    def test_dispatch(self):
        perm = _estimate({("M", "i", "o"): (1, 4)})
        det = _detection({"ADC": {"EA1": 1, "n": 4}})
        assert compare_results(perm, perm).metric == "permeability"
        assert compare_results(det, det).metric == "detection"
        with pytest.raises(AnalysisError):
            compare_results(perm, det)
        with pytest.raises(AnalysisError):
            memory = MemoryCampaignResult(ea_names=[], records=[])
            compare_results(memory, memory)

    def test_render_summary_line(self):
        comparison = RunComparison(
            run_a="a", run_b="b", metric="permeability", level=0.9
        )
        assert "0 keys compared" in comparison.render()


@pytest.fixture(scope="module")
def results_db(tmp_path_factory):
    """A results database with two seeds' worth of test-scale runs."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS

    path = str(tmp_path_factory.mktemp("analyze") / "results.db")
    for run, seed in (("base", 2002), ("next", 7)):
        ctx = ExperimentContext(
            scale="test", seed=seed, results_db=path, run_name=run
        )
        EXPERIMENTS["table1"](ctx)
    return path


class TestAnalyzeCLI:
    def test_list_empty_db(self, tmp_path, capsys):
        from repro.fi.store import SqliteResultStore

        path = str(tmp_path / "results.db")
        with SqliteResultStore(path) as store:
            store.list_results()  # forces schema creation, no content
        assert repro_main(["analyze", "--db", path, "list"]) == 0
        assert "empty results database" in capsys.readouterr().out

    def test_list(self, results_db, capsys):
        assert repro_main(["analyze", "--db", results_db, "list"]) == 0
        out = capsys.readouterr().out
        assert "base/permeability" in out
        assert "next/permeability" in out
        assert "seed=7" in out

    def test_show(self, results_db, capsys):
        assert repro_main(
            ["analyze", "--db", results_db, "show", "base/permeability"]
        ) == 0
        out = capsys.readouterr().out
        assert "permeability estimate" in out
        assert "module-port pairs" in out

    def test_diff_same_run_is_quiet(self, results_db, capsys):
        assert repro_main([
            "analyze", "--db", results_db,
            "diff", "base/permeability", "base/permeability",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out
        assert "Wilson 95% CIs" in out

    def test_diff_across_seeds_reports_deltas(self, results_db, capsys):
        repro_main([
            "analyze", "--db", results_db,
            "diff", "base/permeability", "next/permeability",
            "--level", "0.9",
        ])
        out = capsys.readouterr().out
        assert "Wilson 90% CIs" in out
        assert "keys compared" in out

    def test_unknown_run_errors(self, results_db, capsys):
        assert repro_main(
            ["analyze", "--db", results_db, "show", "nope/nothing"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_import_and_rely_on_db(self, results_db, tmp_path, capsys):
        checkpoint = tmp_path / "unit.json"
        checkpoint.write_text(json.dumps({
            "campaign": "unit", "fingerprint": "fp", "n_tasks": 3,
            "results": {"0": 0, "1": 1, "2": 2},
        }))
        assert repro_main(
            ["analyze", "--db", results_db, "import", str(checkpoint)]
        ) == 0
        assert "3/3 tasks" in capsys.readouterr().out
        assert repro_main(["analyze", "--db", results_db, "list"]) == 0
        assert "unit" in capsys.readouterr().out

    def test_malformed_import_changes_nothing(self, tmp_path, capsys):
        db = str(tmp_path / "results.db")
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "campaign": "good", "fingerprint": "f", "n_tasks": 1,
            "results": {"0": {"v": 0}},
        }))
        assert repro_main(["analyze", "--db", db, "import", str(good)]) == 0
        capsys.readouterr()
        assert repro_main(["analyze", "--db", db, "list"]) == 0
        before = capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "campaign": "x", "fingerprint": "f", "n_tasks": 3,
            "results": {"0": {"v": 1}, "a": {"v": 2}},
        }))
        assert repro_main(["analyze", "--db", db, "import", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repro_main(["analyze", "--db", db, "list"]) == 0
        assert capsys.readouterr().out == before

    def test_missing_db_is_one_clean_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.db")
        assert repro_main(["analyze", "--db", missing, "list"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {missing}: no such results database\n"
        assert repro_main(
            ["analyze", "--db", missing, "diff", "a", "b"]
        ) == 2
        assert "no such results database" in capsys.readouterr().err

    def test_non_database_file_is_one_clean_error_line(
        self, tmp_path, capsys
    ):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("this is not a sqlite database\n" * 20)
        assert repro_main(["analyze", "--db", str(bogus), "list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one line, no traceback
        assert "not a usable sqlite results database" in err
        assert "import" not in err  # no migration hint for non-JSON

    def test_saved_results_survive_in_sqlite(self, results_db):
        with SqliteResultStore(results_db) as store:
            loaded = store.load_result("base/permeability")
            assert loaded.values
            meta = store.result_meta("base/permeability")
            assert meta["scale"] == "test"
