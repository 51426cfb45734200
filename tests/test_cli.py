"""Tests for the command-line interfaces."""

import re

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main
from repro.fi.campaign import PermeabilityCampaign
from repro.fi.executor import EXECUTION_OPTIONS


class TestTopLevelCLI:
    def test_simulate(self, capsys):
        assert repro_main(["simulate", "--case", "0"]) == 0
        out = capsys.readouterr().out
        assert "arrested   : True" in out
        assert "tc00" in out

    def test_simulate_bad_case(self, capsys):
        assert repro_main(["simulate", "--case", "99"]) == 2
        assert "0..24" in capsys.readouterr().err

    def test_profile(self, capsys):
        assert repro_main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "Exposure profile" in out
        assert "Placement (PA)" in out
        assert "Placement (EH)" in out

    def test_memmap(self, capsys):
        assert repro_main(["memmap"]) == 0
        out = capsys.readouterr().out
        assert "RAM" in out and "stack" in out
        assert "ram:CLOCK.mscnt" in out

    def test_sensitivity(self, capsys):
        assert repro_main(
            ["sensitivity", "--samples", "5", "--epsilon", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "stable selections" in out

    def test_dot_system(self, capsys):
        assert repro_main(["dot", "system"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"DIST_S"' in out

    def test_dot_impact_tree(self, capsys):
        assert repro_main(["dot", "impact-tree", "--signal", "pulscnt"]) == 0
        assert "P^CALC_{3,1}" in capsys.readouterr().out

    def test_dot_profiles_and_backtrack(self, capsys):
        for figure in ("exposure", "impact", "backtrack"):
            assert repro_main(["dot", figure]) == 0
            assert "digraph" in capsys.readouterr().out

    def test_dot_bad_figure(self):
        with pytest.raises(SystemExit):
            repro_main(["dot", "nonsense"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            repro_main([])


class TestPlaceCLI:
    def _solve(self, db, extra=()):
        return repro_main(
            ["place", "--scale", "test", "--runs", "1",
             "--db", str(db), *extra]
        )

    def test_cold_then_warm_solve(self, tmp_path, capsys):
        cache = tmp_path / "results.db"
        assert self._solve(cache) == 0
        cold = capsys.readouterr().out
        assert "Budgeted EDM placement" in cold
        assert "Certificate: optimality proven" in cold
        assert "misses=6" in cold
        assert self._solve(cache) == 0
        warm = capsys.readouterr().out
        assert "hits=6 misses=0" in warm
        # everything above the telemetry line is byte-identical
        strip = lambda text: text.rsplit("\n", 2)[0]
        assert strip(cold) == strip(warm)

    def test_invalidate_reinjects_one_module(self, tmp_path, capsys):
        cache = tmp_path / "results.db"
        assert self._solve(cache) == 0
        capsys.readouterr()
        assert self._solve(cache, ["--invalidate", "CLOCK"]) == 0
        assert "reinjected=CLOCK" in capsys.readouterr().out

    def test_unknown_module_rejected(self, tmp_path, capsys):
        assert self._solve(
            tmp_path / "c.db", ["--invalidate", "NOPE"]
        ) == 2
        assert "unknown modules" in capsys.readouterr().err

    def test_solver_choice_and_budget_flags(self, tmp_path, capsys):
        cache = tmp_path / "results.db"
        assert self._solve(cache, ["--solver", "greedy"]) in (0, 1)
        out = capsys.readouterr().out
        assert "solver=greedy" in out
        assert "Greedy cross-check" not in out
        assert self._solve(
            cache, ["--budget-rom", "25", "--budget-ram", "13"]
        ) in (0, 1)
        out = capsys.readouterr().out
        assert "Budget: ROM<=25 RAM<=13" in out

    def test_missing_results_db_rejected(self, tmp_path, capsys):
        assert repro_main(
            ["place", "--db", str(tmp_path / "none.db"), "--run", "x/y"]
        ) == 2
        assert "no such results database" in capsys.readouterr().err

    def test_bad_target_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            self._solve(tmp_path / "c.db", ["--target", "nonsense"])
        assert exit_.value.code == 2
        assert "argument --target: invalid choice: 'nonsense'" in (
            capsys.readouterr().err
        )

    def test_bad_scale_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            repro_main(["place", "--scale", "galactic"])
        assert exit_.value.code == 2
        assert "argument --scale: invalid choice" in capsys.readouterr().err

    def test_resolves_from_cache_in_a_results_database(
        self, tmp_path, capsys
    ):
        """The cache shares the database with saved results, and an
        entry stored there answers a re-solve."""
        from repro.fi.store import SqliteResultStore
        from repro.target import ArrestmentSimulator, standard_test_cases

        db = str(tmp_path / "results.db")
        estimate = PermeabilityCampaign(
            ArrestmentSimulator, [standard_test_cases()[0]],
            runs_per_input=1,
        ).run()
        with SqliteResultStore(db) as store:
            store.save_result(estimate, run="kept/permeability")
        assert self._solve(db) == 0
        assert "misses=6" in capsys.readouterr().out
        assert self._solve(db) == 0
        assert "cache: hits=6 misses=0" in capsys.readouterr().out
        with SqliteResultStore(db) as store:
            assert store.load_result("kept/permeability") == estimate
        assert repro_main(["analyze", "--db", db, "list"]) == 0
        assert "kept/permeability" in capsys.readouterr().out

    def test_cache_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            repro_main(["place", "--cache", str(tmp_path / "c.json")])
        assert "unrecognized arguments: --cache" in capsys.readouterr().err


class TestExperimentsCLI:
    def test_single_analytic_experiment(self, capsys):
        assert experiments_main(["table3", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "262/94" in out

    def test_timing_lines_go_to_stderr(self, capsys):
        assert experiments_main(["--scale", "test", "table1"]) == 0
        captured = capsys.readouterr()
        assert "[table1]" in captured.out
        assert "s, scale=" not in captured.out
        assert "s, scale=test)" in captured.err

    def test_silenced_report_prints_no_timing(self, capsys):
        from repro.experiments import ExperimentContext, run_all

        lines = []
        run_all(ExperimentContext(scale="test"), ["table3"], lines.append)
        assert "[table3]" in lines
        assert capsys.readouterr().err == ""

    def test_batched_by_default_scalar_on_request(self, capsys):
        assert repro_main(["table1", "--scale", "test"]) == 0
        batched = capsys.readouterr()
        assert repro_main(
            ["table1", "--scale", "test", "--batch-width", "0"]
        ) == 0
        scalar = capsys.readouterr()
        assert re.search(r" \| vector [0-9]+ rows", batched.err)
        assert " | vector " not in scalar.err
        assert batched.out == scalar.out

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["table3", "--scale", "galactic"])

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["table99"])

    def test_delegation_from_top_level(self, capsys):
        assert repro_main(
            ["experiments", "table3", "--scale", "test"]
        ) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_integrity_flags_reach_the_config(self):
        import argparse

        from repro.experiments.__main__ import (
            add_execution_options,
            context_from_args,
        )

        parser = argparse.ArgumentParser()
        add_execution_options(parser)
        args = parser.parse_args([
            "--scale", "test", "--audit-fraction", "0.25",
            "--audit-seed", "11", "--integrity-policy", "strict",
        ])
        config = context_from_args(args).campaign_config("detection")
        assert config.integrity.audit_fraction == 0.25
        assert config.integrity.audit_seed == 11
        assert config.integrity.policy == "strict"

    def test_bad_integrity_policy_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(
                ["table3", "--integrity-policy", "paranoid"]
            )

    @pytest.mark.parametrize(
        "flag, value", [("--scale", "galactic"), ("--target", "nonsense")]
    )
    def test_direct_command_rejects_bad_choice(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["table3", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"invalid choice: '{value}'" in err

    def test_bad_repro_scale_spares_other_commands(self, monkeypatch):
        # the shared parser builds for every experiment subcommand;
        # REPRO_SCALE is only resolved when a context is built
        monkeypatch.setenv("REPRO_SCALE", "huge")
        assert repro_main(["simulate", "--case", "0"]) == 0

    @pytest.mark.parametrize("main, argv", [
        (experiments_main, []),
        (repro_main, ["table1"]),
        (repro_main, ["submit", "table1"]),
    ], ids=["experiments", "table1", "submit"])
    def test_store_flag_is_gone(self, main, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--store=sqlite"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --store" in capsys.readouterr().err

    def test_other_target_skips_arrestment_experiments(self, capsys):
        """The tank's default selection runs every experiment but the
        three that read the arrestment's TOC2 and pulscnt, and names
        those in one stderr line."""
        assert experiments_main(
            ["--scale", "test", "--target", "watertank"]
        ) == 0
        captured = capsys.readouterr()
        for exp_id in ("table1", "table2", "table3", "table4", "figure3"):
            assert f"[{exp_id}]" in captured.out
        for exp_id in ("table5", "profiles", "extended"):
            assert f"[{exp_id}]" not in captured.out
        skipped = [
            line for line in captured.err.splitlines()
            if line.startswith("[skipped]")
        ]
        assert skipped == [
            "[skipped] table5, profiles, extended "
            "(arrestment only; target watertank)"
        ]

    @pytest.mark.parametrize("main, argv", [
        (experiments_main, ["table5"]),
        (experiments_main, ["table1", "extended"]),
        (repro_main, ["table5"]),
        (repro_main, ["profiles"]),
    ], ids=["experiments-table5", "experiments-extended", "table5",
            "profiles"])
    def test_arrestment_experiment_on_other_target_exits_2(
        self, main, argv, capsys
    ):
        assert main([*argv, "--scale", "test", "--target", "watertank"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: target watertank cannot run" in captured.err
        assert "(arrestment only)" in captured.err

    def test_checkpoint_dir_always_holds_one_database(self, tmp_path):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(scale="test", checkpoint_dir=str(tmp_path))
        for campaign in ("permeability", "detection", "memory"):
            path = ctx.campaign_config(campaign).checkpoint.path
            assert path == str(tmp_path / "results.db")


class _Rendered:
    def render(self):
        return ""


@pytest.mark.parametrize("name", list(EXECUTION_OPTIONS))
def test_option_reaches_its_policy_field_by_every_route(
    name, option_values, monkeypatch, tmp_path
):
    """``python -m repro.experiments``, ``repro table1``, a ``repro
    submit`` spec run by the job child, and ``ExperimentContext``
    all land the option on its policy field."""
    from repro.experiments import runner
    from repro.experiments.context import ExperimentContext
    from repro.service import scheduler

    option = EXECUTION_OPTIONS[name]
    value = option_values[name]
    flags = [option.flag] if option.type is bool else [option.flag, str(value)]
    contexts = []

    def capture(ctx, *args, **kwargs):
        contexts.append(ctx)
        return _Rendered()

    monkeypatch.setattr("repro.experiments.__main__.run_all", capture)
    monkeypatch.setitem(runner.EXPERIMENTS, "table1", capture)
    assert experiments_main(["--scale", "test", *flags]) == 0
    assert repro_main(["table1", "--scale", "test", *flags]) == 0

    specs = []

    class Client:
        def __init__(self, spool):
            pass

        def submit(self, spec):
            specs.append(scheduler.validate_spec(spec))
            return {"job": 1}

    monkeypatch.setattr("repro.service.ServiceClient", Client)
    assert repro_main(
        ["submit", "table1", "--spool", str(tmp_path), *flags]
    ) == 0
    assert specs[0][name] == value
    scheduler._run_experiment(
        1, specs[0], str(tmp_path), 1, str(tmp_path / "results.db")
    )
    contexts.append(ExperimentContext(scale="test", **{name: value}))

    assert len(contexts) == 4
    for ctx in contexts:
        policy = getattr(ctx.campaign_config("permeability"), option.policy)
        assert getattr(policy, option.field) == value
