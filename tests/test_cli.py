"""Tests for the command-line interfaces."""

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main
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
    def _solve(self, cache, extra=(), monkeypatch=None):
        return repro_main(
            ["place", "--scale", "test", "--runs", "1",
             "--cache", str(cache), *extra]
        )

    def test_cold_then_warm_solve(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
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
        cache = tmp_path / "cache.json"
        assert self._solve(cache) == 0
        capsys.readouterr()
        assert self._solve(cache, ["--invalidate", "CLOCK"]) == 0
        assert "reinjected=CLOCK" in capsys.readouterr().out

    def test_unknown_module_rejected(self, tmp_path, capsys):
        assert self._solve(
            tmp_path / "c.json", ["--invalidate", "NOPE"]
        ) == 2
        assert "unknown modules" in capsys.readouterr().err

    def test_solver_choice_and_budget_flags(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
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
        assert self._solve(
            tmp_path / "c.json", ["--target", "nonsense"]
        ) == 2
        assert "unknown target" in capsys.readouterr().err


class TestExperimentsCLI:
    def test_single_analytic_experiment(self, capsys):
        assert experiments_main(["table3", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "262/94" in out

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
