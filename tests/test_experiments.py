"""Integration tests: the paper's experiments at test scale.

These assert the *qualitative* claims the paper makes — the exact
values depend on campaign scale and are exercised in the benchmark
harness.  All experiments share the session-scoped context, so each
campaign runs at most once for the whole test session.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    run_extended,
    run_figure3,
    run_profiles,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.context import ExperimentContext, SCALES, default_scale
from repro.experiments.runner import CAMPAIGNS_OF, EXPERIMENTS
from repro.experiments.paper_data import PAPER_EH_SET, PAPER_PA_SET
from repro.edm.catalogue import EH_SET


class TestContext:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentContext(scale="huge")

    def test_scales_defined(self):
        assert {"test", "bench", "full"} <= set(SCALES)

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "test")
        assert default_scale() == "test"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ExperimentError):
            default_scale()

    def test_campaigns_cached(self, ctx):
        assert ctx.permeability_estimate() is ctx.permeability_estimate()
        assert ctx.measured_matrix() is ctx.measured_matrix()


class TestCampaignsOf:
    #: the context accessors an experiment may read its campaigns by
    ACCESSORS = {
        "permeability_estimate": "permeability",
        "measured_matrix": "permeability",
        "detection_result": "detection",
        "memory_result": "memory",
    }

    @pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
    def test_declares_the_campaigns_it_reads(self, ctx, monkeypatch, exp_id):
        """``run_all`` runs each selection's campaigns up front from
        CAMPAIGNS_OF, so the declaration must name exactly what the
        experiment reads from its context."""
        read = set()
        for name, campaign in self.ACCESSORS.items():
            def spy(*args, _read=getattr(ctx, name), _campaign=campaign):
                read.add(_campaign)
                return _read(*args)

            monkeypatch.setattr(ctx, name, spy)
        EXPERIMENTS[exp_id](ctx)
        assert read == set(CAMPAIGNS_OF[exp_id])

    def test_lone_experiment_runs_only_its_campaign(self):
        ctx = ExperimentContext(scale="test", seed=2002)
        run_table4(ctx)
        assert list(ctx.telemetries) == ["detection"]


class TestTable1:
    def test_rows_cover_all_pairs(self, ctx):
        result = run_table1(ctx)
        assert len(result.rows) == 25
        labels = {row.label for row in result.rows}
        assert "P^CALC_{3,1}" in labels

    def test_zero_pairs_match_paper_exactly(self, ctx):
        """Pairs the paper reports as exactly zero must measure zero:
        they are architectural (debounce, masking), not statistical."""
        result = run_table1(ctx)
        measured = result.measured()
        for key in (
            ("CLOCK", "ms_slot_nbr", "mscnt"),
            ("DIST_S", "TIC1", "pulscnt"),
            ("DIST_S", "TCNT", "stopped"),
            ("CALC", "pulscnt", "SetValue"),
            ("CALC", "slow_speed", "i"),
            ("CALC", "stopped", "SetValue"),
        ):
            assert measured[key] == 0.0

    def test_high_pairs_are_high(self, ctx):
        measured = run_table1(ctx).measured()
        for key in (
            ("CLOCK", "ms_slot_nbr", "ms_slot_nbr"),
            ("DIST_S", "PACNT", "pulscnt"),
            ("CALC", "i", "i"),
            ("V_REG", "SetValue", "OutValue"),
            ("V_REG", "IsValue", "OutValue"),
            ("PRES_A", "OutValue", "TOC2"),
            ("CALC", "slow_speed", "SetValue"),
        ):
            assert measured[key] >= 0.7, key

    def test_render(self, ctx):
        text = run_table1(ctx).render()
        assert "Table 1" in text and "P^CLOCK_{1,1}" in text


class TestTable2:
    def test_selection_matches_paper(self, ctx):
        result = run_table2(ctx)
        assert set(result.selected) == set(PAPER_PA_SET)
        assert result.selection_matches_paper()

    def test_rows_sorted_by_measured_exposure(self, ctx):
        rows = run_table2(ctx).rows
        values = [row.measured_exposure for row in rows]
        assert values == sorted(values, reverse=True)

    def test_render(self, ctx):
        text = run_table2(ctx).render()
        assert "Table 2" in text and "High error exposure" in text


class TestTable3:
    def test_pa_subset_and_costs(self):
        result = run_table3()
        assert result.pa_is_subset
        assert result.eh_cost.rom_bytes == 262
        assert result.pa_cost.ram_bytes == 54
        assert 0.35 <= result.savings["memory_saving"] <= 0.5

    def test_render(self):
        text = run_table3().render()
        assert "262/94" in text and "150/54" in text


class TestTable4:
    def test_eh_equals_pa(self, ctx):
        """The paper's headline for the input error model."""
        result = run_table4(ctx)
        assert result.eh_equals_pa()

    def test_pacnt_dominates(self, ctx):
        result = run_table4(ctx)
        pacnt = result.row("PACNT")
        assert pacnt.total > 0.3
        for quiet in ("TIC1", "TCNT", "ADC"):
            assert result.row(quiet).total == 0.0

    def test_ea4_is_the_dominant_detector(self, ctx):
        pacnt = run_table4(ctx).row("PACNT")
        assert pacnt.per_ea["EA4"] == max(pacnt.per_ea.values())

    def test_all_row_aggregates(self, ctx):
        result = run_table4(ctx)
        all_row = result.row("All")
        assert all_row.n_err == sum(
            result.row(t).n_err for t in ("PACNT", "TIC1", "TCNT", "ADC")
        )

    def test_render(self, ctx):
        assert "Table 4" in run_table4(ctx).render()


class TestFigure3:
    def test_pa_collapses_under_memory_model(self, ctx):
        result = run_figure3(ctx)
        assert result.pa_collapses()

    def test_extended_matches_eh(self, ctx):
        assert run_figure3(ctx).extended_matches_eh()

    def test_groups_present(self, ctx):
        result = run_figure3(ctx)
        for set_name in ("EH", "PA", "extended"):
            for group in ("RAM", "Stack", "Total"):
                triple = result.coverage(set_name, group)
                assert triple.n_runs > 0

    def test_render(self, ctx):
        assert "Figure 3" in run_figure3(ctx).render()


class TestTable5:
    def test_pulscnt_worked_example_shape(self, ctx):
        result = run_table5(ctx)
        assert len(result.pulscnt_paths) == 2

    def test_high_impact_low_exposure_signals(self, ctx):
        """Section 10: IsValue and mscnt matter by impact, not exposure."""
        result = run_table5(ctx)
        assert result.impact_of("IsValue") > 0.5
        assert result.impact_of("mscnt") > 0.10
        assert result.impact_of("ms_slot_nbr") == 0.0

    def test_output_has_no_impact(self, ctx):
        assert run_table5(ctx).impact_of("TOC2") is None

    def test_render(self, ctx):
        text = run_table5(ctx).render()
        assert "Figure 4" in text and "pulscnt" in text


class TestProfilesAndExtended:
    def test_profiles_cover_all_signals(self, ctx):
        result = run_profiles(ctx)
        assert len(result.exposure_rows) == 14
        assert len(result.impact_rows) == 14

    def test_profile_render(self, ctx):
        text = run_profiles(ctx).render()
        assert "Exposure profile" in text and "Impact profile" in text

    def test_extended_selection_equals_eh(self, ctx):
        """Section 10's conclusion, from *measured* permeabilities."""
        result = run_extended(ctx)
        assert result.matches_eh_set()
        assert set(result.selected) == set(EH_SET) == set(PAPER_EH_SET)

    def test_extended_render(self, ctx):
        assert "Section 10" in run_extended(ctx).render()
