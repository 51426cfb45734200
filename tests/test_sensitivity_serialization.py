"""Tests for placement sensitivity analysis and campaign serialization."""

import pytest

from repro.core.placement import extended_placement, pa_placement
from repro.core.sensitivity import placement_sensitivity
from repro.errors import AnalysisError, CampaignError
from repro.fi.serialization import (
    detection_from_dict,
    detection_to_dict,
    memory_from_dict,
    memory_to_dict,
    permeability_from_dict,
    permeability_to_dict,
)
from repro.fi.store import SqliteResultStore


class TestSensitivity:
    def test_pa_selection_stable_at_small_epsilon(self, matrix, graph):
        report = placement_sensitivity(
            matrix, graph, lambda m, g: pa_placement(m, g),
            epsilon=0.05, n_samples=30,
        )
        assert report.is_stable()
        assert report.stable_selected() == sorted(
            ["SetValue", "i", "pulscnt", "OutValue"]
        )
        assert set(report.stable_rejected()) >= {"mscnt", "IsValue", "TOC2"}

    def test_extended_selection_stable(self, matrix, graph):
        report = placement_sensitivity(
            matrix, graph,
            lambda m, g: extended_placement(
                m, g, impact_threshold=0.10, output="TOC2",
                memory_error_model=True, self_permeability_threshold=0.8,
            ),
            epsilon=0.03, n_samples=20,
        )
        assert set(report.stable_selected()) == set(
            report.baseline_selected
        )

    def test_large_epsilon_flushes_out_marginal_decisions(
        self, matrix, graph
    ):
        """Near a threshold, heavy perturbation must flip decisions."""
        report = placement_sensitivity(
            matrix, graph,
            lambda m, g: pa_placement(m, g, exposure_threshold=1.45),
            epsilon=0.40, n_samples=60,
        )
        # SetValue's exposure (1.478) straddles the 1.45 threshold
        assert "SetValue" in report.marginal()

    def test_architectural_extremes_not_perturbed(self, matrix, graph):
        report = placement_sensitivity(
            matrix, graph, lambda m, g: pa_placement(m, g),
            epsilon=0.5, n_samples=20,
        )
        # ms_slot_nbr's exclusion rests on exact 1.0/0.0 permeabilities,
        # which are architectural and never perturbed
        assert report.selection_frequency["ms_slot_nbr"] == 0.0

    def test_validation(self, matrix, graph):
        with pytest.raises(AnalysisError):
            placement_sensitivity(
                matrix, graph, lambda m, g: pa_placement(m, g),
                epsilon=-0.1,
            )
        with pytest.raises(AnalysisError):
            placement_sensitivity(
                matrix, graph, lambda m, g: pa_placement(m, g),
                n_samples=0,
            )

    def test_render(self, matrix, graph):
        report = placement_sensitivity(
            matrix, graph, lambda m, g: pa_placement(m, g),
            epsilon=0.05, n_samples=5,
        )
        text = report.render()
        assert "sensitivity" in text and "pulscnt" in text


class TestSerialization:
    def test_permeability_roundtrip(self, ctx):
        estimate = ctx.permeability_estimate()
        restored = permeability_from_dict(permeability_to_dict(estimate))
        assert restored.values == estimate.values
        assert restored.active_runs == estimate.active_runs

    def test_detection_roundtrip(self, ctx):
        result = ctx.detection_result()
        restored = detection_from_dict(detection_to_dict(result))
        assert restored.n_err == result.n_err
        assert restored.detections == result.detections
        assert restored.run_records == result.run_records
        for target in result.targets:
            assert restored.total_coverage(target) == pytest.approx(
                result.total_coverage(target)
            )

    def test_memory_roundtrip(self, ctx):
        result = ctx.memory_result()
        restored = memory_from_dict(memory_to_dict(result))
        assert len(restored.records) == len(result.records)
        triple_a = result.coverage(result.ea_names, None)
        triple_b = restored.coverage(result.ea_names, None)
        assert triple_a.c_tot == pytest.approx(triple_b.c_tot)
        assert triple_a.n_fail == triple_b.n_fail

    def test_file_roundtrip(self, ctx, tmp_path):
        estimate = ctx.permeability_estimate()
        path = str(tmp_path / "results.db")
        with SqliteResultStore(path) as store:
            store.save_result(estimate, run="perm")
        with SqliteResultStore(path) as store:
            restored = store.load_result("perm")
        assert restored.values == estimate.values

    def test_kind_mismatch_rejected(self, ctx):
        data = permeability_to_dict(ctx.permeability_estimate())
        with pytest.raises(CampaignError, match="expected"):
            detection_from_dict(data)

    def test_version_mismatch_rejected(self, ctx):
        data = permeability_to_dict(ctx.permeability_estimate())
        data["format_version"] = 999
        with pytest.raises(CampaignError, match="version"):
            permeability_from_dict(data)

    def test_unknown_file_kind_rejected(self, tmp_path):
        path = str(tmp_path / "results.db")
        with SqliteResultStore(path) as store:
            store.connection.execute(
                "INSERT INTO results (run, kind, payload, digest, created_ts)"
                " VALUES ('bogus', 'bogus', ?, '', 0)",
                ('{"format_version": 1, "kind": "bogus"}',),
            )
            with pytest.raises(CampaignError, match="unknown kind"):
                store.load_result("bogus")


class TestLatency:
    def test_latencies_recorded_for_detections(self, ctx):
        result = ctx.detection_result()
        stats = result.latency_stats()
        total_detected = sum(result.any_detections.values())
        assert stats.count == total_detected
        if stats.count:
            assert 0 <= stats.mean <= stats.maximum
            assert stats.median <= stats.maximum

    def test_subset_latency_no_faster_than_full(self, ctx):
        result = ctx.detection_result()
        full = result.latency_stats()
        sub = result.latency_stats(ea_subset=["EA4"])
        assert sub.count <= full.count

    def test_empty_stats(self):
        from repro.fi.campaign import LatencyStats

        stats = LatencyStats.from_samples([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_stats_from_samples(self):
        from repro.fi.campaign import LatencyStats

        stats = LatencyStats.from_samples([4, 2, 8])
        assert stats.median == 4 and stats.maximum == 8
        assert stats.mean == pytest.approx(14 / 3)
        even = LatencyStats.from_samples([1, 3])
        assert even.median == 2.0
