"""Unit tests for repro.fi.golden (golden runs, direct-error accounting)."""

import pytest

from repro.errors import CampaignError
from repro.fi.executor import GoldenRunCache
from repro.fi.golden import (
    InvocationLog,
    first_output_differences,
    golden_run,
)
from repro.target.simulation import ArrestmentSimulator


class TestInvocationLog:
    def test_records_selected_modules_only(self, mid_case):
        sim = ArrestmentSimulator(mid_case, timeout_s=0.2)
        log = InvocationLog(["CALC"]).attach(sim)
        sim.run()
        assert log.modules() == ["CALC"]
        assert log.stream("CLOCK") == []

    def test_records_port_ordered_tuples(self, mid_case):
        sim = ArrestmentSimulator(mid_case, timeout_s=0.2)
        log = InvocationLog(["CALC"]).attach(sim)
        sim.run()
        tick, inputs, outputs = log.stream("CALC")[0]
        assert len(inputs) == 5  # i, mscnt, pulscnt, slow_speed, stopped
        assert len(outputs) == 2  # i, SetValue

    def test_all_modules_by_default(self, mid_case):
        sim = ArrestmentSimulator(mid_case, timeout_s=0.1)
        log = InvocationLog().attach(sim)
        sim.run()
        assert set(log.modules()) == {
            "CLOCK", "DIST_S", "CALC", "PRES_S", "V_REG", "PRES_A",
        }

    def test_clock_runs_every_tick(self, mid_case):
        sim = ArrestmentSimulator(mid_case, timeout_s=0.1)
        log = InvocationLog(["CLOCK"]).attach(sim)
        result = sim.run()
        assert len(log.stream("CLOCK")) == result.ticks_run

    def test_slot_modules_run_once_per_cycle(self, mid_case):
        sim = ArrestmentSimulator(mid_case, timeout_s=0.2)
        log = InvocationLog(["DIST_S"]).attach(sim)
        result = sim.run()
        assert len(log.stream("DIST_S")) == result.ticks_run // 20


class TestGoldenRun:
    def test_caches_per_test_case(self, test_cases):
        cache = GoldenRunCache()
        first = cache.get("t", ArrestmentSimulator, test_cases[0])
        second = cache.get("t", ArrestmentSimulator, test_cases[0])
        assert first is second
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_golden_run_completes(self, test_cases):
        golden = golden_run(ArrestmentSimulator, test_cases[0])
        assert golden.completion_tick > 0
        assert not golden.result.verdict.failed

    def test_failing_golden_run_rejected(self, test_cases):
        def broken_factory(tc):
            sim = ArrestmentSimulator(tc, timeout_s=0.05)
            return sim

        with pytest.raises(CampaignError):
            golden_run(broken_factory, test_cases[0])

    def test_evicted_run_is_recomputed(self, test_cases):
        """The bound frees what it evicts: a run evicted from a full
        cache is simulated again, and every miss is one simulation."""
        built = []

        def counting_factory(tc):
            built.append(tc.case_id)
            return ArrestmentSimulator(tc)

        cache = GoldenRunCache(max_runs=1)
        a, b = test_cases[0], test_cases[1]
        for case in (a, b, a):
            cache.get("t", counting_factory, case)
        assert built == [a.case_id, b.case_id, a.case_id]
        assert cache.misses == 3
        assert len(cache) == 1


class TestFirstOutputDifferences:
    IN_PORTS = ("a", "b")
    OUT_PORTS = ("y", "z")

    def test_no_difference(self):
        stream = [(0, (1, 2), (3, 4)), (1, (1, 2), (3, 4))]
        assert first_output_differences(
            stream, list(stream), self.IN_PORTS, self.OUT_PORTS, "a"
        ) == {}

    def test_direct_difference_detected(self):
        golden = [(0, (1, 2), (3, 4)), (20, (1, 2), (3, 4))]
        injected = [(0, (9, 2), (5, 4)), (20, (1, 2), (3, 4))]
        diffs = first_output_differences(
            golden, injected, self.IN_PORTS, self.OUT_PORTS, "a"
        )
        assert set(diffs) == {"y"}
        assert diffs["y"].direct
        assert diffs["y"].invocation_index == 0
        assert diffs["y"].tick == 0

    def test_indirect_difference_flagged(self):
        """Output differs while ANOTHER input is already disturbed ->
        the error came back around a loop: not direct."""
        golden = [(0, (1, 2), (3, 4)), (20, (1, 2), (3, 4))]
        injected = [(0, (9, 2), (3, 4)), (20, (1, 7), (3, 9))]
        diffs = first_output_differences(
            golden, injected, self.IN_PORTS, self.OUT_PORTS, "a"
        )
        assert not diffs["z"].direct

    def test_only_first_difference_per_output(self):
        golden = [(0, (1, 2), (3, 4)), (20, (1, 2), (3, 4))]
        injected = [(0, (9, 2), (5, 4)), (20, (9, 2), (6, 4))]
        diffs = first_output_differences(
            golden, injected, self.IN_PORTS, self.OUT_PORTS, "a"
        )
        assert diffs["y"].invocation_index == 0

    def test_later_state_mediated_difference_is_direct(self):
        """Inputs back to normal but state carries the error: still a
        direct consequence of the injected input."""
        golden = [(0, (1, 2), (3, 4)), (20, (1, 2), (3, 4))]
        injected = [(0, (9, 2), (3, 4)), (20, (1, 2), (8, 4))]
        diffs = first_output_differences(
            golden, injected, self.IN_PORTS, self.OUT_PORTS, "a"
        )
        assert diffs["y"].direct

    def test_unknown_injected_port_rejected(self):
        with pytest.raises(CampaignError):
            first_output_differences(
                [], [], self.IN_PORTS, self.OUT_PORTS, "nope"
            )

    def test_stream_length_mismatch_truncates(self):
        golden = [(0, (1, 2), (3, 4)), (20, (1, 2), (3, 4))]
        injected = [(0, (1, 2), (3, 4))]
        assert first_output_differences(
            golden, injected, self.IN_PORTS, self.OUT_PORTS, "a"
        ) == {}
