"""Tests for the snapshot/fast-forward engine (``repro.fi.snapshot``).

The core contract: capture → restore → continue is bit-identical to an
uninterrupted run at every checkpoint, for both targets; and every
campaign driver produces bit-identical results with the fast-forward
engine on or off, on both execution backends, including the
interaction with resume-from-checkpoint files.
"""

import json

import pytest

from repro.edm.catalogue import EA_BY_NAME
from repro.errors import CampaignError
from repro.fi import (
    CampaignConfig,
    CheckpointPolicy,
    CheckpointStore,
    DetectionCampaign,
    FastForwardPolicy,
    FaultInjector,
    InputSignalFlip,
    InvocationLog,
    MemoryCampaign,
    MemoryMap,
    PeriodicMemoryFlip,
    PermeabilityCampaign,
    RecoveryCampaign,
)
from repro.fi.memory import Region
from repro.fi.snapshot import record_track
from repro.target.simulation import ArrestmentSimulator, SignalTraces
from repro.targets import get_target


def factory(tc):
    return ArrestmentSimulator(tc)


@pytest.fixture(scope="module")
def arrestment():
    return get_target("arrestment")


@pytest.fixture(scope="module")
def watertank():
    return get_target("watertank")


@pytest.fixture(scope="module")
def two_cases(test_cases):
    return [test_cases[4], test_cases[20]]


def assert_same_traces(golden, other):
    assert sorted(golden.signals()) == sorted(other.signals())
    for signal in golden.signals():
        assert list(golden.ticks_of(signal)) == list(other.ticks_of(signal))
        assert list(golden.values_of(signal)) == list(
            other.values_of(signal)
        )


# ======================================================================
# The trace container.
# ======================================================================
class TestSignalTraces:
    def build(self):
        traces = SignalTraces()
        for tick, value in [(0, 1), (3, 2), (3, 5), (9, 7)]:
            traces.record("a", tick, value)
        traces.record("b", 1, 10)
        return traces

    def test_stream_copies_accessors_do_not(self):
        traces = self.build()
        stream = traces.stream("a")
        assert stream == [(0, 1), (3, 2), (3, 5), (9, 7)]
        stream.append((99, 99))
        assert traces.stream("a") == [(0, 1), (3, 2), (3, 5), (9, 7)]
        # the no-copy accessors hand out the internal arrays
        assert traces.ticks_of("a") is traces.ticks_of("a")
        assert traces.values_of("a") is traces.values_of("a")
        assert traces.ticks_of("missing") == ()
        assert traces.lengths() == {"a": 4, "b": 1}

    def test_first_difference_identical(self):
        assert self.build().first_difference(self.build(), "a") is None
        assert self.build().first_difference(self.build(), "nope") is None

    def test_first_difference_changed_value(self):
        theirs = self.build()
        theirs._values["a"][2] = 6
        assert self.build().first_difference(theirs, "a") == 3

    def test_first_difference_shifted_tick(self):
        theirs = self.build()
        theirs._ticks["a"][3] = 8
        assert self.build().first_difference(theirs, "a") == 8

    def test_first_difference_extra_write(self):
        theirs = self.build()
        theirs.record("a", 12, 0)
        assert self.build().first_difference(theirs, "a") == 12
        assert theirs.first_difference(self.build(), "a") == 12

    def test_splice_prefix(self):
        golden = self.build()
        mine = SignalTraces()
        mine.record("a", 9, 7)
        mine.splice_prefix(golden, {"a": 2, "b": 0})
        assert mine.stream("a") == [(0, 1), (3, 2)]
        assert mine.stream("b") == []
        # slices copy: the golden arrays stay untouched
        mine.record("a", 4, 4)
        assert golden.stream("a") == [(0, 1), (3, 2), (3, 5), (9, 7)]

    def test_extend_suffix(self):
        golden = self.build()
        mine = SignalTraces()
        mine.record("a", 0, 1)
        mine.extend_suffix(golden, 3)
        assert mine.stream("a") == [(0, 1), (3, 2), (3, 5), (9, 7)]
        assert mine.stream("b") == []
        mine.extend_suffix(golden, 0)  # creates the missing stream
        assert mine.stream("b") == [(1, 10)]


# ======================================================================
# Simulator capture/restore.
# ======================================================================
class TestCaptureRestore:
    def checkpoints(self, make, ticks):
        simulator = make()
        states = {}

        def probe(tick):
            if tick in ticks:
                states[tick] = simulator.capture_state()
            return False

        simulator.set_tick_probe(probe)
        return simulator.run(), states

    def roundtrip(self, make, checkpoint_ticks):
        golden, states = self.checkpoints(make, checkpoint_ticks)
        for tick, state in states.items():
            resumed_sim = make()
            resumed_sim.restore_state(state)
            resumed = resumed_sim.run()
            assert resumed.ticks_run == golden.ticks_run, tick
            assert resumed.completion_tick == golden.completion_tick
            assert resumed.verdict == golden.verdict
            assert_same_traces(golden.traces, resumed.traces)

    def test_arrestment_bit_identical(self, mid_case):
        self.roundtrip(
            lambda: ArrestmentSimulator(mid_case), {0, 1, 7, 500, 2000, 4000}
        )

    def test_watertank_bit_identical(self, watertank):
        case = watertank.standard_test_cases()[0]
        self.roundtrip(
            lambda: watertank.simulator_factory(case), {0, 1, 7, 500, 3000}
        )

    def test_restore_skips_simulated_prefix(self, mid_case):
        _, states = self.checkpoints(
            lambda: ArrestmentSimulator(mid_case), {2000}
        )
        resumed_sim = ArrestmentSimulator(mid_case)
        seen = []
        resumed_sim.restore_state(states[2000])
        resumed_sim.set_tick_probe(lambda tick: seen.append(tick) or False)
        resumed_sim.run()
        assert seen[0] == 2000


# ======================================================================
# Lazy hook dispatch (satellite S2).
# ======================================================================
class TestHookElision:
    def probe_hooks(self, simulator):
        return simulator._hooks

    @pytest.mark.parametrize("target_name", ["arrestment", "watertank"])
    def test_unused_hooks_stay_none(self, target_name):
        target = get_target(target_name)
        simulator = target.simulator_factory(target.standard_test_cases()[0])
        hooks = self.probe_hooks(simulator)
        assert hooks.pre_tick is None
        assert hooks.marshal is None
        assert hooks.local_write is None
        assert hooks.post_tick is None
        # trace recording is on by default and rides the post_invoke hook
        assert hooks.post_invoke is not None
        simulator.record_traces = False
        assert hooks.post_invoke is None
        simulator.record_traces = True
        assert hooks.post_invoke is not None

    def test_handlers_rewire_dispatch(self, mid_case):
        simulator = ArrestmentSimulator(mid_case, record_traces=False)
        hooks = self.probe_hooks(simulator)
        assert hooks.post_invoke is None
        simulator.add_pre_tick(lambda tick: None)
        assert hooks.pre_tick is not None
        simulator.add_post_invoke(lambda record: None)
        assert hooks.post_invoke is not None

    def test_injected_run_still_works_without_traces(self, mid_case):
        simulator = ArrestmentSimulator(mid_case, record_traces=False)
        injector = FaultInjector(
            InputSignalFlip("ADC", 100, 3)
        ).attach(simulator)
        result = simulator.run()
        assert injector.injected
        assert result.traces.signals() == []


# ======================================================================
# Injector quiescence.
# ======================================================================
class TestFFQuiescent:
    def test_one_shot_quiesces_after_the_flip(self, mid_case):
        simulator = ArrestmentSimulator(mid_case, record_traces=False)
        injector = FaultInjector(
            InputSignalFlip("ADC", 50, 2)
        ).attach(simulator)
        assert not injector.ff_quiescent
        simulator.run()
        assert injector.injected
        assert injector.ff_quiescent

    def test_periodic_never_quiesces(self, mid_case):
        simulator = ArrestmentSimulator(mid_case, record_traces=False)
        location = MemoryMap(simulator.system).locations(Region.RAM)[0]
        injector = FaultInjector(
            PeriodicMemoryFlip(location, 1, period_ticks=20, start_tick=3)
        ).attach(simulator)
        simulator.run()
        assert injector.injected
        assert not injector.ff_quiescent


# ======================================================================
# Golden-log priming.
# ======================================================================
class TestInvocationLogPrime:
    def test_prime_copies_the_prefix(self, mid_case):
        golden_sim = ArrestmentSimulator(mid_case, record_traces=False)
        golden_log = InvocationLog(["PRES_S"]).attach(golden_sim)
        golden_sim.run()
        source = golden_log.stream("PRES_S")
        cut_tick = source[len(source) // 2][0]

        primed = InvocationLog(["PRES_S"])
        primed._port_order = dict(golden_log._port_order)
        primed.prime(golden_log, cut_tick)
        prefix = primed.stream("PRES_S")
        assert prefix == [e for e in source if e[0] < cut_tick]
        # the primed stream is a copy: growing it leaves golden alone
        prefix.append((10**9, (), ()))
        assert (10**9, (), ()) not in golden_log.stream("PRES_S")

    def test_prime_at_tick_zero_is_a_no_op(self, mid_case):
        golden_sim = ArrestmentSimulator(mid_case, record_traces=False)
        golden_log = InvocationLog(["PRES_S"]).attach(golden_sim)
        golden_sim.run()
        primed = InvocationLog(["PRES_S"])
        primed._port_order = dict(golden_log._port_order)
        primed.prime(golden_log, 0)
        assert primed.stream("PRES_S") == []


# ======================================================================
# The checkpoint-track cache.
# ======================================================================
class TestCheckpointStore:
    def test_stride_validation(self, mid_case):
        with pytest.raises(CampaignError):
            record_track(factory, mid_case, 0)
        with pytest.raises(CampaignError):
            CheckpointStore(max_tracks=0)

    def test_track_shape(self, mid_case):
        track = record_track(factory, mid_case, 1024)
        assert 0 in track.states
        assert all(tick % 1024 == 0 for tick in track.states)
        assert track.end_ticks > 0
        assert track.bank_states is None
        # nearest() floors to the stride grid
        assert track.nearest(1030).tick == 1024
        assert track.nearest(1023).tick == 0

    def test_bank_rides_along(self, mid_case):
        specs = list(EA_BY_NAME.values())
        track = record_track(factory, mid_case, 2048, bank_specs=specs)
        assert set(track.bank_states) == set(track.states)
        assert set(track.bank_final) == {spec.name for spec in specs}

    def test_cache_hits_and_lru(self, two_cases):
        store = CheckpointStore(max_tracks=1)
        store.get("arrestment", factory, two_cases[0], 2048)
        store.get("arrestment", factory, two_cases[0], 2048)
        assert (store.hits, store.misses) == (1, 1)
        store.get("arrestment", factory, two_cases[1], 2048)
        assert len(store) == 1  # the first track was evicted
        store.get("arrestment", factory, two_cases[0], 2048)
        assert store.misses == 3

    def test_bank_signature_distinguishes_tracks(self, mid_case):
        store = CheckpointStore()
        specs = list(EA_BY_NAME.values())
        store.get("arrestment", factory, mid_case, 2048, None)
        store.get("arrestment", factory, mid_case, 2048, specs)
        assert store.misses == 2


# ======================================================================
# Campaign-level A/B: fast-forward on vs off (the tentpole contract).
# ======================================================================
class TestCampaignFastForwardAB:
    def config(self, ff, jobs=1, checkpoint=CheckpointPolicy(),
               **fastforward):
        return CampaignConfig(
            seed=7, jobs=jobs, checkpoint=checkpoint,
            fastforward=FastForwardPolicy(enabled=ff, **fastforward),
        )

    def test_detection_bit_identical(self, two_cases):
        specs = list(EA_BY_NAME.values())

        def run(ff, **kwargs):
            campaign = DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=3, targets=["ADC", "TCNT"],
                config=self.config(ff, **kwargs),
            )
            return campaign.run(), campaign.telemetry

        off, t_off = run(False)
        on, t_on = run(True)
        assert off.n_injected == on.n_injected
        assert off.n_err == on.n_err
        assert off.detections == on.detections
        assert off.run_records == on.run_records
        assert off.run_latencies == on.run_latencies
        assert t_on.counts["ff_ticks_skipped"] > 0
        assert t_on.counts["ff_restores"] > 0
        assert t_off.counts["ff_ticks_skipped"] == 0
        assert "fast-forward" in t_on.render()
        assert "fast-forward" not in t_off.render()

        parallel, t_par = run(True, jobs=2)
        assert parallel.detections == off.detections
        assert parallel.run_records == off.run_records
        assert parallel.run_latencies == off.run_latencies
        assert t_par.counts["ff_ticks_skipped"] > 0

    @pytest.mark.slow
    def test_permeability_bit_identical(self, two_cases):
        def run(ff, **kwargs):
            return PermeabilityCampaign(
                factory, two_cases, runs_per_input=2,
                config=self.config(ff, **kwargs),
            ).run()

        off = run(False)
        on = run(True)
        assert off.direct_counts == on.direct_counts
        assert off.active_runs == on.active_runs
        assert off.values == on.values
        parallel = run(True, jobs=2)
        assert parallel.values == off.values
        assert parallel.direct_counts == off.direct_counts

    @pytest.mark.slow
    def test_memory_and_recovery_bit_identical(self, two_cases):
        specs = list(EA_BY_NAME.values())
        locations = MemoryMap(factory(two_cases[0]).system).locations()[::25]

        def run_memory(ff, **kwargs):
            campaign = MemoryCampaign(
                factory, two_cases[:1], specs, locations=locations,
                config=self.config(ff, **kwargs),
            )
            return campaign.run(), campaign.telemetry

        off, _ = run_memory(False)
        on, t_on = run_memory(True)
        assert off.records == on.records
        # default phases land before the first checkpoint: the engine
        # must stay entirely out of the way
        assert t_on.counts["ff_restores"] == 0
        assert t_on.counts["ff_tracks_recorded"] == 0
        parallel, _ = run_memory(True, jobs=2)
        assert parallel.records == off.records

        def run_recovery(ff):
            return RecoveryCampaign(
                factory, two_cases[:1], specs, locations=locations,
                config=self.config(ff),
            ).run()

        assert run_recovery(False).outcomes == run_recovery(True).outcomes

    def test_watertank_detection_bit_identical(self, watertank):
        cases = watertank.standard_test_cases()[::12]
        specs = watertank.assertion_specs()

        def run(ff):
            campaign = DetectionCampaign(
                watertank, cases, specs, runs_per_signal=3,
                config=self.config(ff),
            )
            return campaign.run(), campaign.telemetry

        off, _ = run(False)
        on, t_on = run(True)
        assert off.n_err == on.n_err
        assert off.detections == on.detections
        assert off.run_records == on.run_records
        assert off.run_latencies == on.run_latencies
        assert t_on.counts["ff_ticks_skipped"] > 0

    def test_stride_choice_does_not_change_results(self, two_cases):
        specs = list(EA_BY_NAME.values())

        def run(**kwargs):
            return DetectionCampaign(
                factory, two_cases[:1], specs,
                runs_per_signal=2, targets=["ADC"],
                config=self.config(True, **kwargs),
            ).run()

        baseline = run()
        for stride in (64, 500, 4096):
            got = run(checkpoint_stride=stride)
            assert got.detections == baseline.detections
            assert got.run_records == baseline.run_records
            assert got.run_latencies == baseline.run_latencies

    def test_resume_across_fast_forward_modes(self, two_cases, tmp_path):
        """A checkpoint file written with the engine off resumes with
        the engine on (and vice versa) to the same final result."""
        specs = list(EA_BY_NAME.values())
        path = str(tmp_path / "detection.json")

        def campaign(ff, **kwargs):
            return DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=3, targets=["ADC", "TCNT"],
                config=self.config(ff, **kwargs),
            )

        fresh = campaign(True).run()
        campaign(False, checkpoint=CheckpointPolicy(path=path, every=1)).run()

        # kill: keep only the first four completed tasks
        with open(path) as handle:
            payload = json.load(handle)
        payload["results"] = {
            k: v for k, v in payload["results"].items() if int(k) < 4
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

        resumed_campaign = campaign(
            True, checkpoint=CheckpointPolicy(path=path), jobs=2
        )
        resumed = resumed_campaign.run()
        assert resumed.detections == fresh.detections
        assert resumed.run_records == fresh.run_records
        assert resumed.run_latencies == fresh.run_latencies
        assert resumed_campaign.telemetry.resumed_runs == 4


class TestTrackPool:
    """The shared-memory checkpoint pool: flattened tracks rebuild
    bit-identical states, and campaigns are invisible to pooling."""

    def _track_and_pool(self, test_cases):
        from repro.fi.snapshot import TrackPool

        specs = list(EA_BY_NAME.values())
        track = record_track(factory, test_cases[4], 64, specs)
        pool = TrackPool()
        assert pool.publish(test_cases[4].case_id, track)
        return track, pool.get(test_cases[4].case_id)

    def test_pooled_states_roundtrip_exactly(self, test_cases):
        from repro.fi.snapshot import _state_leaves

        track, pooled = self._track_and_pool(test_cases)
        for tick, golden in sorted(track.states.items()):
            rebuilt = pooled.states[tick]
            assert rebuilt.matches(golden)
            # matches() compares values; the leaves comparison also
            # pins the exact python types (int vs float vs bool)
            assert _state_leaves(rebuilt) == _state_leaves(golden)
        assert pooled.final_state.matches(track.final_state)
        assert pooled.bank_states == track.bank_states
        assert pooled.bank_final == track.bank_final
        assert pooled.end_ticks == track.end_ticks

    def test_pooled_nearest_agrees_with_dict_track(self, test_cases):
        track, pooled = self._track_and_pool(test_cases)
        last = max(track.states)
        for tick in (0, 1, 63, 64, 65, 127, last, last + 5):
            assert pooled.nearest(tick).matches(track.nearest(tick))
        assert pooled.states.get(7) is None
        with pytest.raises(KeyError):
            pooled.states[7]

    def test_rebuilt_states_are_independent(self, test_cases):
        """Opaque leaves are copied per rebuild: mutating one restored
        state never leaks into the next restore."""
        track, pooled = self._track_and_pool(test_cases)
        tick = max(track.states)
        first = pooled.states[tick]
        first.signals["ADC"] = -999
        first.loop["ticks_run"] = -1
        assert pooled.states[tick].matches(track.states[tick])

    def test_unpoolable_track_is_refused(self, test_cases):
        """States with differing leaf shapes fall back to dicts."""
        from repro.fi.snapshot import TrackPool

        track = record_track(factory, test_cases[4], 256)
        mangled = track.states[0]
        mangled.loop["extra"] = 1  # shape now differs from the rest
        pool = TrackPool()
        assert not pool.publish(test_cases[4].case_id, track)
        assert pool.get(test_cases[4].case_id) is None

    def test_campaign_bit_identical_pool_on_off(self, two_cases, monkeypatch):
        specs = list(EA_BY_NAME.values())

        def run():
            campaign = DetectionCampaign(
                factory, two_cases, specs,
                runs_per_signal=3, targets=["ADC", "TCNT"],
                config=CampaignConfig(seed=7),
            )
            result = campaign.run()
            return (
                result.n_injected, result.n_err, result.detections,
                result.run_records, result.run_latencies,
            ), campaign.telemetry

        on, t_on = run()
        # a host without shared memory keeps the dict tracks
        monkeypatch.setattr(
            "repro.fi.snapshot.shm_available", lambda: False
        )
        off, t_off = run()
        assert on == off
        # both runs really fast-forwarded (the pool changes where the
        # checkpoint bytes live, not whether restores happen)
        assert t_on.counts["ff_restores"] > 0
        assert t_off.counts["ff_restores"] > 0

    def test_preload_fills_the_pool(self, two_cases):
        from repro.fi.snapshot import CheckpointStore, FastForward
        from repro.fi.shm import shm_available

        if not shm_available():
            pytest.skip("shared memory unavailable")
        engine = FastForward(
            factory, "arrestment", CampaignConfig(),
            store=CheckpointStore(max_tracks=4),
        )
        engine.preload(two_cases)
        assert engine.pooled_tracks == len(two_cases)
        for case in two_cases:
            assert engine._pool.get(case.case_id) is not None


class TestConfigKnobs:
    def test_stride_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(
                fastforward=FastForwardPolicy(checkpoint_stride=0)
            )

    def test_context_threads_the_knobs(self):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(
            scale="test", fast_forward=False, checkpoint_stride=512,
        )
        config = ctx.campaign_config("detection")
        assert config.fastforward.enabled is False
        assert config.fastforward.checkpoint_stride == 512

    def test_cli_flags_reach_the_context(self):
        from repro.experiments.__main__ import (
            add_execution_options,
            context_from_args,
        )
        import argparse

        parser = argparse.ArgumentParser()
        add_execution_options(parser)
        args = parser.parse_args(
            ["--no-fast-forward", "--checkpoint-stride", "128"]
        )
        ctx = context_from_args(args)
        assert ctx.config.fastforward.enabled is False
        assert ctx.config.fastforward.checkpoint_stride == 128
