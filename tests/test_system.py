"""Unit tests for repro.model.system (wiring, store, schedule, executor)."""

import pytest

from repro.errors import ModelError, SchedulingError, UnknownSignalError, WiringError
from repro.model.module import CellSpec, FunctionModule
from repro.model.signal import SignalRole, SignalSpec, SignalType
from repro.model.system import (
    ExecutorHooks,
    SlotSchedule,
    SystemExecutor,
    SystemModel,
)


def build_chain():
    """IN -> A -> mid -> B -> OUT, plus a self-loop on A."""
    system = SystemModel("chain")
    system.add_signal(
        SignalSpec("IN", role=SignalRole.SYSTEM_INPUT)
    )
    system.add_signal(SignalSpec("mid"))
    system.add_signal(SignalSpec("loop"))
    system.add_signal(
        SignalSpec("OUT", role=SignalRole.SYSTEM_OUTPUT)
    )
    a = FunctionModule(
        "A", inputs=["in", "fb"], outputs=["mid", "loop"],
        fn=lambda args, state: {
            "mid": args["in"] + 1, "loop": args["fb"] + 1,
        },
    )
    b = FunctionModule(
        "B", inputs=["mid"], outputs=["out"],
        fn=lambda args, state: {"out": 2 * args["mid"]},
    )
    system.add_module(a)
    system.add_module(b)
    system.connect_input("IN", "A", "in")
    system.connect_input("loop", "A", "fb")
    system.bind_output("mid", "A", "mid")
    system.bind_output("loop", "A", "loop")
    system.connect_input("mid", "B", "mid")
    system.bind_output("OUT", "B", "out")
    return system


class TestWiring:
    def test_valid_chain_passes_validation(self):
        build_chain().validate()

    def test_duplicate_module_rejected(self):
        system = SystemModel()
        system.add_module(FunctionModule(
            "A", inputs=[], outputs=["y"], fn=lambda a, s: {"y": 0}))
        with pytest.raises(ModelError):
            system.add_module(FunctionModule(
                "A", inputs=[], outputs=["y"], fn=lambda a, s: {"y": 0}))

    def test_duplicate_signal_rejected(self):
        system = SystemModel()
        system.add_signal(SignalSpec("s"))
        with pytest.raises(ModelError):
            system.add_signal(SignalSpec("s"))

    def test_unconnected_input_fails_validation(self):
        system = build_chain()
        system.add_module(FunctionModule(
            "C", inputs=["dangling"], outputs=["w"],
            fn=lambda a, s: {"w": 0}))
        system.add_signal(SignalSpec("w_sig", role=SignalRole.SYSTEM_OUTPUT))
        system.bind_output("w_sig", "C", "w")
        with pytest.raises(WiringError, match="dangling"):
            system.validate()

    def test_two_drivers_rejected(self):
        system = build_chain()
        with pytest.raises(WiringError):
            system.bind_output("mid", "B", "out")

    def test_system_input_cannot_have_producer(self):
        system = build_chain()
        system.add_module(FunctionModule(
            "C", inputs=[], outputs=["w"], fn=lambda a, s: {"w": 0}))
        with pytest.raises(WiringError):
            system.bind_output("IN", "C", "w")

    def test_input_port_single_binding(self):
        system = build_chain()
        with pytest.raises(WiringError):
            system.connect_input("mid", "A", "in")

    def test_unknown_signal_lookup(self):
        system = build_chain()
        with pytest.raises(UnknownSignalError):
            system.signal("nope")

    def test_signal_without_consumer_fails_validation(self):
        system = build_chain()
        system.add_signal(SignalSpec("orphan"))
        system.add_module(FunctionModule(
            "C", inputs=[], outputs=["w"], fn=lambda a, s: {"w": 0}))
        system.bind_output("orphan", "C", "w")
        with pytest.raises(WiringError, match="orphan"):
            system.validate()


class TestQueries:
    def test_system_inputs_outputs(self):
        system = build_chain()
        assert system.system_inputs() == ["IN"]
        assert system.system_outputs() == ["OUT"]

    def test_producer_consumers(self):
        system = build_chain()
        assert system.producer_of("mid").module == "A"
        assert system.producer_of("IN") is None
        consumers = system.consumers_of("mid")
        assert len(consumers) == 1 and consumers[0].module == "B"

    def test_io_pairs_count(self):
        system = build_chain()
        # A: 2 inputs x 2 outputs + B: 1 x 1
        assert len(system.io_pairs()) == 5
        assert len(system.io_pairs("A")) == 4

    def test_io_pair_indices(self):
        system = build_chain()
        pair = [
            p for p in system.io_pairs("A")
            if p.in_port == "fb" and p.out_port == "loop"
        ][0]
        assert (pair.in_index, pair.out_index) == (2, 2)
        assert pair.label == "P^A_{2,2}"
        assert pair.in_signal == "loop" and pair.out_signal == "loop"

    def test_pairs_into_and_from_signal(self):
        system = build_chain()
        into_mid = system.pairs_into_signal("mid")
        assert {p.in_signal for p in into_mid} == {"IN", "loop"}
        from_mid = system.pairs_from_signal("mid")
        assert {p.out_signal for p in from_mid} == {"OUT"}

    def test_arrestment_has_25_pairs(self, system):
        assert len(system.io_pairs()) == 25


class TestSignalStore:
    def test_initial_values(self):
        system = build_chain()
        from repro.model.system import SignalStore
        store = SignalStore(system)
        assert store["IN"] == 0

    def test_write_quantizes(self):
        system = SystemModel()
        system.add_signal(SignalSpec("s", SignalType.UINT, width=8))
        from repro.model.system import SignalStore
        store = SignalStore(system)
        store["s"] = 257
        assert store["s"] == 1

    def test_unknown_signal(self):
        system = build_chain()
        from repro.model.system import SignalStore
        store = SignalStore(system)
        with pytest.raises(UnknownSignalError):
            store["nope"]


class TestSlotSchedule:
    def test_modules_for_tick_cycles(self):
        sched = SlotSchedule(3)
        sched.every_tick("CLK").assign(0, "A").assign(2, "B")
        assert sched.modules_for_tick(0) == ["CLK", "A"]
        assert sched.modules_for_tick(1) == ["CLK"]
        assert sched.modules_for_tick(2) == ["CLK", "B"]
        assert sched.modules_for_tick(3) == ["CLK", "A"]

    def test_bad_slot_rejected(self):
        sched = SlotSchedule(3)
        with pytest.raises(SchedulingError):
            sched.assign(3, "A")

    def test_nonpositive_slots_rejected(self):
        with pytest.raises(SchedulingError):
            SlotSchedule(0)

    def test_validate_against_unknown_module(self):
        system = build_chain()
        sched = SlotSchedule(2)
        sched.assign(0, "A").assign(1, "B").assign(1, "GHOST")
        with pytest.raises(SchedulingError, match="GHOST"):
            sched.validate_against(system)

    def test_validate_against_unscheduled_module(self):
        system = build_chain()
        sched = SlotSchedule(2)
        sched.assign(0, "A")
        with pytest.raises(SchedulingError, match="B"):
            sched.validate_against(system)


def full_schedule():
    sched = SlotSchedule(2)
    sched.assign(0, "A").assign(1, "B")
    return sched


class TestSystemExecutor:
    def test_run_tick_propagates_values(self):
        system = build_chain()
        executor = SystemExecutor(system, full_schedule())
        executor.store["IN"] = 10
        executor.run_tick()  # slot 0: A
        assert executor.store["mid"] == 11
        executor.run_tick()  # slot 1: B
        assert executor.store["OUT"] == 22

    def test_self_loop_signal_accumulates(self):
        system = build_chain()
        executor = SystemExecutor(system, full_schedule())
        for _ in range(4):
            executor.run_tick()
        # A ran at ticks 0 and 2 -> loop incremented twice
        assert executor.store["loop"] == 2

    def test_reset(self):
        system = build_chain()
        executor = SystemExecutor(system, full_schedule())
        executor.store["IN"] = 10
        executor.run(4)
        executor.reset()
        assert executor.tick == 0
        assert executor.store["mid"] == 0

    def test_marshal_hook_rewrites_args(self):
        system = build_chain()
        hooks = ExecutorHooks(
            marshal=lambda module, args: (
                {**args, "in": 100} if module == "A" else args
            )
        )
        executor = SystemExecutor(system, full_schedule(), hooks)
        executor.run_tick()
        assert executor.store["mid"] == 101

    def test_post_invoke_hook_sees_records(self):
        system = build_chain()
        seen = []
        hooks = ExecutorHooks(post_invoke=seen.append)
        executor = SystemExecutor(system, full_schedule(), hooks)
        executor.run_tick()
        assert [r.module for r in seen] == ["A"]
        assert seen[0].tick == 0
        assert seen[0].outputs["mid"] == 1

    def test_pre_and_post_tick_hooks_fire_in_order(self):
        system = build_chain()
        events = []
        hooks = ExecutorHooks(
            pre_tick=lambda t: events.append(("pre", t)),
            post_tick=lambda t: events.append(("post", t)),
        )
        executor = SystemExecutor(system, full_schedule(), hooks)
        executor.run(2)
        assert events == [("pre", 0), ("post", 0), ("pre", 1), ("post", 1)]

    def test_run_tick_dispatches_the_slot_a_signal_names(self):
        seen = []
        executor = SystemExecutor(
            build_chain(), full_schedule(),
            ExecutorHooks(post_invoke=seen.append),
        )
        for slot in (1, 0, 7):  # slot 7 is out of range: nothing runs
            executor.store["IN"] = slot
            executor.run_tick("IN")
        assert [(r.tick, r.module) for r in seen] == [(0, "B"), (1, "A")]
        assert executor.tick == 3

    def test_invalid_wiring_rejected_at_construction(self):
        system = build_chain()
        system.add_signal(SignalSpec("orphan"))
        system.add_module(FunctionModule(
            "C", inputs=[], outputs=["w"], fn=lambda a, s: {"w": 0}))
        system.bind_output("orphan", "C", "w")
        with pytest.raises(WiringError):
            SystemExecutor(system, full_schedule())
