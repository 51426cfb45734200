"""The hook-dispatch contract, checked on both simulators.

Every campaign driver attaches to a simulator through ``add_pre_tick``
/ ``add_marshal`` / ``add_local_write`` / ``add_post_invoke`` /
``add_post_tick``.  Both simulators share one plumbing for these
(:class:`repro.model.system.HookedSimulator`); the contract it keeps:

* handlers fire in registration order;
* ``marshal`` and ``local_write`` handlers chain — each receives the
  value the previous one returned — and the executor gets the last
  one's value;
* traces are recorded before any ``post_invoke`` handler sees the
  invocation;
* switching trace recording off keeps attached handlers firing;
* a single handler is installed on the executor directly, and a
  second one added later is still called.
"""

from __future__ import annotations

import pytest

from repro.fi.integrity import run_digest
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import standard_test_cases
from repro.watertank.simulation import WaterTankSimulator
from repro.watertank.testcases import standard_tank_cases

#: target -> (300-tick simulator factory, slot sequencer, its slot output)
TARGETS = {
    "arrestment": (
        lambda **kw: ArrestmentSimulator(
            standard_test_cases()[12], timeout_s=0.3, **kw
        ),
        "CLOCK", "ms_slot_nbr",
    ),
    "watertank": (
        lambda **kw: WaterTankSimulator(
            standard_tank_cases()[0], mission_ticks=300, **kw
        ),
        "TIMER", "tick_nbr",
    ),
}
TICKS = 300
KINDS = ("pre_tick", "marshal", "local_write", "post_invoke", "post_tick")


@pytest.fixture(params=sorted(TARGETS))
def target(request):
    return TARGETS[request.param]


def _pass_through(kind, log, i):
    """A handler of hook *kind* that logs *i* and changes nothing."""
    if kind == "marshal":
        return lambda module, args: (log.append(i), args)[1]
    if kind == "local_write":
        return lambda module, name, value: (log.append(i), value)[1]
    return lambda arg: log.append(i)


def _key(kind, arg):
    return (arg.tick, arg.module) if kind == "post_invoke" else arg


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("kind", ["pre_tick", "post_invoke", "post_tick"])
def test_observers_fire_in_registration_order(target, kind, n):
    make, _, _ = target
    simulator = make()
    log = []
    for i in range(n):
        getattr(simulator, f"add_{kind}")(
            lambda arg, i=i: log.append((i, _key(kind, arg)))
        )
    if n == 0 and kind != "post_invoke":
        assert getattr(simulator._hooks, kind) is None
    result = simulator.run()
    # observers never perturb the run
    assert run_digest(result) == run_digest(make().run())
    keys = [key for i, key in log if i == 0]
    assert log == [(i, key) for key in keys for i in range(n)]
    if n and kind != "post_invoke":
        assert keys == list(range(TICKS))
    if n and kind == "post_invoke":
        assert len(keys) > TICKS  # the sequencer alone runs every tick


@pytest.mark.parametrize("n", [0, 1, 2])
def test_marshal_handlers_chain(target, n):
    make, _, _ = target
    simulator = make()
    calls = []  # (handler, module, args received, args returned)

    def marshal(i):
        def handler(module, args):
            out = {**args, f"__h{i}": i}
            calls.append((i, module, args, out))
            return out
        return handler

    for i in range(n):
        simulator.add_marshal(marshal(i))
    invoked = []
    simulator.add_post_invoke(
        lambda record: invoked.append((record.module, record.inputs))
    )
    result = simulator.run()
    # the marker keys ride along unread: the run is the golden one
    assert run_digest(result) == run_digest(make().run())
    assert len(calls) == n * len(invoked)
    for k, (module, inputs) in enumerate(invoked):
        chain = calls[k * n:(k + 1) * n]
        assert [c[0] for c in chain] == list(range(n))
        assert all(c[1] == module for c in chain)
        for before, after in zip(chain, chain[1:]):
            assert after[2] is before[3]
        if n:
            assert inputs is chain[-1][3]
        else:
            assert not any(key.startswith("__h") for key in inputs)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_local_write_handlers_chain(target, n):
    make, sequencer, slot_port = target
    simulator = make()
    calls = []  # (handler, value received, value returned)

    def local_write(i):
        def handler(module, name, value):
            if module != sequencer or name != "next_slot":
                return value
            out = value ^ (1 << i)
            calls.append((i, value, out))
            return out
        return handler

    for i in range(n):
        simulator.add_local_write(local_write(i))
    stored = []
    simulator.add_post_invoke(
        lambda record: (
            stored.append(record.outputs[slot_port])
            if record.module == sequencer else None
        )
    )
    simulator.run()
    assert len(stored) == TICKS
    assert len(calls) == n * TICKS
    for tick in range(TICKS if n else 0):
        chain = calls[tick * n:(tick + 1) * n]
        assert [c[0] for c in chain] == list(range(n))
        for before, after in zip(chain, chain[1:]):
            assert after[1] == before[2]
        # the sequencer outputs the local it wrote: the last value
        assert stored[tick] == chain[-1][2]


def test_traces_are_recorded_before_post_invoke_handlers(target):
    make, _, _ = target
    simulator = make()
    seen = []

    def handler(record):
        traces = simulator.traces
        for port, value in record.outputs.items():
            signal = simulator.system.signal_of_output(record.module, port)
            assert traces.ticks_of(signal)[-1] == record.tick
            assert traces.values_of(signal)[-1] == value
        seen.append(record.module)

    simulator.add_post_invoke(handler)
    simulator.run()
    assert len(seen) > TICKS


def test_disabling_traces_keeps_handlers_firing(target):
    make, _, _ = target
    simulator = make()
    seen = []
    simulator.add_post_invoke(lambda record: seen.append(record.module))
    simulator.record_traces = False
    result = simulator.run()
    assert len(seen) > TICKS
    assert result.traces.signals() == []


@pytest.mark.parametrize("kind", KINDS)
def test_second_handler_joins_a_directly_installed_one(target, kind):
    make, _, _ = target
    simulator = make(record_traces=False)
    log = []
    first = _pass_through(kind, log, 0)
    getattr(simulator, f"add_{kind}")(first)
    assert getattr(simulator._hooks, kind) is first
    getattr(simulator, f"add_{kind}")(_pass_through(kind, log, 1))
    simulator.run()
    assert log and log == [0, 1] * (len(log) // 2)
