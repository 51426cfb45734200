"""The six software modules of the arrestment system (paper Fig. 4).

CLOCK drives the static slot schedule; DIST_S samples the run-out
pulse counters; CALC selects the pressure set-point from the
mass-setting calibration and the pressure program; PRES_S filters the
pressure feedback; V_REG closes the PI loop; PRES_A scales the output
to the actuator register.  Behavioural details and the calibration
rationale are documented in ``docs/target-system.md``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.model.module import CellSpec, ExecutionContext, Module
from repro.model.signal import Number, SignalType
from repro.target import constants as C

__all__ = ["Clock", "DistS", "Calc", "PresS", "VReg", "PresA"]

_U8 = dict(width=8)
_U16 = dict(width=16)


class Clock(Module):
    """Millisecond clock and slot sequencer (runs every tick).

    The successor of each slot lives in a RAM table, as on the real
    target where the scheduler walks a static dispatch structure — a
    corrupted table entry really does re-wire the cycle.
    """

    INPUTS = ("ms_slot_nbr",)
    OUTPUTS = ("ms_slot_nbr", "mscnt")
    #: the successor-table cell of each slot
    SUCC = tuple(f"slot_succ{slot}" for slot in range(C.N_SLOTS))
    STATE = (CellSpec("mscnt", **_U16),) + tuple(
        CellSpec(name, initial=(slot + 1) % C.N_SLOTS, **_U8)
        for slot, name in enumerate(SUCC)
    )
    LOCALS = (CellSpec("next_slot", **_U8),)

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        slot = ctx.arg("ms_slot_nbr")
        if 0 <= slot < C.N_SLOTS:
            nxt = self.state[self.SUCC[slot]]
        else:
            nxt = 0  # corrupted slot number: restart the cycle
        nxt = ctx.set_local("next_slot", nxt)
        self.state["mscnt"] = self.state["mscnt"] + 1
        return {"ms_slot_nbr": nxt, "mscnt": self.state["mscnt"]}


class DistS(Module):
    """Run-out distance and speed sensor module.

    Accumulates pulse-counter deltas into ``pulscnt``, estimates slow
    speed from a pulse-delta window (with a debounced capture-interval
    path as backup), and latches ``stopped`` after a quiet period.
    """

    INPUTS = ("PACNT", "TIC1", "TCNT")
    OUTPUTS = ("pulscnt", "slow_speed", "stopped")
    #: the pulse-delta window cells
    WINDOW = tuple(f"win{j}" for j in range(C.SPEED_WINDOW))
    STATE = (
        (
            CellSpec("last_cnt", **_U8),
            CellSpec("pulscnt_acc", **_U16),
        )
        + tuple(CellSpec(name, **_U8) for name in WINDOW)
        + (
            CellSpec("win_pos", **_U8),
            CellSpec("win_fill", **_U8),
            CellSpec("intv_streak", **_U8),
            CellSpec("quiet", **_U8),
            CellSpec("halted", width=1),
        )
    )
    LOCALS = (CellSpec("delta", **_U8),)

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        state = self.state
        delta = ctx.set_local(
            "delta", (ctx.arg("PACNT") - state["last_cnt"]) & 0xFF
        )
        state["last_cnt"] = ctx.arg("PACNT")
        state["pulscnt_acc"] = state["pulscnt_acc"] + delta

        # pulse-rate window: fewer than SLOW_PULSE_THRESHOLD pulses in
        # SPEED_WINDOW invocations (160 ms) means v < ~12.5 m/s.
        pos = state["win_pos"] % C.SPEED_WINDOW
        state[self.WINDOW[pos]] = delta
        state["win_pos"] = state["win_pos"] + 1
        state["win_fill"] = min(state["win_fill"] + 1, C.SPEED_WINDOW)
        window_sum = sum(state[name] for name in self.WINDOW)
        pulse_slow = (
            state["win_fill"] >= C.SPEED_WINDOW
            and window_sum < C.SLOW_PULSE_THRESHOLD
        )

        # capture-interval backup path, debounced over two invocations
        # so a single corrupted capture cannot assert the flag.
        interval = (ctx.arg("TCNT") - ctx.arg("TIC1")) & 0xFFFF
        if interval > C.SLOW_INTERVAL_TCNT:
            state["intv_streak"] = min(state["intv_streak"] + 1, 255)
        else:
            state["intv_streak"] = 0
        interval_slow = state["intv_streak"] >= 2

        # stop detection: a latched quiet period with no pulses.
        if delta == 0:
            state["quiet"] = min(state["quiet"] + 1, 255)
        else:
            state["quiet"] = 0
        if state["quiet"] >= C.STOPPED_QUIET_INVOCATIONS:
            state["halted"] = 1

        return {
            "pulscnt": state["pulscnt_acc"],
            "slow_speed": 1 if (pulse_slow or interval_slow) else 0,
            "stopped": state["halted"],
        }


class Calc(Module):
    """Set-point calculation from the pressure program (paper: CALC).

    The program index ``i`` advances one segment per invocation as the
    run-out passes 64-pulse boundaries; the selected program fraction,
    scaled by the weight-setting calibration, becomes the target, which
    is bounded by the onset time ramp and slew-limited into SetValue.
    """

    INPUTS = ("i", "mscnt", "pulscnt", "slow_speed", "stopped")
    OUTPUTS = ("i", "SetValue")
    STATE = (
        CellSpec("set_prev", **_U16),
        CellSpec("last_mscnt", **_U16),
    )
    LOCALS = (CellSpec("target", **_U16),)

    def __init__(
        self,
        name: Optional[str] = None,
        pressure_scale: Optional[int] = None,
    ):
        super().__init__(name)
        if pressure_scale is None:
            pressure_scale = C.pressure_scale_counts(C.TEST_MASSES_KG[2])
        self.pressure_scale = pressure_scale

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        state = self.state
        i = ctx.arg("i")
        mscnt = ctx.arg("mscnt")

        i_out = i
        if (
            not ctx.arg("stopped")
            and i < len(C.PRESSURE_PROGRAM) - 1
            and (ctx.arg("pulscnt") >> C.SEG_SHIFT) > i
        ):
            i_out = i + 1

        fraction = C.PRESSURE_PROGRAM[i & (len(C.PRESSURE_PROGRAM) - 1)]
        if ctx.arg("slow_speed"):
            target = int(C.SLOW_SPEED_TARGET * self.pressure_scale)
        else:
            target = int(fraction * self.pressure_scale)
        target = min(target, mscnt * C.TIME_RAMP_PER_MS)
        target = ctx.set_local("target", target)

        prev = state["set_prev"]
        dt = (mscnt - state["last_mscnt"]) & 0xFFFF
        step = C.SETVALUE_RATE_PER_MS * min(dt, C.SETVALUE_DT_CLAMP)
        if target > prev:
            new = min(prev + step, target)
        elif target < prev:
            new = max(prev - step, target)
        else:
            new = prev
        state["set_prev"] = new
        state["last_mscnt"] = mscnt
        return {"i": i_out, "SetValue": new}


class PresS(Module):
    """Pressure sensor filter (paper: PRES_S).

    Scales the 10-bit ADC reading to engineering counts, gates
    implausible jumps (re-synchronizing after a persistent streak),
    median-filters the accepted history, and quantizes the output.
    """

    INPUTS = ("ADC",)
    OUTPUTS = ("IsValue",)

    #: output quantization step (counts).
    QUANTUM = 1024
    #: implausible readings tolerated before the gate re-synchronizes.
    MAX_REJECT_STREAK = 5
    #: median filter depth.
    DEPTH = 5
    #: the accepted-history cells, oldest first
    HISTORY = tuple(f"h{j}" for j in range(DEPTH))

    STATE = (
        (CellSpec("last", **_U16),)
        + tuple(CellSpec(name, **_U16) for name in HISTORY)
        + (CellSpec("rejects", **_U8),)
    )
    LOCALS = (CellSpec("scaled", **_U16),)

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        state = self.state
        scaled = ctx.set_local("scaled", ctx.arg("ADC") << 6)
        accept = True
        if abs(scaled - state["last"]) > C.PRES_MAX_JUMP:
            rejects = state["rejects"] + 1
            if rejects > self.MAX_REJECT_STREAK:
                state["rejects"] = 0  # persistent: re-synchronize
            else:
                state["rejects"] = rejects
                accept = False
        else:
            state["rejects"] = 0
        if accept:
            state["last"] = scaled
            history = self.HISTORY
            for older, newer in zip(history, history[1:]):
                state[older] = state[newer]
            state[history[-1]] = scaled
        median = sorted(state[name] for name in self.HISTORY)[self.DEPTH // 2]
        return {"IsValue": median & ~(self.QUANTUM - 1)}


class VReg(Module):
    """Fixed-point PI pressure regulator (paper: V_REG)."""

    INPUTS = ("SetValue", "IsValue")
    OUTPUTS = ("OutValue",)
    STATE = (CellSpec("integ", width=32, cell_type=SignalType.INT),)
    LOCALS = (CellSpec("err", width=32, cell_type=SignalType.INT),)

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        err = ctx.set_local(
            "err", ctx.arg("SetValue") - ctx.arg("IsValue")
        )
        clamp = C.VREG_INTEG_CLAMP * 16
        integ = max(-clamp, min(clamp, self.state["integ"] + err))
        self.state["integ"] = integ
        out = (C.VREG_KP_NUM * err + C.VREG_KI_NUM * integ) >> 8
        return {"OutValue": max(0, min(C.VALUE_FULL_SCALE, out))}


class PresA(Module):
    """Pressure actuator scaling (paper: PRES_A).

    Drops the two least-significant bits of the 16-bit regulator output
    to form the 14-bit TOC2 compare value.
    """

    INPUTS = ("OutValue",)
    OUTPUTS = ("TOC2",)
    LOCALS = (CellSpec("toc", width=C.TOC2_BITS),)

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        return {"TOC2": ctx.set_local("toc", ctx.arg("OutValue") >> 2)}
