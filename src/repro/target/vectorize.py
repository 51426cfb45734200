"""Struct-of-arrays batch kernel for the arrestment target.

The arrestment counterpart of :mod:`repro.watertank.vectorize`: one
row per injected engagement, every register/state cell/plant quantity
an array, each module body transcribed in the scalar operation order.
The signal store and every module's state cells are rows of one dense
block (:class:`~repro.fi.vector.BatchCells`), CLOCK's successor table
a ``(slots, rows)`` slice of it.  Unlike the fixed-length tank
mission, engagements end per row (post-stop window or overrun abort),
so the kernel keeps a ``live`` mask: rows that left the engagement
loop stop evaluating their monitor bank, stop recording invocations,
and freeze their completion latches, while the batch advances the
remaining rows.  Outcomes are bit-identical to the scalar path.  Each
row takes its own injection and dispatches per row: masked
invocations follow each row's own — possibly corrupted — schedule,
decided over the rows still in the loop, and an ``arg``
(permeability) row records the invocations its own schedule takes.
The few rows a flip of ``ms_slot_nbr`` or of the successor table has
sent off the schedule run their slots' modules on their own cases'
scalar modules (:meth:`~repro.fi.vector.BatchKernel._dispatch`), so
CALC runs with its case's pressure scale.
An ``arg`` row leaves the loop early once its outcome is fixed: its
flip has struck and its recorded stream is as long as its golden one
(:meth:`~repro.fi.vector.InvocationRecorder.settled`).

A few memory runs never arrest and hold a group's loop to the timeout
for a handful of rows: the sparse tail.  Once at most
:data:`~repro.fi.vector.SCALAR_ROWS` rows are live at the top of a
tick, none of them an ``arg`` row and the pass not a recovery
containment pass, the loop stops; each live row's state is exported
into a :class:`~repro.target.simulation.SimulatorState`, restored into
a fresh simulator with the row's injector and monitor bank resumed,
and run to its end through :meth:`ArrestmentSimulator.run`.  Its
completion tick, first injection, bank records and verdict come back
into the batch's arrays, so outcome assembly does not change.
"""

from __future__ import annotations

import numpy as np

from repro.fi import vector
from repro.fi.vector import (
    BatchKernel,
    GroupJob,
    GroupResult,
    q_int,
    vector_stats,
)
from repro.target import constants as C
from repro.target.modules import Clock, DistS, PresS
from repro.target.simulation import SimulatorState

__all__ = ["ArrestmentVectorKernel"]

_U8 = 0xFF
_U16 = 0xFFFF


class ArrestmentVectorKernel(BatchKernel):
    """Vectorized engagement executor for batches of arrestment runs."""

    target_name = "arrestment"
    REGISTERS = ("PACNT", "TIC1", "TCNT", "ADC")

    @staticmethod
    def supports(probe) -> bool:
        # the bodies transcribe the modules of repro.target.wiring: a
        # system with any other module (a target variant) runs scalar
        from repro.target import modules

        transcribed = {
            "CLOCK": modules.Clock, "DIST_S": modules.DistS,
            "PRES_S": modules.PresS, "CALC": modules.Calc,
            "V_REG": modules.VReg, "PRES_A": modules.PresA,
        }
        return type(probe).__name__ == "ArrestmentSimulator" and {
            module.name: type(module) for module in probe.system.modules()
        } == transcribed

    def __init__(self, probe):
        super().__init__(probe, C.N_SLOTS, probe.module_slots, "ms_slot_nbr")
        self.max_ticks = int(probe.timeout_s / C.TICK_S)
        self._program = np.array(C.PRESSURE_PROGRAM, dtype=np.float64)

    # ------------------------------------------------------------------
    def run_group(self, job: GroupJob) -> GroupResult:
        rows = job.rows
        n = len(rows)
        max_ticks = self.max_ticks
        case_of = job.cases.__getitem__

        cells = self._bind(job)
        S = cells.signals
        self._succ = self._cell_rows(cells, "CLOCK", Clock.SUCC)
        self._window = self._cell_rows(cells, "DIST_S", DistS.WINDOW)
        self._history = self._cell_rows(cells, "PRES_S", PresS.HISTORY)

        velocity = self._column(
            job, lambda t: t.plant["velocity_ms"], np.float64
        )
        distance = self._column(
            job, lambda t: t.plant["distance_m"], np.float64
        )
        pressure = self._column(
            job, lambda t: t.plant["pressure_pa"], np.float64
        )
        mass = np.array(
            [case_of(r.case_id).mass_kg for r in rows], np.float64
        )
        scale = np.array(
            [
                C.pressure_scale_counts(case_of(r.case_id).mass_kg)
                for r in rows
            ],
            dtype=np.int64,
        )
        self._scale = scale
        self._slow_target = (C.SLOW_SPEED_TARGET * scale).astype(np.int64)
        regs = self._registers(job)
        pacnt, tic1, tcnt, adc = regs
        store_regs = S.block[: len(self.REGISTERS)]
        mirror = self._column(job, lambda t: t.sensors["_pulse_mirror"])

        self._injections(job, cells, max_ticks)
        rec, mem, inputs = self._rec, self._mem, self._inputs
        bank = self._bank(job)

        # ---- failure-classifier accumulators (memory rows)
        if mem is not None:
            kinds = np.zeros(n, dtype=bool)
            force_limit = np.array(
                [
                    C.max_retardation_force_n(
                        case_of(r.case_id).mass_kg,
                        case_of(r.case_id).engaging_velocity_ms,
                    )
                    for r in rows
                ],
                np.float64,
            )

        store_slot = S["ms_slot_nbr"]
        store_stopped = S["stopped"]
        store_toc2 = S["TOC2"]
        live = np.ones(n, dtype=bool)
        dead = None
        n_live = n
        completion = np.full(n, -1, dtype=np.int64)
        #: rows still waiting for their completion latch
        pending = np.ones(n, dtype=bool)
        #: the tick at which a completed row leaves the loop
        deadline = np.full(n, max_ticks + C.POST_STOP_TICKS, dtype=np.int64)
        dt = C.TICK_S
        adc_full = (1 << C.ADC_BITS) - 1
        pacnt_full = (1 << C.PACNT_BITS) - 1
        toc_full = (1 << C.TOC2_BITS) - 1
        abort_distance = C.MAX_STOPPING_DISTANCE_M + C.OVERRUN_ABORT_MARGIN_M
        ret_limit = C.MAX_RETARDATION_G * C.G
        batched = 0
        #: live rows at or below which the loop hands them to the
        #: scalar simulator (a containment pass never does)
        tail = (
            -1 if job.recover or job.factory is None
            else vector.SCALAR_ROWS
        )
        #: permeability rows leave once their outcome is fixed
        settle = rec is not None and job.golden is not None

        t = 0
        while t < max_ticks and n_live:
            if n_live <= tail and (rec is None or not rec.n_live):
                break
            batched += n_live
            if rec is not None:
                rec.tick = t

            # --- SensorSuite.advance (state evolution is not gated:
            # rows past their engagement compute harmless garbage)
            tcnt += C.TCNT_PER_TICK
            tcnt &= _U16
            pulses = (distance * C.PULSES_PER_M).astype(np.int64)
            new = pulses - mirror
            upd = new > 0
            np.copyto(mirror, pulses, where=upd)
            np.copyto(pacnt, (pacnt + new) & pacnt_full, where=upd)
            np.copyto(tic1, tcnt, where=upd)
            fraction = np.minimum(
                np.maximum(pressure / C.ADC_FULL_SCALE_PA, 0.0), 1.0
            )
            np.minimum(
                adc_full, (fraction * adc_full).astype(np.int64), out=adc
            )

            # --- _write_sensor_inputs: every register is in its
            # signal's range by construction, so quantizing is identity
            np.copyto(store_regs, regs)

            # --- pre-tick system-input flips (input rows, live rows)
            if inputs:
                self._flip_inputs(t, regs, store_regs, live)

            # --- pre-tick periodic memory flips (live rows)
            if mem is not None:
                mem.pre_tick(t)

            # --- CLOCK (every tick)
            self._invoke("CLOCK")

            # --- the slot's module(s)
            self._dispatch(store_slot, n_live, dead)

            # --- monitor bank (end of each dispatch cycle, live rows)
            if bank is not None and t % self.n_slots == self.n_slots - 1:
                bank.evaluate(S, t, mask=live)

            # --- ArrestmentPlant.step; TOC2 is a u14 store value, so
            # its fraction of full scale and the commanded pressure
            # already sit inside the scalar clamps
            commanded = store_toc2 / toc_full * C.P_MAX_PA
            pressure += (commanded - pressure) * dt / C.ACTUATOR_TAU_S
            moving = velocity > 0.0
            force = C.BRAKE_GAIN_N_PER_PA * pressure + C.TAPE_DRAG_N
            retardation = force / mass
            new_velocity = np.maximum(0.0, velocity - retardation * dt)
            np.add(
                distance, (velocity + new_velocity) * 0.5 * dt,
                out=distance, where=moving,
            )
            np.copyto(velocity, new_velocity, where=moving)

            # --- FailureClassifier.observe (live rows; only memory
            # rows read the verdict; a stopped plant reports zero force
            # and retardation, which no limit flags)
            if mem is not None:
                bad = (retardation > ret_limit) | (force > force_limit)
                bad &= moving
                bad |= distance > C.MAX_STOPPING_DISTANCE_M
                bad &= live
                kinds |= bad

            # --- completion latch and loop exits (live rows only)
            newly = velocity == 0.0
            newly &= store_stopped != 0
            newly &= pending
            if np.count_nonzero(newly):
                completion[newly] = t
                deadline[newly] = t + C.POST_STOP_TICKS
                pending &= ~newly
            leave = (deadline <= t) | (distance > abort_distance)
            if settle and rec.n_live:
                leave |= rec.settled()
            leave &= live
            if np.count_nonzero(leave):
                live &= ~leave
                pending &= live
                dead = ~live
                n_live = int(live.sum())
                self._leave(leave)
            t += 1

        if t < max_ticks and n_live:  # the sparse tail
            vector_stats.tail_rows += n_live
            plant = np.array([velocity, distance, pressure]).T.tolist()
            sensors = np.vstack([regs, mirror]).T.tolist()
            for r in np.flatnonzero(live).tolist():
                result = self._finish(job, r, self._state(
                    t, cells.column(r), plant[r], sensors[r], completion[r]
                ), bank)
                completion[r] = (
                    -1 if result.completion_tick is None
                    else result.completion_tick
                )
                if mem is not None:
                    kinds[r] |= result.failed

        vector_stats.batched_ticks += batched
        return self._result(
            completion, bank,
            kinds | (completion < 0) if mem is not None else None,
        )

    def _state(self, t, column, plant, sensors, completion):
        """One live row's state at the top of tick *t*, as
        :meth:`ArrestmentSimulator.capture_state` would have frozen it,
        from its cells' :meth:`BatchCells.column` and its plant and
        sensor values: the inverse of the tick-0 seeding.  No outcome
        reads the
        sensors' ``total_pulses``, the loop's ``stop_tick``, the plant's
        and the classifier's peaks or the classifier's violations (the
        batch keeps those and ORs in the scalar verdict), so they are
        placeholders; the plant's force and retardation are too, as the
        next ``step`` overwrites them."""
        signals, modules = column
        velocity, distance, pressure = plant
        pacnt, tic1, tcnt, adc, mirror = sensors
        return SimulatorState(
            tick=t,
            signals=signals,
            modules=modules,
            plant={
                "velocity_ms": velocity, "distance_m": distance,
                "pressure_pa": pressure, "force_n": 0.0,
                "retardation_ms2": 0.0, "peak_force_n": 0.0,
                "peak_retardation_ms2": 0.0,
            },
            sensors={
                "tcnt": tcnt, "pacnt": pacnt, "tic1": tic1, "adc": adc,
                "total_pulses": 0, "_pulse_mirror": mirror,
            },
            classifier=((), 0.0),
            loop={
                "completion": int(completion) if completion >= 0 else None,
                "stop_tick": None,
                "ticks_run": t,
            },
        )

    # ------------------------------------------------------------------
    # Module bodies (exact transcriptions of repro.target.modules).
    # ------------------------------------------------------------------
    def _body_clock(self, args, st):
        (slot,) = args
        # a u16 store value is never negative: of the scalar
        # 0 <= slot < N_SLOTS test only the upper bound can fail
        gathered = self._succ[slot % self.n_slots, self._row_ix]
        nxt = self._mem_local(  # local u8
            "CLOCK", "next_slot",
            np.where(slot < self.n_slots, gathered, 0) & _U8,
        )
        mscnt = st["mscnt"]
        mscnt += 1
        mscnt &= _U16
        return [nxt, mscnt]

    def _body_dist_s(self, args, st):
        pacnt, tic1, tcnt = args
        delta = self._mem_local(  # local u8
            "DIST_S", "delta", (pacnt - st["last_cnt"]) & _U8
        )
        np.bitwise_and(pacnt, _U8, out=st["last_cnt"])
        acc = st["pulscnt_acc"]
        acc += delta
        acc &= _U16
        window = self._window
        pos = st["win_pos"]
        window[pos % C.SPEED_WINDOW, self._row_ix] = delta
        pos += 1
        pos &= _U8
        fill = st["win_fill"]
        np.minimum(fill + 1, C.SPEED_WINDOW, out=fill)
        pulse_slow = (fill >= C.SPEED_WINDOW) & (
            window.sum(axis=0) < C.SLOW_PULSE_THRESHOLD
        )
        interval = (tcnt - tic1) & _U16
        streak = st["intv_streak"]
        np.copyto(streak, np.where(
            interval > C.SLOW_INTERVAL_TCNT, np.minimum(streak + 1, 255), 0
        ))
        quiet = st["quiet"]
        np.copyto(quiet, np.where(delta == 0, np.minimum(quiet + 1, 255), 0))
        halted = st["halted"]
        np.copyto(halted, 1, where=quiet >= C.STOPPED_QUIET_INVOCATIONS)
        return [acc, pulse_slow | (streak >= 2), halted]

    def _body_calc(self, args, st):
        i, mscnt, pulscnt, slow_speed, stopped = args
        n_prog = len(self._program)
        advance = (
            (stopped == 0)
            & (i < n_prog - 1)
            & ((pulscnt >> C.SEG_SHIFT) > i)
        )
        fraction = self._program[i & (n_prog - 1)]
        # int() truncates toward zero; both products are non-negative
        target = np.where(
            slow_speed != 0,
            self._slow_target,
            (fraction * self._scale).astype(np.int64),
        )
        target = np.minimum(target, mscnt * C.TIME_RAMP_PER_MS)
        target = self._mem_local(  # local u16
            "CALC", "target", target & _U16
        )
        prev = st["set_prev"]
        last = st["last_mscnt"]
        step = C.SETVALUE_RATE_PER_MS * np.minimum(
            (mscnt - last) & _U16, C.SETVALUE_DT_CLAMP
        )
        # the scalar slew toward target by at most step (step >= 0)
        new = np.minimum(np.maximum(target, prev - step), prev + step)
        np.bitwise_and(new, _U16, out=prev)
        np.bitwise_and(mscnt, _U16, out=last)
        return [i + advance, new]

    def _body_pres_s(self, args, st):
        (adc,) = args
        scaled = self._mem_local(  # local u16
            "PRES_S", "scaled", (adc << 6) & _U16
        )
        last = st["last"]
        rejects = st["rejects"]
        jump = np.abs(scaled - last) > C.PRES_MAX_JUMP
        rejects_b = (rejects + 1) & _U8
        # the only rejecting branch: a jump short of a resync streak
        hold = jump & (rejects_b <= PresS.MAX_REJECT_STREAK)
        np.multiply(rejects_b, hold, out=rejects)
        accept = ~hold
        np.copyto(last, scaled, where=accept)
        history = self._history
        np.copyto(history[:-1], history[1:], where=accept)
        np.copyto(history[-1], scaled, where=accept)
        ordered = history.copy()
        ordered.sort(axis=0)
        return [ordered[PresS.DEPTH // 2] & ~(PresS.QUANTUM - 1)]

    def _body_v_reg(self, args, st):
        set_value, is_value = args
        err = self._mem_local(  # local i32
            "V_REG", "err", q_int(set_value - is_value, 32)
        )
        clamp = C.VREG_INTEG_CLAMP * 16
        integ = np.maximum(
            -clamp, np.minimum(clamp, st["integ"] + err)
        )
        st["integ"] = q_int(integ, 32)
        out = (C.VREG_KP_NUM * err + C.VREG_KI_NUM * integ) >> 8
        return [np.maximum(0, np.minimum(C.VALUE_FULL_SCALE, out))]

    def _body_pres_a(self, args, st):
        (out_value,) = args
        return [
            self._mem_local(  # local u14
                "PRES_A", "toc", (out_value >> 2) & ((1 << C.TOC2_BITS) - 1)
            )
        ]

    _BODIES = {
        "CLOCK": _body_clock,
        "DIST_S": _body_dist_s,
        "CALC": _body_calc,
        "PRES_S": _body_pres_s,
        "V_REG": _body_v_reg,
        "PRES_A": _body_pres_a,
    }
