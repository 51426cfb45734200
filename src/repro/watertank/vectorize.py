"""Struct-of-arrays batch kernel for the water-tank target.

Advances a whole batch of injected missions through each tick at once:
every scalar quantity of :class:`~repro.watertank.simulation.WaterTankSimulator`
— plant state, module state cells, sensor registers, the signal store —
becomes an int64/float64 array with one row per run (the store and the
state cells as rows of one dense block,
:class:`~repro.fi.vector.BatchCells`), and each module body is
transcribed onto those arrays in the exact operation order of the
scalar code (same quantization points, same branch structure encoded
as masks).  Outcomes are bit-identical to the scalar path by
construction; see :mod:`repro.fi.vector` for the contract.

Dispatch is per row: like the scalar mission loop, each row runs the
modules of its own ``tick_nbr`` slot, so rows whose flips corrupt the
dispatch chain (TIMER successor cells, the ``tick_nbr`` signal) follow
their corrupted schedule inside the batch via masked invocations; a
slot that only a few such rows take runs them on their own scalar
modules (:meth:`~repro.fi.vector.BatchKernel._dispatch`).
Each row takes its own injection; an ``arg`` (permeability) row
records the invocations its own schedule takes.  Every row runs the
whole fixed-length mission: the kernel has no per-row exit, so it
ignores the job's golden stream lengths.
"""

from __future__ import annotations

import numpy as np

from repro.fi.vector import (
    BatchKernel,
    GroupJob,
    GroupResult,
    q_bool,
    q_int,
    vector_stats,
)
from repro.watertank import constants as C

__all__ = ["WatertankVectorKernel"]

_U8 = 0xFF
_U16 = 0xFFFF


class WatertankVectorKernel(BatchKernel):
    """Vectorized mission executor for batches of water-tank runs."""

    target_name = "watertank"
    REGISTERS = ("LVL_ADC", "FLOW_CNT")

    @staticmethod
    def supports(probe) -> bool:
        return type(probe).__name__ == "WaterTankSimulator"

    def __init__(self, probe):
        super().__init__(probe, C.N_SLOTS, C.MODULE_SLOTS, "tick_nbr")
        self.mission_ticks = int(probe.mission_ticks)

    # ------------------------------------------------------------------
    def run_group(self, job: GroupJob) -> GroupResult:
        rows = job.rows
        n = len(rows)
        mission = self.mission_ticks
        case_of = job.cases.__getitem__

        cells = self._bind(job)
        S = cells.signals
        self._succ = self._cell_rows(
            cells, "TIMER", [f"succ{j}" for j in range(self.n_slots)]
        )
        self._flow_window = self._cell_rows(
            cells, "FLOW_S", [f"w{j}" for j in range(C.FLOW_WINDOW)]
        )
        self._level_history = self._cell_rows(
            cells, "LEVEL_S", ["h0", "h1", "h2"]
        )

        # ---- per-row plant, sensors, inflow profile
        plant_keys = ("time_s", "level_m", "valve_pos", "total_inflow_m3")
        P = {
            key: self._column(job, lambda t, k=key: t.plant[k], np.float64)
            for key in plant_keys
        }
        regs = self._registers(job)
        lvl_adc, flow_cnt = regs
        store_regs = S.block[: len(self.REGISTERS)]
        mirror = self._column(job, lambda t: t.sensors["_pulse_mirror"])
        base = np.array(
            [case_of(r.case_id).base_inflow_m3s for r in rows], np.float64
        )
        step_amp = np.array(
            [case_of(r.case_id).step_m3s for r in rows], np.float64
        )

        self._injections(job, cells, mission)
        rec, mem, inputs = self._rec, self._mem, self._inputs
        bank = self._bank(job)

        # ---- mission verdict accumulators (memory rows)
        if mem is not None:
            missed = np.zeros(n, dtype=np.int64)
            failed = np.zeros(n, dtype=bool)

        # ---- the mission loop
        store_slot = S["tick_nbr"]
        store_alarm = S["ALARM_OUT"]
        store_valve = S["VALVE_POS"]
        dt = C.TICK_S
        adc_full = float((1 << C.LVL_ADC_BITS) - 1)
        valve_full = (1 << C.VALVE_POS_BITS) - 1

        for t in range(mission):
            if rec is not None:
                rec.tick = t

            # --- TankSensorSuite.advance
            ratio = np.maximum(
                0.0, np.minimum(1.0, P["level_m"] / C.TANK_HEIGHT_M)
            )
            # round() is banker's rounding; np.rint matches it exactly
            np.copyto(lvl_adc, np.rint(ratio * adc_full).astype(np.int64))
            pulses = np.floor(
                P["total_inflow_m3"] * C.PULSES_PER_M3
            ).astype(np.int64)
            upd = pulses > mirror
            np.copyto(
                flow_cnt, (flow_cnt + (pulses - mirror)) & _U8, where=upd
            )
            np.copyto(mirror, pulses, where=upd)

            # --- _write_sensor_inputs: every register is in its
            # signal's range by construction, so quantizing is identity
            np.copyto(store_regs, regs)

            # --- pre-tick system-input flips (input rows)
            if inputs:
                self._flip_inputs(t, regs, store_regs)

            # --- pre-tick periodic memory flips (memory rows)
            if mem is not None:
                mem.pre_tick(t)

            # --- TIMER (every tick)
            self._invoke("TIMER")

            # --- the slot's module(s)
            self._dispatch(store_slot, n)

            # --- monitor bank (end of each dispatch cycle)
            if bank is not None and t % self.n_slots == self.n_slots - 1:
                bank.evaluate(S, t)

            # --- TankPlant.step
            commanded = np.maximum(
                0.0, np.minimum(1.0, store_valve / valve_full)
            )
            P["valve_pos"] += (commanded - P["valve_pos"]) * (
                dt / C.VALVE_TAU_S
            )
            phase = (P["time_s"] % C.DISTURBANCE_PERIOD_S) \
                / C.DISTURBANCE_PERIOD_S
            inflow = base + np.where(phase >= 0.5, step_amp, 0.0)
            outflow = C.OUTFLOW_CV * P["valve_pos"] * np.sqrt(
                np.maximum(0.0, P["level_m"])
            )
            level = P["level_m"] + (inflow - outflow) * dt / C.TANK_AREA_M2
            P["level_m"] = np.maximum(
                0.0, np.minimum(C.TANK_HEIGHT_M, level)
            )
            P["total_inflow_m3"] += inflow * dt
            P["time_s"] += dt

            # --- _observe_safety (only memory rows read the verdict)
            if mem is not None:
                level = P["level_m"]
                bad = (level > C.ALARM_LEVEL_M) & (store_alarm == 0)
                missed = np.where(bad, missed + 1, 0)
                failed |= (
                    (level >= C.MAX_LEVEL_M)
                    | (level <= C.MIN_LEVEL_M)
                    | (missed > C.ALARM_GRACE_TICKS)
                )

        vector_stats.batched_ticks += n * mission
        return self._result(
            np.full(n, mission - 1), bank,
            failed if mem is not None else None,
        )

    # ------------------------------------------------------------------
    # Module bodies (exact transcriptions of repro.watertank.modules).
    # ------------------------------------------------------------------
    def _body_timer(self, args, st):
        (slot,) = args
        gathered = self._succ[slot % self.n_slots, self._row_ix]
        nxt = self._mem_local(
            "TIMER", "next_slot", np.where(slot < self.n_slots, gathered, 0)
        )
        ticks = st["ticks"]
        ticks += 1
        ticks &= _U16
        return [nxt, ticks]

    def _body_level_s(self, args, st):
        (adc,) = args
        scaled = self._mem_local(  # local u16
            "LEVEL_S", "scaled", (adc << (16 - C.LVL_ADC_BITS)) & _U16
        )
        last_good = st["last_good"]
        rejects = st["rejects"]
        jump = np.abs(scaled - last_good) > C.LEVEL_MAX_JUMP
        rejects_b = (rejects + 1) & _U8
        # the only rejecting branch: a jump short of a resync streak
        hold = jump & (rejects_b <= 5)
        sample = np.where(hold, last_good, scaled)
        np.copyto(last_good, sample)
        np.multiply(rejects_b, hold, out=rejects)
        sample = self._mem_local(  # local u16
            "LEVEL_S", "sample", sample & _U16
        )
        history = self._level_history
        np.copyto(history[1:], history[:-1])
        np.copyto(history[0], sample)
        h0, h1, h2 = history
        low = np.minimum(h0, h1)
        high = np.maximum(h0, h1)
        median = np.maximum(low, np.minimum(high, h2))
        return [median & ~(C.LEVEL_QUANTUM - 1)]

    def _body_flow_s(self, args, st):
        (cnt,) = args
        delta = self._mem_local(  # local u8
            "FLOW_S", "delta", (cnt - st["last_cnt"]) & _U8
        )
        np.bitwise_and(cnt, _U8, out=st["last_cnt"])
        window = self._flow_window
        pos = st["pos"] % C.FLOW_WINDOW
        window[pos, self._row_ix] = delta
        st["pos"] = (pos + 1) % C.FLOW_WINDOW
        rate = self._mem_local(  # local u16 wraps
            "FLOW_S", "rate", (window.sum(axis=0) << 7) & _U16
        )
        return [rate]

    def _body_ctrl(self, args, st):
        level_f, inflow_rate, ticks = args
        err = self._mem_local(  # local i32
            "CTRL", "err", q_int(level_f - C.LEVEL_SETPOINT_COUNTS, 32)
        )
        clamp = C.CTRL_INTEG_CLAMP * 16
        integ = np.maximum(
            -clamp, np.minimum(clamp, st["integ"] + err)
        )
        st["integ"] = q_int(integ, 32)
        pterm = self._mem_local(
            "CTRL", "pterm", q_int((C.CTRL_KP_NUM * err) >> 8, 32)
        )
        ff = self._mem_local(
            "CTRL", "ff", q_int((C.CTRL_FF_NUM * inflow_rate) >> 8, 32)
        )
        target = self._mem_local(
            "CTRL", "target",
            q_int(pterm + ((C.CTRL_KI_NUM * integ) >> 8) + ff, 32),
        )
        target = np.maximum(0, np.minimum(C.VALUE_FULL_SCALE, target))
        started = st["started"] != 0
        last_ticks = st["last_ticks"]
        dt = np.where(started, (ticks - last_ticks) & _U16, 0)
        st["started"] = 1
        np.bitwise_and(ticks, _U16, out=last_ticks)
        dt = self._mem_local(  # local u16
            "CTRL", "dt", np.minimum(dt, 50) & _U16
        )
        step = 400 * dt  # Ctrl.RATE_PER_TICK
        prev = st["cmd_prev"]
        cmd = np.where(
            target > prev,
            np.minimum(prev + step, target),
            np.maximum(prev - step, target),
        )
        np.bitwise_and(cmd, _U16, out=prev)
        return [cmd]

    def _body_alarm(self, args, st):
        (level_f,) = args
        level = self._mem_local(  # local u16
            "ALARM", "level_copy", level_f & _U16
        )
        cell = st["latched"]
        latched = cell != 0
        unlatch = latched & (level < C.ALARM_OFF_COUNTS)
        latch = (~latched) & (level > C.ALARM_ON_COUNTS)
        np.copyto(cell, q_bool(np.where(unlatch, 0, np.where(latch, 1, cell))))
        return [cell]

    def _body_valve_a(self, args, st):
        (valve_cmd,) = args
        return [self._mem_local("VALVE_A", "pos", (valve_cmd >> 4) & _U16)]

    _BODIES = {
        "TIMER": _body_timer,
        "LEVEL_S": _body_level_s,
        "FLOW_S": _body_flow_s,
        "CTRL": _body_ctrl,
        "ALARM": _body_alarm,
        "VALVE_A": _body_valve_a,
    }
