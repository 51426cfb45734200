"""Struct-of-arrays batch kernel for the arrestment target.

The arrestment counterpart of :mod:`repro.watertank.vectorize`: one
row per injected engagement, every register/state cell/plant quantity
an array, each module body transcribed in the scalar operation order.
Unlike the fixed-length tank mission, engagements end per row (post-
stop window or overrun abort), so the kernel keeps a ``running`` mask:
rows that left the engagement loop stop evaluating their monitor bank,
stop recording invocations, and freeze their completion latches, while
the batch advances the remaining rows.  Outcomes are bit-identical to
the scalar path; memory/recovery/detection rows dispatch per row
(masked invocations follow each row's own — possibly corrupted —
schedule, decided over the rows still in the loop), and only
permeability rows retire on dispatch divergence, because their
recorded invocation streams assume the golden schedule.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.fi.vector import (
    BankArrays,
    GroupJob,
    GroupResult,
    InvocationRecorder,
    MemoryFlipPlan,
    RecoveringBankArrays,
    RowInjection,
    q_bool,
    q_int,
    q_uint,
    vector_stats,
)
from repro.model.signal import SignalType
from repro.target import constants as C

__all__ = ["ArrestmentVectorKernel"]

_U8 = 0xFF
_U16 = 0xFFFF


def _rows(template_of, rows, pick, dtype=np.int64):
    """One array column per row, gathered from the rows' templates."""
    return np.array(
        [pick(template_of(row.case_id)) for row in rows], dtype=dtype
    )


class ArrestmentVectorKernel:
    """Vectorized engagement executor for batches of arrestment runs."""

    target_name = "arrestment"

    @staticmethod
    def supports(probe) -> bool:
        return type(probe).__name__ == "ArrestmentSimulator"

    def __init__(self, probe):
        self.max_ticks = int(probe.timeout_s / C.TICK_S)
        self.n_slots = C.N_SLOTS
        self.slot_modules: Dict[int, List[str]] = {}
        for module, slot in probe.module_slots.items():
            self.slot_modules.setdefault(slot, []).append(module)
        system = probe.system
        self.ports = {}
        for module in system.modules():
            name = module.name
            ins = list(module.inputs)
            outs = list(module.outputs)
            self.ports[name] = (
                ins,
                outs,
                [system.signal_of_input(name, p) for p in ins],
                [system.signal_of_output(name, p) for p in outs],
            )
        self.quant = {
            name: (system.signal(name).sig_type, system.signal(name).width)
            for name in system.signal_names()
        }
        #: (module, cell) -> (cell_type, width), for memory-row flips
        self.state_spec = {}
        self.local_spec = {}
        for module in system.modules():
            for spec in module.state.specs():
                self.state_spec[(module.name, spec.name)] = (
                    spec.cell_type, spec.width
                )
            for spec in module.local_specs:
                self.local_spec[(module.name, spec.name)] = (
                    spec.cell_type, spec.width
                )
        #: state cells feeding the gathered dispatch schedule
        self.succ_cells = frozenset(
            ("CLOCK", f"slot_succ{j}") for j in range(self.n_slots)
        )
        self._mem = None
        self._rec = None
        self._scale = None  #: per-row CALC pressure scale, set per group

    def module_ports(self, module: str):
        ins, outs, _, _ = self.ports[module]
        return ins, outs

    def supports_injection(self, inj: RowInjection) -> bool:
        """Whether a row's injection can strike inside a batch
        (memory rows: int-backed cells the kernel hooks only)."""
        kind = inj.memory_kind
        if kind is None:
            return True
        if kind == "state":
            spec = self.state_spec.get((inj.module, inj.cell))
        elif kind == "signal":
            spec = self.quant.get(inj.cell)
        elif kind == "arg":
            ports = self.ports.get(inj.module)
            if ports is None or inj.cell not in ports[0]:
                return False
            spec = self.quant.get(ports[2][ports[0].index(inj.cell)])
        elif kind == "local":
            spec = self.local_spec.get((inj.module, inj.cell))
        else:
            return False
        return spec is not None and spec[0] is not SignalType.FLOAT

    def _mem_local(self, module: str, name: str, values):
        """Hook point of one scalar ``set_local``: armed memory rows
        strike the freshly quantized local value here."""
        if self._mem is None:
            return values
        return self._mem.local(module, name, values)

    def _q_store(self, signal: str, values):
        sig_type, width = self.quant[signal]
        if sig_type is SignalType.BOOL:
            return q_bool(values)
        if sig_type is SignalType.INT:
            return q_int(values, width)
        if sig_type is SignalType.FLOAT:
            return np.array(values, dtype=np.int64, copy=True)
        return q_uint(np.asarray(values, dtype=np.int64), width)

    # ------------------------------------------------------------------
    def run_group(self, job: GroupJob) -> GroupResult:
        rows = job.rows
        n = len(rows)
        max_ticks = self.max_ticks
        template_of = job.templates.__getitem__
        case_of = job.cases.__getitem__

        signal_names = list(template_of(rows[0].case_id).signals)
        S = {
            name: _rows(template_of, rows, lambda t, n=name: t.signals[n])
            for name in signal_names
        }
        M: Dict[str, Dict[str, np.ndarray]] = {}
        for module in self.ports:
            cells = template_of(rows[0].case_id).modules[module]
            M[module] = {
                cell: _rows(
                    template_of, rows,
                    lambda t, m=module, c=cell: t.modules[m][c],
                )
                for cell in cells
            }

        velocity = _rows(
            template_of, rows, lambda t: t.plant["velocity_ms"], np.float64
        )
        distance = _rows(
            template_of, rows, lambda t: t.plant["distance_m"], np.float64
        )
        pressure = _rows(
            template_of, rows, lambda t: t.plant["pressure_pa"], np.float64
        )
        mass = np.array(
            [case_of(r.case_id).mass_kg for r in rows], np.float64
        )
        self._scale = np.array(
            [
                C.pressure_scale_counts(case_of(r.case_id).mass_kg)
                for r in rows
            ],
            dtype=np.int64,
        )
        regs = {
            "PACNT": _rows(template_of, rows, lambda t: t.sensors["pacnt"]),
            "TIC1": _rows(template_of, rows, lambda t: t.sensors["tic1"]),
            "TCNT": _rows(template_of, rows, lambda t: t.sensors["tcnt"]),
            "ADC": _rows(template_of, rows, lambda t: t.sensors["adc"]),
        }
        mirror = _rows(
            template_of, rows, lambda t: t.sensors["_pulse_mirror"]
        )

        inj = [row.injection for row in rows]
        bitmask = np.array([1 << i.bit for i in inj], dtype=np.int64)
        first_inj = np.full(n, -1, dtype=np.int64)
        mem = rec = None
        inj_tick = inj_sig = None
        if job.kind == "permeability":
            rec = InvocationRecorder(self, rows, bitmask, first_inj, max_ticks)
        elif job.kind in ("memory", "recovery"):
            mem = MemoryFlipPlan(self, rows, first_inj)
        else:
            inj_tick = np.array([i.tick for i in inj], dtype=np.int64)
            inj_sig = {
                signal: np.array(
                    [i.signal == signal for i in inj], dtype=bool
                )
                for signal in regs
            }

        bank = None
        if job.specs:
            if job.recover:
                bank = RecoveringBankArrays(
                    job.specs, n,
                    policies=job.policies, q_store=self._q_store,
                )
            else:
                bank = BankArrays(job.specs, n)

        # ---- failure-classifier accumulators (memory/recovery rows)
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
        else:
            kinds = force_limit = None
        self._mem = mem
        self._rec = rec

        succ = np.stack(
            [M["CLOCK"][f"slot_succ{j}"] for j in range(self.n_slots)],
            axis=1,
        )
        retired = np.zeros(n, dtype=bool)
        running = np.ones(n, dtype=bool)
        completion = np.full(n, -1, dtype=np.int64)
        row_ix = np.arange(n)
        dt = C.TICK_S
        adc_full = (1 << C.ADC_BITS) - 1
        toc_full = (1 << C.TOC2_BITS) - 1
        abort_distance = C.MAX_STOPPING_DISTANCE_M + C.OVERRUN_ABORT_MARGIN_M
        batched = 0

        t = 0
        while t < max_ticks and running.any():
            entered = running.copy()
            batched += int(entered.sum())
            if rec is not None:
                rec.tick, rec.live = t, entered

            # --- SensorSuite.advance (state evolution is not gated:
            # rows past their engagement compute harmless garbage)
            regs["TCNT"] = (regs["TCNT"] + C.TCNT_PER_TICK) & _U16
            pulses = (distance * C.PULSES_PER_M).astype(np.int64)
            new = pulses - mirror
            upd = new > 0
            mirror = np.where(upd, pulses, mirror)
            regs["PACNT"] = np.where(
                upd,
                (regs["PACNT"] + new) & ((1 << C.PACNT_BITS) - 1),
                regs["PACNT"],
            )
            regs["TIC1"] = np.where(upd, regs["TCNT"], regs["TIC1"])
            fraction = np.minimum(
                np.maximum(pressure / C.ADC_FULL_SCALE_PA, 0.0), 1.0
            )
            regs["ADC"] = np.minimum(
                adc_full, (fraction * adc_full).astype(np.int64)
            )

            # --- _write_sensor_inputs
            for signal in ("PACNT", "TIC1", "TCNT", "ADC"):
                S[signal] = self._q_store(signal, regs[signal])

            # --- pre-tick system-input flips (detection, live rows)
            if inj_tick is not None:
                fire = (inj_tick == t) & entered
                if fire.any():
                    for signal, is_sig in inj_sig.items():
                        m = fire & is_sig
                        if m.any():
                            regs[signal][m] ^= bitmask[m]
                            S[signal][m] ^= bitmask[m]
                    first_inj[fire] = t

            # --- pre-tick periodic memory flips (live rows)
            if mem is not None and mem.pre_tick(t, S, M, entered):
                succ = np.stack(
                    [
                        M["CLOCK"][f"slot_succ{j}"]
                        for j in range(self.n_slots)
                    ],
                    axis=1,
                )

            # --- CLOCK (every tick)
            arg = S["ms_slot_nbr"].copy()
            if rec is not None:
                rec.marshal("CLOCK", [arg])
            if mem is not None:
                mem.marshal("CLOCK", [arg])
            in_range = (arg >= 0) & (arg < self.n_slots)
            gathered = succ[row_ix, arg % self.n_slots]
            nxt = self._mem_local(  # local u8
                "CLOCK", "next_slot",
                np.where(in_range, gathered, 0) & _U8,
            )
            clock = M["CLOCK"]
            clock["mscnt"] = (clock["mscnt"] + 1) & _U16
            S["ms_slot_nbr"] = self._q_store("ms_slot_nbr", nxt)
            S["mscnt"] = self._q_store("mscnt", clock["mscnt"])
            if rec is not None:
                rec.record("CLOCK", [arg], [S["ms_slot_nbr"], S["mscnt"]])

            # --- the slot's module(s)
            slot = (t + 1) % self.n_slots
            cur = S["ms_slot_nbr"]
            if rec is None:
                # per-row dispatch (memory/recovery/detection rows):
                # exactly like the scalar engagement loop, each row
                # runs the modules of its own — possibly corrupted —
                # ms_slot_nbr slot, so dispatch-divergent rows stay
                # in the batch instead of retiring to the scalar path.
                # Rows that left the loop only compute discarded
                # values, so the live rows alone decide the dispatch.
                live_cur = cur[entered]
                if (live_cur == slot).all():
                    for module in self.slot_modules.get(slot, ()):
                        self._invoke(module, S, M)
                else:
                    for value in np.unique(live_cur):
                        modules = self.slot_modules.get(int(value), ())
                        if not modules:
                            continue
                        row_mask = cur == value
                        for module in modules:
                            self._invoke(module, S, M, mask=row_mask)
            else:
                # permeability rows: the recorded invocation streams
                # assume the golden schedule — retire live rows whose
                # dispatch diverged from it
                retired |= entered & (cur != slot)
                for module in self.slot_modules.get(slot, ()):
                    self._invoke(module, S, M)

            # --- monitor bank (end of each dispatch cycle, live rows)
            if bank is not None and t % self.n_slots == self.n_slots - 1:
                bank.evaluate(S, t, mask=entered)

            # --- ArrestmentPlant.step
            commanded_pa = np.minimum(
                np.maximum(S["TOC2"] / toc_full, 0.0), 1.0
            ) * C.P_MAX_PA
            commanded = np.minimum(
                np.maximum(commanded_pa, 0.0), C.P_MAX_PA
            )
            pressure = pressure + (commanded - pressure) * dt \
                / C.ACTUATOR_TAU_S
            moving = velocity > 0.0
            force = C.BRAKE_GAIN_N_PER_PA * pressure + C.TAPE_DRAG_N
            retardation = force / mass
            new_velocity = np.maximum(0.0, velocity - retardation * dt)
            distance = np.where(
                moving,
                distance + (velocity + new_velocity) * 0.5 * dt,
                distance,
            )
            velocity = np.where(moving, new_velocity, velocity)

            # --- FailureClassifier.observe (memory/recovery, live rows;
            # a stopped plant reports zero force and retardation)
            if mem is not None:
                obs_ret = np.where(moving, retardation, 0.0)
                obs_force = np.where(moving, force, 0.0)
                kinds |= entered & (
                    (obs_ret > C.MAX_RETARDATION_G * C.G)
                    | (obs_force > force_limit)
                    | (distance > C.MAX_STOPPING_DISTANCE_M)
                )

            # --- completion latch and loop exits (live rows only)
            is_stopped = velocity == 0.0
            newly_complete = (
                entered
                & (completion < 0)
                & (S["stopped"] != 0)
                & is_stopped
            )
            completion = np.where(newly_complete, t, completion)
            leave = entered & (
                (
                    (completion >= 0)
                    & (t >= completion + C.POST_STOP_TICKS)
                )
                | (distance > abort_distance)
            )
            running &= ~leave
            t += 1

        self._mem = self._rec = None
        vector_stats.batched_ticks += batched

        injected = first_inj >= 0
        failed = kinds | (completion < 0) if kinds is not None else None
        return GroupResult(
            retired=retired.tolist(),
            injected=injected.tolist(),
            first_injection_tick=[
                int(v) if v >= 0 else None for v in first_inj
            ],
            completion_tick=[
                int(v) if v >= 0 else None for v in completion
            ],
            streams=rec,
            bank=[bank.row_records(r) for r in range(n)] if bank else None,
            failed=failed.tolist() if failed is not None else None,
            actions=(
                bank.actions.tolist()
                if bank is not None and hasattr(bank, "actions")
                else None
            ),
        )

    # ------------------------------------------------------------------
    def _invoke(self, module, S, M, mask=None):
        """Args from the store, marshal flips, module body, quantized
        store write-back, invocation recording.

        With *mask*, only the masked rows take the invocation: the
        body runs at full width, but outputs and state cells of rows
        outside the mask are merged back unchanged — those rows'
        (possibly corrupted) schedules did not dispatch *module* this
        tick — and armed memory strikes are confined to the mask."""
        _, _, in_sigs, out_sigs = self.ports[module]
        args = [S[sig].copy() for sig in in_sigs]
        if self._rec is not None:
            self._rec.marshal(module, args)
        prev_live = None
        if self._mem is not None:
            if mask is not None:
                prev_live = self._mem.scoped_live(mask)
            self._mem.marshal(module, args)
        body = self._BODIES[module]
        st = M[module]
        out_arrays = []
        if mask is None:
            results = body(self, args, st)
            for sig, values in zip(out_sigs, results):
                S[sig] = self._q_store(sig, values)
                out_arrays.append(S[sig])
        else:
            saved_state = dict(st)
            saved_out = {sig: S[sig] for sig in out_sigs}
            results = body(self, args, st)
            for sig, values in zip(out_sigs, results):
                merged = np.where(
                    mask, self._q_store(sig, values), saved_out[sig]
                )
                S[sig] = merged
                out_arrays.append(merged)
            # module bodies reassign state cells (never mutate them in
            # place), so the pre-invoke references still hold the
            # unmasked rows' values
            for cell, old in saved_state.items():
                new = st[cell]
                if new is not old:
                    st[cell] = np.where(mask, new, old)
            if self._mem is not None:
                self._mem.restore_live(prev_live)
        if self._rec is not None:
            self._rec.record(module, args, out_arrays)

    # ------------------------------------------------------------------
    # Module bodies (exact transcriptions of repro.target.modules).
    # ------------------------------------------------------------------
    def _body_dist_s(self, args, st):
        pacnt, tic1, tcnt = args
        delta = self._mem_local(  # local u8
            "DIST_S", "delta", (pacnt - st["last_cnt"]) & _U8
        )
        st["last_cnt"] = pacnt & _U8
        st["pulscnt_acc"] = (st["pulscnt_acc"] + delta) & _U16
        pos = st["win_pos"] % C.SPEED_WINDOW
        w = np.stack(
            [st[f"win{j}"] for j in range(C.SPEED_WINDOW)], axis=1
        )
        w[np.arange(len(pacnt)), pos] = delta
        for j in range(C.SPEED_WINDOW):
            st[f"win{j}"] = w[:, j].copy()
        st["win_pos"] = (st["win_pos"] + 1) & _U8
        st["win_fill"] = np.minimum(st["win_fill"] + 1, C.SPEED_WINDOW)
        window_sum = w.sum(axis=1)
        pulse_slow = (st["win_fill"] >= C.SPEED_WINDOW) & (
            window_sum < C.SLOW_PULSE_THRESHOLD
        )
        interval = (tcnt - tic1) & _U16
        st["intv_streak"] = np.where(
            interval > C.SLOW_INTERVAL_TCNT,
            np.minimum(st["intv_streak"] + 1, 255),
            0,
        )
        interval_slow = st["intv_streak"] >= 2
        st["quiet"] = np.where(
            delta == 0, np.minimum(st["quiet"] + 1, 255), 0
        )
        st["halted"] = np.where(
            st["quiet"] >= C.STOPPED_QUIET_INVOCATIONS, 1, st["halted"]
        )
        return [
            st["pulscnt_acc"],
            np.where(pulse_slow | interval_slow, 1, 0),
            st["halted"],
        ]

    def _body_calc(self, args, st):
        i, mscnt, pulscnt, slow_speed, stopped = args
        n_prog = len(C.PRESSURE_PROGRAM)
        advance = (
            (stopped == 0)
            & (i < n_prog - 1)
            & ((pulscnt >> C.SEG_SHIFT) > i)
        )
        i_out = np.where(advance, i + 1, i)
        program = np.array(C.PRESSURE_PROGRAM, dtype=np.float64)
        fraction = program[i & (n_prog - 1)]
        # int() truncates toward zero; both products are non-negative
        target = np.where(
            slow_speed != 0,
            (C.SLOW_SPEED_TARGET * self._scale).astype(np.int64),
            (fraction * self._scale).astype(np.int64),
        )
        target = np.minimum(target, mscnt * C.TIME_RAMP_PER_MS)
        target = self._mem_local(  # local u16
            "CALC", "target", target & _U16
        )
        prev = st["set_prev"]
        dt = (mscnt - st["last_mscnt"]) & _U16
        step = C.SETVALUE_RATE_PER_MS * np.minimum(
            dt, C.SETVALUE_DT_CLAMP
        )
        new = np.where(
            target > prev,
            np.minimum(prev + step, target),
            np.where(
                target < prev, np.maximum(prev - step, target), prev
            ),
        )
        st["set_prev"] = new & _U16
        st["last_mscnt"] = mscnt & _U16
        return [i_out, new]

    def _body_pres_s(self, args, st):
        (adc,) = args
        scaled = self._mem_local(  # local u16
            "PRES_S", "scaled", (adc << 6) & _U16
        )
        jump = np.abs(scaled - st["last"]) > C.PRES_MAX_JUMP
        rejects_b = (st["rejects"] + 1) & _U8
        resync = jump & (rejects_b > 5)  # PresS.MAX_REJECT_STREAK
        hold = jump & ~resync  # the only rejecting branch
        st["rejects"] = np.where(hold, rejects_b, 0)
        accept = ~hold
        st["last"] = np.where(accept, scaled, st["last"])
        depth = 5  # PresS.DEPTH
        for j in range(depth - 1):
            st[f"h{j}"] = np.where(accept, st[f"h{j + 1}"], st[f"h{j}"])
        st[f"h{depth - 1}"] = np.where(
            accept, scaled, st[f"h{depth - 1}"]
        )
        history = np.stack(
            [st[f"h{j}"] for j in range(depth)], axis=1
        )
        median = np.sort(history, axis=1)[:, depth // 2]
        return [median & ~(1024 - 1)]  # PresS.QUANTUM

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
        "DIST_S": _body_dist_s,
        "CALC": _body_calc,
        "PRES_S": _body_pres_s,
        "V_REG": _body_v_reg,
        "PRES_A": _body_pres_a,
    }
