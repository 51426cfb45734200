"""Struct-of-arrays batch kernel for the water-tank target.

Advances a whole batch of injected missions through each tick at once:
every scalar quantity of :class:`~repro.watertank.simulation.WaterTankSimulator`
— plant state, module state cells, sensor registers, the signal store —
becomes an int64/float64 array with one row per run, and each module
body is transcribed onto those arrays in the exact operation order of
the scalar code (same quantization points, same branch structure
encoded as masks).  Outcomes are bit-identical to the scalar path by
construction; see :mod:`repro.fi.vector` for the contract.

Dispatch is per row: like the scalar mission loop, each row runs the
modules of its own ``tick_nbr`` slot, so rows whose flips corrupt the
dispatch chain (TIMER successor cells, the ``tick_nbr`` signal) follow
their corrupted schedule inside the batch via masked invocations.
Only permeability rows — whose recorded invocation streams assume the
golden schedule — retire to the scalar path on dispatch divergence.
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
from repro.watertank import constants as C

__all__ = ["WatertankVectorKernel"]

_U8 = 0xFF
_U16 = 0xFFFF


def _rows(template_of, rows, pick, dtype=np.int64):
    """One array column per row, gathered from the rows' templates."""
    return np.array(
        [pick(template_of(row.case_id)) for row in rows], dtype=dtype
    )


class WatertankVectorKernel:
    """Vectorized mission executor for batches of water-tank runs."""

    target_name = "watertank"

    @staticmethod
    def supports(probe) -> bool:
        return type(probe).__name__ == "WaterTankSimulator"

    def __init__(self, probe):
        self.mission_ticks = int(probe.mission_ticks)
        self.n_slots = C.N_SLOTS
        self.slot_modules: Dict[int, List[str]] = {}
        for module, slot in C.MODULE_SLOTS.items():
            self.slot_modules.setdefault(slot, []).append(module)
        system = probe.system
        #: module -> (in ports, out ports, in signals, out signals)
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
        #: signal -> (SignalType, width), for store-write quantization
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
            ("TIMER", f"succ{j}") for j in range(self.n_slots)
        )
        self._mem: MemoryFlipPlan | None = None
        self._rec: InvocationRecorder | None = None

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

    # ------------------------------------------------------------------
    def _q_store(self, signal: str, values):
        """Store-write quantization of *values* for *signal* (always a
        fresh array, so store cells never alias register arrays)."""
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
        mission = self.mission_ticks
        template_of = job.templates.__getitem__
        case_of = job.cases.__getitem__

        # ---- per-row signal store (int64, one row per run)
        signal_names = list(template_of(rows[0].case_id).signals)
        S = {
            name: _rows(template_of, rows, lambda t, n=name: t.signals[n])
            for name in signal_names
        }

        # ---- per-row module state cells
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

        # ---- per-row plant, sensors, inflow profile
        plant_keys = ("time_s", "level_m", "valve_pos", "total_inflow_m3")
        P = {
            key: _rows(
                template_of, rows, lambda t, k=key: t.plant[k], np.float64
            )
            for key in plant_keys
        }
        regs = {
            "LVL_ADC": _rows(
                template_of, rows, lambda t: t.sensors["lvl_adc"]
            ),
            "FLOW_CNT": _rows(
                template_of, rows, lambda t: t.sensors["flow_cnt"]
            ),
        }
        mirror = _rows(
            template_of, rows, lambda t: t.sensors["_pulse_mirror"]
        )
        base = np.array(
            [case_of(r.case_id).base_inflow_m3s for r in rows], np.float64
        )
        step_amp = np.array(
            [case_of(r.case_id).step_m3s for r in rows], np.float64
        )

        # ---- injection plan
        inj = [row.injection for row in rows]
        bitmask = np.array([1 << i.bit for i in inj], dtype=np.int64)
        first_inj = np.full(n, -1, dtype=np.int64)
        mem = rec = None
        inj_tick = inj_sig = None
        if job.kind == "permeability":
            rec = InvocationRecorder(self, rows, bitmask, first_inj, mission)
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

        # ---- mission verdict accumulators (memory/recovery rows)
        if mem is not None:
            missed = np.zeros(n, dtype=np.int64)
            failed = np.zeros(n, dtype=bool)
        else:
            missed = failed = None
        self._mem = mem
        self._rec = rec

        # ---- the mission loop
        succ = np.stack(
            [M["TIMER"][f"succ{j}"] for j in range(self.n_slots)], axis=1
        )
        retired = np.zeros(n, dtype=bool)
        row_ix = np.arange(n)
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
            regs["LVL_ADC"] = np.rint(ratio * adc_full).astype(np.int64)
            pulses = np.floor(
                P["total_inflow_m3"] * C.PULSES_PER_M3
            ).astype(np.int64)
            upd = pulses > mirror
            regs["FLOW_CNT"] = np.where(
                upd, (regs["FLOW_CNT"] + (pulses - mirror)) & _U8,
                regs["FLOW_CNT"],
            )
            mirror = np.where(upd, pulses, mirror)

            # --- _write_sensor_inputs
            S["LVL_ADC"] = self._q_store("LVL_ADC", regs["LVL_ADC"])
            S["FLOW_CNT"] = self._q_store("FLOW_CNT", regs["FLOW_CNT"])

            # --- pre-tick system-input flips (detection rows)
            if inj_tick is not None:
                fire = inj_tick == t
                if fire.any():
                    for signal, is_sig in inj_sig.items():
                        m = fire & is_sig
                        if m.any():
                            regs[signal][m] ^= bitmask[m]
                            S[signal][m] ^= bitmask[m]
                    first_inj[fire] = t

            # --- pre-tick periodic memory flips (memory/recovery rows)
            if mem is not None and mem.pre_tick(t, S, M):
                succ = np.stack(
                    [M["TIMER"][f"succ{j}"] for j in range(self.n_slots)],
                    axis=1,
                )

            # --- TIMER (every tick)
            arg = S["tick_nbr"].copy()
            if rec is not None:
                rec.marshal("TIMER", [arg])
            if mem is not None:
                mem.marshal("TIMER", [arg])
            in_range = arg < self.n_slots
            gathered = succ[row_ix, arg % self.n_slots]
            nxt = self._mem_local(
                "TIMER", "next_slot", np.where(in_range, gathered, 0)
            )
            timer = M["TIMER"]
            timer["ticks"] = (timer["ticks"] + 1) & _U16
            S["tick_nbr"] = self._q_store("tick_nbr", nxt)
            S["ticks"] = self._q_store("ticks", timer["ticks"])
            if rec is not None:
                rec.record("TIMER", [arg], [S["tick_nbr"], S["ticks"]])

            # --- the slot's module(s)
            slot = (t + 1) % self.n_slots
            cur = S["tick_nbr"]
            if rec is None:
                # per-row dispatch (memory/recovery/detection rows):
                # exactly like the scalar mission loop, each row runs
                # the modules of its own — possibly corrupted —
                # tick_nbr slot, so dispatch-divergent rows stay in
                # the batch instead of retiring to the scalar path
                if (cur == slot).all():
                    for module in self.slot_modules.get(slot, ()):
                        self._invoke(module, S, M)
                else:
                    for value in np.unique(cur):
                        modules = self.slot_modules.get(int(value), ())
                        if not modules:
                            continue
                        row_mask = cur == value
                        for module in modules:
                            self._invoke(module, S, M, mask=row_mask)
            else:
                # permeability rows: the recorded invocation streams
                # assume the golden schedule — retire rows whose
                # dispatch diverged from it
                retired |= cur != slot
                for module in self.slot_modules.get(slot, ()):
                    self._invoke(module, S, M)

            # --- monitor bank (end of each dispatch cycle)
            if bank is not None and t % self.n_slots == self.n_slots - 1:
                bank.evaluate(S, t)

            # --- TankPlant.step
            commanded = np.maximum(
                0.0, np.minimum(1.0, S["VALVE_POS"] / valve_full)
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

            # --- _observe_safety (memory/recovery rows)
            if mem is not None:
                level = P["level_m"]
                bad = (level > C.ALARM_LEVEL_M) & (S["ALARM_OUT"] == 0)
                missed = np.where(bad, missed + 1, 0)
                failed |= (
                    (level >= C.MAX_LEVEL_M)
                    | (level <= C.MIN_LEVEL_M)
                    | (missed > C.ALARM_GRACE_TICKS)
                )

        self._mem = self._rec = None
        vector_stats.batched_ticks += n * mission

        injected = first_inj >= 0
        return GroupResult(
            retired=retired.tolist(),
            injected=injected.tolist(),
            first_injection_tick=[
                int(v) if v >= 0 else None for v in first_inj
            ],
            completion_tick=[mission - 1] * n,
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
    # One module invocation on the whole batch.
    # ------------------------------------------------------------------
    def _invoke(self, module, S, M, mask=None):
        """Gather args from the store, apply marshal flips, run the
        module body, write outputs back through store quantization,
        and record (post-marshal args, store read-back outputs) — the
        two tuples an :class:`InvocationRecord` captures.

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
    # Module bodies (exact transcriptions of repro.watertank.modules).
    # ------------------------------------------------------------------
    def _body_level_s(self, args, st):
        (adc,) = args
        scaled = self._mem_local(  # local u16
            "LEVEL_S", "scaled", (adc << (16 - C.LVL_ADC_BITS)) & _U16
        )
        jump = np.abs(scaled - st["last_good"]) > C.LEVEL_MAX_JUMP
        rejects_b = (st["rejects"] + 1) & _U8
        resync = jump & (rejects_b > 5)
        hold = jump & ~resync
        sample = np.where(hold, st["last_good"], scaled)
        st["last_good"] = np.where(hold, st["last_good"], sample)
        st["rejects"] = np.where(hold, rejects_b, 0)
        sample = self._mem_local(  # local u16
            "LEVEL_S", "sample", sample & _U16
        )
        st["h2"] = st["h1"]
        st["h1"] = st["h0"]
        st["h0"] = sample
        low = np.minimum(st["h0"], st["h1"])
        high = np.maximum(st["h0"], st["h1"])
        median = np.maximum(low, np.minimum(high, st["h2"]))
        return [median & ~(C.LEVEL_QUANTUM - 1)]

    def _body_flow_s(self, args, st):
        (cnt,) = args
        delta = self._mem_local(  # local u8
            "FLOW_S", "delta", (cnt - st["last_cnt"]) & _U8
        )
        st["last_cnt"] = cnt & _U8
        pos = st["pos"] % C.FLOW_WINDOW
        w = np.stack(
            [st[f"w{j}"] for j in range(C.FLOW_WINDOW)], axis=1
        )
        w[np.arange(len(cnt)), pos] = delta
        for j in range(C.FLOW_WINDOW):
            st[f"w{j}"] = w[:, j].copy()
        st["pos"] = (pos + 1) % C.FLOW_WINDOW
        rate = self._mem_local(  # local u16 wraps
            "FLOW_S", "rate", (w.sum(axis=1) << 7) & _U16
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
        dt = np.where(started, (ticks - st["last_ticks"]) & _U16, 0)
        st["started"] = np.ones(len(ticks), dtype=np.int64)
        st["last_ticks"] = ticks & _U16
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
        st["cmd_prev"] = cmd & _U16
        return [cmd]

    def _body_alarm(self, args, st):
        (level_f,) = args
        level = self._mem_local(  # local u16
            "ALARM", "level_copy", level_f & _U16
        )
        latched = st["latched"] != 0
        unlatch = latched & (level < C.ALARM_OFF_COUNTS)
        latch = (~latched) & (level > C.ALARM_ON_COUNTS)
        new = np.where(unlatch, 0, np.where(latch, 1, st["latched"]))
        st["latched"] = q_bool(new)
        return [st["latched"]]

    def _body_valve_a(self, args, st):
        (valve_cmd,) = args
        return [self._mem_local("VALVE_A", "pos", (valve_cmd >> 4) & _U16)]

    _BODIES = {
        "LEVEL_S": _body_level_s,
        "FLOW_S": _body_flow_s,
        "CTRL": _body_ctrl,
        "ALARM": _body_alarm,
        "VALVE_A": _body_valve_a,
    }
