"""Peripheral registers with micro-controller semantics.

PACNT is an 8-bit free-wrapping pulse accumulator (4 pulses per metre
of run-out), TCNT a free-running 16-bit timer (250 counts per 1 ms
tick), TIC1 latches TCNT at each pulse (input capture), the 10-bit ADC
samples the applied brake pressure, and TOC2 (14 bits) commands it.

The fault injector corrupts these registers directly
(:meth:`repro.target.simulation.ArrestmentSimulator.corrupt_input`);
their refresh semantics decide whether a flip is persistent (counter
registers) or transient (the ADC result register is rewritten at the
next conversion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.target import constants as C

__all__ = ["SensorSuite"]

_PACNT_MASK = (1 << C.PACNT_BITS) - 1
_ADC_FULL = (1 << C.ADC_BITS) - 1
_TOC2_FULL = (1 << C.TOC2_BITS) - 1


@dataclass
class SensorSuite:
    """Sensor/actuator register file, advanced once per tick."""

    tcnt: int = 0
    pacnt: int = 0
    tic1: int = 0
    adc: int = 0
    #: unwrapped pulse total (diagnostic; not visible to the software).
    total_pulses: int = 0
    _pulse_mirror: int = 0

    def advance(self, distance_m: float, pressure_pa: float) -> None:
        """One tick of register updates from the plant's true state."""
        self.tcnt = (self.tcnt + C.TCNT_PER_TICK) & 0xFFFF
        pulses = int(distance_m * C.PULSES_PER_M)
        new = pulses - self._pulse_mirror
        if new > 0:
            self._pulse_mirror = pulses
            self.pacnt = (self.pacnt + new) & _PACNT_MASK
            self.total_pulses += new
            self.tic1 = self.tcnt
        # min/max clamps spelled as comparisons (same ties and NaN)
        fraction = pressure_pa / C.ADC_FULL_SCALE_PA
        if 0.0 > fraction:
            fraction = 0.0
        if 1.0 < fraction:
            fraction = 1.0
        adc = int(fraction * _ADC_FULL)
        self.adc = adc if adc < _ADC_FULL else _ADC_FULL

    @staticmethod
    def commanded_pressure(toc2: int) -> float:
        """Brake pressure commanded by the TOC2 register value."""
        fraction = toc2 / _TOC2_FULL
        if 0.0 > fraction:
            fraction = 0.0
        if 1.0 < fraction:
            fraction = 1.0
        return fraction * C.P_MAX_PA

    def reset(self) -> None:
        self.tcnt = 0
        self.pacnt = 0
        self.tic1 = 0
        self.adc = 0
        self.total_pulses = 0
        self._pulse_mirror = 0

    def snapshot(self) -> dict:
        """Every register (incl. the pulse mirror), for checkpoint capture."""
        return {
            "tcnt": self.tcnt,
            "pacnt": self.pacnt,
            "tic1": self.tic1,
            "adc": self.adc,
            "total_pulses": self.total_pulses,
            "_pulse_mirror": self._pulse_mirror,
        }

    def restore(self, snapshot: dict) -> None:
        for name, value in snapshot.items():
            setattr(self, name, value)
