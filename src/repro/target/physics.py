"""Plant model: aircraft, cable, and rotary friction brakes.

Point-mass longitudinal dynamics with a first-order actuator lag and a
linear pressure-to-force brake characteristic, plus passive tape drag.
Deliberately simple — the analyses consume the *software's* signal
traces; the plant only closes the loop with plausible, deterministic
dynamics (see ``docs/target-system.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.target import constants as C

__all__ = ["PlantState", "ArrestmentPlant"]


@dataclass
class PlantState:
    """Instantaneous plant state, updated in place each tick."""

    velocity_ms: float = 0.0
    distance_m: float = 0.0
    pressure_pa: float = 0.0
    force_n: float = 0.0
    retardation_ms2: float = 0.0


class ArrestmentPlant:
    """One engagement: mass on a cable, brakes on the tape drums."""

    def __init__(self, mass_kg: float, engaging_velocity_ms: float):
        if mass_kg <= 0:
            raise ModelError(f"mass must be positive, got {mass_kg}")
        if engaging_velocity_ms <= 0:
            raise ModelError(
                f"engaging velocity must be positive, "
                f"got {engaging_velocity_ms}"
            )
        self.mass_kg = mass_kg
        self.engaging_velocity_ms = engaging_velocity_ms
        self.state = PlantState(velocity_ms=engaging_velocity_ms)
        self.peak_force_n = 0.0
        self.peak_retardation_ms2 = 0.0

    @property
    def is_stopped(self) -> bool:
        return self.state.velocity_ms == 0.0

    def step(self, commanded_pa: float, dt_s: float = C.TICK_S) -> PlantState:
        """Advance one tick under the commanded brake pressure."""
        state = self.state
        # min/max clamps spelled as comparisons (same ties and NaN)
        commanded = 0.0 if 0.0 > commanded_pa else commanded_pa
        if C.P_MAX_PA < commanded:
            commanded = C.P_MAX_PA
        state.pressure_pa += (
            (commanded - state.pressure_pa) * dt_s / C.ACTUATOR_TAU_S
        )
        if state.velocity_ms <= 0.0:
            state.force_n = 0.0
            state.retardation_ms2 = 0.0
            return state
        force = C.BRAKE_GAIN_N_PER_PA * state.pressure_pa + C.TAPE_DRAG_N
        retardation = force / self.mass_kg
        velocity = state.velocity_ms - retardation * dt_s
        new_velocity = velocity if velocity > 0.0 else 0.0
        state.distance_m += (state.velocity_ms + new_velocity) * 0.5 * dt_s
        state.velocity_ms = new_velocity
        state.force_n = force
        state.retardation_ms2 = retardation
        if force > self.peak_force_n:
            self.peak_force_n = force
        if retardation > self.peak_retardation_ms2:
            self.peak_retardation_ms2 = retardation
        return state

    def reset(self) -> None:
        """Return to the engagement state (velocity restored, all else 0)."""
        self.state = PlantState(velocity_ms=self.engaging_velocity_ms)
        self.peak_force_n = 0.0
        self.peak_retardation_ms2 = 0.0

    def snapshot(self) -> dict:
        """Plant state plus peak accumulators, for checkpoint capture."""
        state = self.state
        return {
            "velocity_ms": state.velocity_ms,
            "distance_m": state.distance_m,
            "pressure_pa": state.pressure_pa,
            "force_n": state.force_n,
            "retardation_ms2": state.retardation_ms2,
            "peak_force_n": self.peak_force_n,
            "peak_retardation_ms2": self.peak_retardation_ms2,
        }

    def restore(self, snapshot: dict) -> None:
        values = dict(snapshot)
        self.peak_force_n = values.pop("peak_force_n")
        self.peak_retardation_ms2 = values.pop("peak_retardation_ms2")
        self.state = PlantState(**values)
