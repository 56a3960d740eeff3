"""Power and energy models for one solar-assisted tethered UAV base station.

Five models drive the energy balance: rotor hover power, MIMO transceiver
power, reflective-surface controller power, photovoltaic output, and the
usable window of the swappable ground-side battery, whose charge
engine.run_network steps. station_power_w adds up a station's draw for
the designer and the config check. All functions are pure; power is in
watts, energy in watt-hours, temperatures in degrees Celsius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .scenario import AccessNode

STANDARD_GRAVITY = 9.80665  # m/s^2

# Controller draw per reflecting element, by phase-shift resolution [W].
RIS_ELEMENT_POWER = {3: 0.0015, 4: 0.0045, 5: 0.006, 6: 0.0078}
# Standard test conditions, at which a panel delivers its rated power.
STC_IRRADIANCE = 1000.0  # W/m^2
STC_CELL_TEMP = 25.0     # degC
# Largest panel rating [W] and battery capacity [Wh]: a gigawatt and a
# gigawatt-hour, far beyond any station, and small enough that day totals
# and means over stations of harvests and charges stay finite under any
# physical weather.
MAX_RATED_POWER_W = 1e9
MAX_CAPACITY_WH = 1e9
# Largest fixed, per-antenna, per-user and sleep power of a transceiver [W],
# a gigawatt for the same reason.
MAX_MIMO_POWER_W = 1e9
# Largest antenna count of a transceiver: a million elements, far beyond
# any array, and small enough that the circuit draw stays finite with
# per_antenna_circuit_power at its bound.
MAX_ANTENNA_COUNT = 1_000_000


class ParameterError(ValueError):
    """A physical parameter is outside its valid domain."""


@dataclass(frozen=True)
class UavAirframe:
    """Multirotor airframe hovering on a powered tether.

    total_mass is body plus payload (radio and reflective surface included,
    solar-panel mass neglected). drive_efficiency covers motor and rotor
    losses, tether_efficiency the ground-to-air power feed.
    """

    total_mass: float = 2.396       # kg
    rotor_count: int = 4
    rotor_radius: float = 0.2       # m
    air_density: float = 1.225      # kg/m^3
    drive_efficiency: float = 0.7
    tether_efficiency: float = 0.95

    def __post_init__(self):
        if self.total_mass < 0:
            raise ParameterError(f"total_mass must be >= 0, got {self.total_mass}")
        if self.rotor_count < 1:
            raise ParameterError(f"rotor_count must be >= 1, got {self.rotor_count}")
        if self.rotor_radius <= 0:
            raise ParameterError(f"rotor_radius must be > 0, got {self.rotor_radius}")
        if self.air_density <= 0:
            raise ParameterError(f"air_density must be > 0, got {self.air_density}")
        for name in ("drive_efficiency", "tether_efficiency"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ParameterError(f"{name} must be in (0, 1], got {v}")
        uav_hover_power(self)  # refuses a hover power that overflows


@dataclass(frozen=True)
class MimoSpec:
    """Massive-MIMO transceiver power parameters.

    Power when active: fixed_power + antenna_count * per_antenna_circuit_power
    + served_users * per_user_processing_power + radiated / pa_efficiency.
    When the cell is switched off only sleep_power remains. The transceiver
    maximum is the top of the power ladder, RadioParams.power_levels_dbm.
    """

    antenna_count: int = 64
    fixed_power: float = 20.0               # W
    per_antenna_circuit_power: float = 1.5  # W
    per_user_processing_power: float = 0.3  # W
    pa_efficiency: float = 0.5
    sleep_power: float = 5.0                # W

    def __post_init__(self):
        if not 1 <= self.antenna_count <= MAX_ANTENNA_COUNT:
            raise ParameterError(f"antenna_count must be in [1, {MAX_ANTENNA_COUNT}], "
                                 f"got {self.antenna_count}")
        for name in ("fixed_power", "per_antenna_circuit_power",
                     "per_user_processing_power", "sleep_power"):
            v = getattr(self, name)
            if not 0 <= v <= MAX_MIMO_POWER_W:
                raise ParameterError(f"{name} must be in [0, {MAX_MIMO_POWER_W:.0f}], "
                                     f"got {v}")
        if not 0 < self.pa_efficiency <= 1:
            raise ParameterError(f"pa_efficiency must be in (0, 1], got {self.pa_efficiency}")


@dataclass(frozen=True)
class RisSpec:
    """Passive reflective surface: element count and phase resolution,
    one of the resolutions RIS_ELEMENT_POWER lists."""

    element_count: int = 16
    phase_bits: int = 6

    def __post_init__(self):
        if self.element_count < 0:
            raise ParameterError(f"element_count must be >= 0, got {self.element_count}")
        if self.phase_bits not in RIS_ELEMENT_POWER:
            raise ParameterError(
                f"phase_bits {self.phase_bits} not in per-element power table "
                f"{sorted(RIS_ELEMENT_POWER)}")


@dataclass(frozen=True)
class PvSpec:
    """Thin-film solar panel: rated output with derating and a linear
    temperature coefficient around standard test conditions."""

    rated_power: float = 120.0      # W at STC
    derating_factor: float = 0.9
    temp_coeff: float = -0.0035     # 1/degC
    noct: float = 45.0              # degC, nominal operating cell temperature

    def __post_init__(self):
        if not 0 <= self.rated_power <= MAX_RATED_POWER_W:
            raise ParameterError(f"rated_power must be in [0, {MAX_RATED_POWER_W:.0f}], "
                                 f"got {self.rated_power}")
        if not 0 < self.derating_factor <= 1:
            raise ParameterError(f"derating_factor must be in (0, 1], got {self.derating_factor}")
        if self.temp_coeff > 0:
            raise ParameterError(f"temp_coeff must be <= 0, got {self.temp_coeff}")
        if self.noct <= 20:
            raise ParameterError(f"noct must be > 20 degC, got {self.noct}")


@dataclass(frozen=True)
class BatterySpec:
    """Swappable ground-side battery pack.

    A fixed flight_reserve fraction of the nameplate capacity pays for the
    ferry flights of every fresh pack, so the usable window is
    capacity * (1 - flight_reserve).
    """

    capacity_wh: float = 763.0
    charge_efficiency: float = 0.95
    flight_reserve: float = 0.05

    def __post_init__(self):
        if not 0 < self.capacity_wh <= MAX_CAPACITY_WH:
            raise ParameterError(f"capacity_wh must be in (0, {MAX_CAPACITY_WH:.0f}], "
                                 f"got {self.capacity_wh}")
        if not 0 < self.charge_efficiency <= 1:
            raise ParameterError(
                f"charge_efficiency must be in (0, 1], got {self.charge_efficiency}")
        if not 0 < self.flight_reserve < 1:
            raise ParameterError(
                f"flight_reserve must be in (0, 1), got {self.flight_reserve}")

    @property
    def usable_capacity_wh(self) -> float:
        return self.capacity_wh * (1.0 - self.flight_reserve)


def uav_hover_power(airframe: UavAirframe) -> float:
    """Electrical power [W] drawn through the tether to hold a hover.

    Ideal induced power from momentum theory,
    P = (m g)^1.5 / sqrt(2 rho A), over the total rotor disk area
    A = n pi r^2, divided by drive and tether efficiencies. The deployment
    is stationary, so this is constant for a whole run.
    """
    disk_area = airframe.rotor_count * math.pi * airframe.rotor_radius ** 2
    if disk_area <= 0:
        raise ParameterError("rotor disk area must be positive")
    thrust = airframe.total_mass * STANDARD_GRAVITY
    try:
        ideal = thrust ** 1.5 / math.sqrt(2.0 * airframe.air_density * disk_area)
    except OverflowError:  # refused below, like any other non-finite power
        ideal = math.inf
    drawn = ideal / (airframe.drive_efficiency * airframe.tether_efficiency)
    if not math.isfinite(drawn):
        raise ParameterError("hover power is not finite; check airframe parameters")
    return drawn


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def mimo_power(spec: MimoSpec, active: bool, served_users: int,
               tx_power_dbm: float) -> float:
    """Transceiver power [W] for one cell.

    Active cells pay the fixed share, circuit power per antenna, processing
    power per served user, and the radiated power scaled by amplifier
    efficiency. Inactive cells idle at sleep_power. tx_power_dbm is not
    bounded here: the designer takes it from the power ladder, whose top
    entry is the transceiver maximum.
    """
    if not active:
        return spec.sleep_power
    if served_users < 0:
        raise ParameterError(f"served_users must be >= 0, got {served_users}")
    return (spec.fixed_power
            + spec.antenna_count * spec.per_antenna_circuit_power
            + served_users * spec.per_user_processing_power
            + dbm_to_watts(tx_power_dbm) / spec.pa_efficiency)


def ris_power(spec: RisSpec) -> float:
    """Controller power [W] of the reflective surface: count times the
    per-element draw at the configured phase resolution."""
    if spec.element_count == 0:
        return 0.0
    return spec.element_count * RIS_ELEMENT_POWER[spec.phase_bits]


def station_power_w(node: AccessNode, tx_power_dbm: Optional[float],
                    served_users: int) -> tuple[float, float, float]:
    """Hover, transceiver and reflective-surface draw [W] of one station;
    tx_power_dbm is None for a sleeping cell, as in design.CellConfig."""
    active = tx_power_dbm is not None
    return (uav_hover_power(node.airframe),
            mimo_power(node.mimo, active, served_users,
                       tx_power_dbm if active else 0.0),
            ris_power(node.ris))


def cell_temperature(ambient_c, ghi_wm2, noct_c: float):
    """Panel cell temperature [degC] from ambient and irradiance via the
    NOCT linear model: T_cell = T_ambient + GHI * (NOCT - 20) / 800."""
    if np.any(ghi_wm2 < 0):
        raise ParameterError(f"ghi must be >= 0, got {np.min(ghi_wm2)}")
    return ambient_c + ghi_wm2 * (noct_c - 20.0) / 800.0


def pv_power(spec: PvSpec, ghi_wm2, ambient_c):
    """Panel output [W]: rated power scaled by derating, by irradiance
    relative to STC, and by the temperature coefficient, floored at zero.
    Takes floats, or one array entry per minute as the engine passes them."""
    t_cell = cell_temperature(ambient_c, ghi_wm2, spec.noct)
    out = (spec.rated_power * spec.derating_factor
           * (ghi_wm2 / STC_IRRADIANCE)
           * (1.0 + spec.temp_coeff * (t_cell - STC_CELL_TEMP)))
    # max(0.0, out) for floats and arrays: NaN and -0.0 become 0.0 (not fmax)
    return np.where(out > 0.0, out, 0.0)[()]
