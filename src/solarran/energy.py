"""Power and energy models for one solar-assisted tethered UAV base station.

Five models drive the energy balance: rotor hover power, MIMO transceiver
power, reflective-surface controller power, photovoltaic output, and the
usable window of the swappable ground-side battery, whose charge
engine.run_network steps. Every station of a scenario carries one
Equipment of the five, from which station_power_w adds up its draw. All
functions are pure; power is in watts, energy in watt-hours, temperatures
in degrees Celsius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated, NamedTuple, Optional, get_type_hints

import numpy as np

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import WeatherSeries

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
# Steepest panel temperature coefficient [1/degC] and hottest nominal
# operating cell temperature [degC]: twice those of real panels, which lose
# 0.2-0.5% of their output per degree at a NOCT of 40-50 degC. With them the
# temperature factor of pv_power lies in [-1.75, 2.25] under bounded weather.
MIN_TEMP_COEFF = -0.01
MAX_NOCT_C = 100.0
# Longest rotor blade [m]: a kilometre, far beyond any rotor (a heavy-lift
# helicopter's is about 16 m), so the disk area stays finite.
MAX_ROTOR_RADIUS_M = 1e3


class ParameterError(ValueError):
    """A physical parameter is outside its valid domain."""


class Range(NamedTuple):
    """The interval a number must lie in, from lo to hi (unbounded above
    when hi is None), each end closed unless marked open; check tests a
    value, refusing NaN, and str() gives the text of its message, with an
    int end in full and a float end to 15 significant digits."""

    lo: float
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    def __str__(self) -> str:
        lo, hi = (f"{end:.15g}" if isinstance(end, float) else str(end)
                  for end in (self.lo, self.hi))
        if self.hi is None:
            return f"{'>' if self.lo_open else '>='} {lo}"
        return (f"in {'(' if self.lo_open else '['}{lo}, "
                f"{hi}{')' if self.hi_open else ']'}")

    def check(self, name: str, value, error: type = ParameterError) -> None:
        """Raise error, naming name, unless value lies in this range."""
        hi = self.hi
        if not ((value > self.lo if self.lo_open else value >= self.lo)
                and (hi is None or (value < hi if self.hi_open else value <= hi))):
            raise error(f"{name} must be {self}, got {value}")


@functools.cache
def declared_ranges(cls) -> tuple[tuple[str, Range], ...]:
    """(field, Range) of each dataclass field Annotated with a Range."""
    return tuple((name, bounds)
                 for name, hint in get_type_hints(cls, include_extras=True).items()
                 for bounds in getattr(hint, "__metadata__", ())
                 if isinstance(bounds, Range))


def check_ranges(obj) -> None:
    """Raise ParameterError naming the first field, or the field of the
    first entry of a tuple, outside its Range."""
    for name, bounds in declared_ranges(type(obj)):
        value = getattr(obj, name)
        for entry in value if isinstance(value, tuple) else (value,):
            bounds.check(name, entry)


Fraction = Annotated[float, Range(0, 1, lo_open=True)]  # an efficiency or derating
MimoPower = Annotated[float, Range(0, MAX_MIMO_POWER_W)]  # W


@dataclass(frozen=True)
class UavAirframe:
    """Multirotor airframe hovering on a powered tether.

    total_mass is body plus payload (radio and reflective surface included,
    solar-panel mass neglected). drive_efficiency covers motor and rotor
    losses, tether_efficiency the ground-to-air power feed.
    """

    total_mass: Annotated[float, Range(0)] = 2.396                   # kg
    rotor_count: Annotated[int, Range(1)] = 4
    rotor_radius: Annotated[float, Range(0, MAX_ROTOR_RADIUS_M,
                                         lo_open=True)] = 0.2       # m
    air_density: Annotated[float, Range(0, lo_open=True)] = 1.225    # kg/m^3
    drive_efficiency: Fraction = 0.7
    tether_efficiency: Fraction = 0.95

    def __post_init__(self):
        check_ranges(self)
        uav_hover_power(self)  # refuses a hover power that overflows


@dataclass(frozen=True)
class MimoSpec:
    """Massive-MIMO transceiver power parameters.

    Power when active: fixed_power + antenna_count * per_antenna_circuit_power
    + served_users * per_user_processing_power + radiated / pa_efficiency.
    When the cell is switched off only sleep_power remains. The transceiver
    maximum is the top of the power ladder, RadioParams.power_levels_dbm.
    """

    antenna_count: Annotated[int, Range(1, MAX_ANTENNA_COUNT)] = 64
    fixed_power: MimoPower = 20.0
    per_antenna_circuit_power: MimoPower = 1.5
    per_user_processing_power: MimoPower = 0.3
    pa_efficiency: Fraction = 0.5
    sleep_power: MimoPower = 5.0

    __post_init__ = check_ranges


@dataclass(frozen=True)
class RisSpec:
    """Passive reflective surface: element count and phase resolution,
    one of the resolutions RIS_ELEMENT_POWER lists."""

    element_count: Annotated[int, Range(0)] = 16
    phase_bits: int = 6

    def __post_init__(self):
        check_ranges(self)
        if self.phase_bits not in RIS_ELEMENT_POWER:
            raise ParameterError(
                f"phase_bits {self.phase_bits} not in per-element power table "
                f"{sorted(RIS_ELEMENT_POWER)}")


@dataclass(frozen=True)
class PvSpec:
    """Thin-film solar panel: rated output with derating and a linear
    temperature coefficient around standard test conditions."""

    rated_power: Annotated[float, Range(0, MAX_RATED_POWER_W)] = 120.0  # W at STC
    derating_factor: Fraction = 0.9
    temp_coeff: Annotated[float, Range(MIN_TEMP_COEFF, 0)] = -0.0035    # 1/degC
    noct: Annotated[float, Range(20, MAX_NOCT_C, lo_open=True)] = 45.0  # degC, NOCT

    __post_init__ = check_ranges


@dataclass(frozen=True)
class BatterySpec:
    """Swappable ground-side battery pack.

    A fixed flight_reserve fraction of the nameplate capacity pays for the
    ferry flights of every fresh pack, so the usable window is
    capacity * (1 - flight_reserve).
    """

    capacity_wh: Annotated[float, Range(0, MAX_CAPACITY_WH, lo_open=True)] = 763.0
    charge_efficiency: Fraction = 0.95
    flight_reserve: Annotated[float, Range(0, 1, lo_open=True, hi_open=True)] = 0.05

    __post_init__ = check_ranges

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
    except (OverflowError, ZeroDivisionError):  # the divisor may underflow
        ideal = math.inf  # refused below, like any other non-finite power
    drawn = ideal / (airframe.drive_efficiency * airframe.tether_efficiency)
    if not math.isfinite(drawn):
        raise ParameterError("hover power is not finite; check airframe parameters")
    return drawn


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def mimo_power(spec: MimoSpec, tx_power_dbm: Optional[float],
               served_users: int) -> float:
    """Transceiver power [W] of one cell at tx_power_dbm, None if it sleeps.

    Active cells pay the fixed share, circuit power per antenna, processing
    power per served user, and the radiated power scaled by amplifier
    efficiency. A sleeping cell idles at sleep_power; served_users is not
    read. tx_power_dbm is not bounded here: the designer takes it from the
    power ladder, whose top entry is the transceiver maximum.
    """
    if tx_power_dbm is None:
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
    return spec.element_count * RIS_ELEMENT_POWER[spec.phase_bits]


@dataclass(frozen=True)
class Equipment:
    """The five specs that every station of a scenario carries."""

    airframe: UavAirframe = UavAirframe()
    mimo: MimoSpec = MimoSpec()
    ris: RisSpec = RisSpec()
    pv: PvSpec = PvSpec()
    battery: BatterySpec = BatterySpec()


def station_power_w(equipment: Equipment, tx_power_dbm: Optional[float],
                    served_users: int) -> tuple[float, float, float]:
    """Hover, transceiver and reflective-surface draw [W] of one station;
    tx_power_dbm is None for a sleeping cell, as in mimo_power."""
    return (uav_hover_power(equipment.airframe),
            mimo_power(equipment.mimo, tx_power_dbm, served_users),
            ris_power(equipment.ris))


def pv_power(spec: PvSpec, weather: WeatherSeries) -> np.ndarray:
    """Panel output [W] of each minute of weather, whose GHI is never
    negative: rated power scaled by derating, by irradiance relative to STC
    and by the temperature coefficient at the NOCT model's cell temperature,
    T_cell = T_ambient + GHI * (NOCT - 20) / 800, floored at zero."""
    ghi = weather.ghi_wm2
    t_cell = weather.temp_c + ghi * (spec.noct - 20.0) / 800.0
    out = (spec.rated_power * spec.derating_factor
           * (ghi / STC_IRRADIANCE)
           * (1.0 + spec.temp_coeff * (t_cell - STC_CELL_TEMP)))
    # max(0.0, out) per minute: NaN and -0.0 become 0.0 (not fmax)
    return np.where(out > 0.0, out, 0.0)
