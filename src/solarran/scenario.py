"""Scenario configuration, user placement, and minute-resolution weather.

The scenario file is JSON; every key is optional and falls back to the
defaults below, unknown keys are rejected. Weather comes either from a CSV
feed (header ``timestamp,ghi_wm2,temp_c``, one row per minute) or from the
built-in clear-sky synthesizer; either way it is one WeatherSeries, two
float64 arrays with one entry per minute.
"""

from __future__ import annotations

import datetime
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .energy import (BatterySpec, MimoSpec, ParameterError, PvSpec, RisSpec,
                     UavAirframe)
from .radio import Position, RadioParams

SOLAR_CONSTANT_WM2 = 1361.0
ATMOSPHERIC_TRANSMITTANCE = 0.75
MINUTES_PER_DAY = 1440
USER_HEIGHT_M = 1.5

SEASONS = ("spring", "summer", "autumn", "winter")

DEFAULT_DATES = (
    datetime.date(2022, 3, 20),
    datetime.date(2022, 6, 21),
    datetime.date(2022, 9, 23),
    datetime.date(2022, 12, 21),
)

# Daily (min, max) ambient temperature per season [degC], roughly central
# European; the sinusoid peaks at 15:00 and bottoms out at 03:00.
DEFAULT_SEASON_TEMPS = {
    "spring": (2.0, 12.0),
    "summer": (14.0, 24.0),
    "autumn": (7.0, 16.0),
    "winter": (-4.0, 2.0),
}


class ConfigError(ValueError):
    """Scenario file is missing, malformed, or violates a constraint."""


class WeatherError(ValueError):
    """Weather series is malformed (gap, duplicate, or bad value)."""


@dataclass(frozen=True)
class AccessNode:
    """One tethered UAV base station with all of its equipment specs."""

    node_id: int
    position: Position
    airframe: UavAirframe = UavAirframe()
    mimo: MimoSpec = MimoSpec()
    ris: RisSpec = RisSpec()
    pv: PvSpec = PvSpec()
    battery: BatterySpec = BatterySpec()


@dataclass(frozen=True)
class UserTerminal:
    user_id: int
    position: Position


@dataclass(frozen=True, eq=False)
class WeatherSeries:
    """Minute weather: global horizontal irradiance [W/m^2] and ambient
    temperature [degC], one float64 entry per minute. Both arrays are
    read-only copies of what was passed in; == compares their values."""

    ghi_wm2: np.ndarray
    temp_c: np.ndarray

    def __post_init__(self):
        for name in ("ghi_wm2", "temp_c"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.ghi_wm2.ndim != 1 or self.ghi_wm2.shape != self.temp_c.shape:
            raise WeatherError(f"ghi_wm2 and temp_c must be 1-D and of equal "
                               f"length, got shapes {self.ghi_wm2.shape} and "
                               f"{self.temp_c.shape}")

    def __len__(self) -> int:
        return len(self.ghi_wm2)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeatherSeries)
                and np.array_equal(self.ghi_wm2, other.ghi_wm2)
                and np.array_equal(self.temp_c, other.temp_c))


@dataclass(frozen=True)
class Scenario:
    area_width_m: float = 3000.0
    area_height_m: float = 3000.0
    user_count: int = 100
    dl_rate_mbps: float = 100.0
    ul_rate_mbps: float = 25.0
    node_altitude_m: float = 50.0
    nodes: tuple[AccessNode, ...] = field(
        default_factory=lambda: default_node_grid())
    radio: RadioParams = RadioParams()
    run_count: int = 10
    dates: tuple[datetime.date, ...] = DEFAULT_DATES
    latitude_deg: float = 52.41
    cloud_factor: float = 0.7
    cloud_jitter: float = 0.0
    season_temps: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_SEASON_TEMPS))

    def season_label(self, date: datetime.date) -> str:
        """Season name for a configured date (by position), or by month for
        ad-hoc dates outside the configured list."""
        if date in self.dates:
            return SEASONS[self.dates.index(date)]
        month_season = {12: "winter", 1: "winter", 2: "winter",
                        3: "spring", 4: "spring", 5: "spring",
                        6: "summer", 7: "summer", 8: "summer",
                        9: "autumn", 10: "autumn", 11: "autumn"}
        return month_season[date.month]


def default_node_grid(scenario_altitude: float = 50.0,
                      area_width: float = 3000.0,
                      area_height: float = 3000.0,
                      airframe: UavAirframe = UavAirframe(),
                      mimo: MimoSpec = MimoSpec(),
                      ris: RisSpec = RisSpec(),
                      pv: PvSpec = PvSpec(),
                      battery: BatterySpec = BatterySpec()) -> tuple[AccessNode, ...]:
    """Example deployment: nine stations on a 3x3 grid of cell centers."""
    nodes = []
    xs = [area_width * (2 * i + 1) / 6 for i in range(3)]
    ys = [area_height * (2 * j + 1) / 6 for j in range(3)]
    node_id = 0
    for y in ys:
        for x in xs:
            nodes.append(AccessNode(
                node_id=node_id,
                position=Position(x, y, scenario_altitude),
                airframe=airframe, mimo=mimo, ris=ris, pv=pv, battery=battery))
            node_id += 1
    return tuple(nodes)


def _require_keys(section: dict, allowed: set[str], prefix: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in '{prefix}'; "
                          f"allowed: {sorted(allowed)}")


def _build(cls, section: dict, prefix: str):
    try:
        return cls(**section)
    except (ParameterError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid '{prefix}' section: {exc}") from exc


class _JsonNumber(float):
    """A non-finite number read from JSON; it keeps its text (NaN, 1e400)
    for the error message."""

    def __new__(cls, token: str):
        number = super().__new__(cls, token)
        number.token = token
        return number


def check_finite(doc, path: str = "") -> None:
    """Raise ConfigError naming the dotted path (area.width_m,
    nodes.layout[0].x) of the first number in a parsed document that is
    NaN, infinite, or an integer too large for a float."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            check_finite(value, f"{path}.{key}" if path else str(key))
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            check_finite(value, f"{path}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(f"{path or '<root>'}: non-finite number "
                          f"{getattr(doc, 'token', doc)} is not allowed")
    elif isinstance(doc, int) and abs(doc) > sys.float_info.max:
        raise ConfigError(f"{path or '<root>'}: {len(str(abs(doc)))}-digit "
                          f"integer is too large for a float")


# The JSON type of every scenario value: float is a number (a bool is not),
# str a string, [shape] a list of that shape, and {key: shape} an object
# whose "*" entry gives the shape of every key it does not name.
CONFIG_SHAPE = {
    "nodes": {"*": float, "layout": [{"*": float}]},
    "radio": {"*": float, "power_levels_dbm": [float]},
    "ris": {"*": float, "per_element_power": {"*": float}},
    "simulation": {"*": float, "dates": [str]},
    "weather": {"*": float, "season_temps": {"*": [float]}},
    "*": {"*": float},
}


def check_shape(doc, shape, path: str) -> None:
    """Raise ConfigError naming the dotted path of the first value in a
    parsed document whose JSON type is not the one shape gives it."""
    kind = shape if shape in (float, str) else type(shape)
    if kind is float:
        ok = isinstance(doc, numbers.Real) and not isinstance(doc, bool)
    else:
        ok = isinstance(doc, (list, tuple) if kind is list else kind)
    if not ok:
        expected = {float: "a number", str: "a string", list: "a list",
                    dict: "an object"}[kind]
        raise ConfigError(f"{path or '<root>'}: expected {expected}, "
                          f"got {json.dumps(doc, default=repr)}")
    if kind is dict:
        for key, value in doc.items():
            check_shape(value, shape.get(key, shape["*"]),
                        f"{path}.{key}" if path else str(key))
    elif kind is list:
        for i, value in enumerate(doc):
            check_shape(value, shape[0], f"{path}[{i}]")


def parse_json(text: str):
    """json.loads that refuses NaN, Infinity, -Infinity and numbers that
    overflow a float, raising ConfigError that names where they are."""
    def number(token: str) -> float:
        value = float(token)
        return value if math.isfinite(value) else _JsonNumber(token)
    doc = json.loads(text, parse_constant=number, parse_float=number)
    check_finite(doc)
    return doc


def read_json(path: str | Path, what: str):
    """parse_json of a file's text. A file that cannot be read (missing, a
    directory, not UTF-8) or parsed raises ConfigError naming it."""
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path) -> Scenario:
    """Read and validate a scenario file.

    Raises ConfigError naming the offending key and constraint; an empty
    JSON object yields the all-defaults scenario (nine-node grid, 100 users,
    10 runs, the four seasonal dates).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    check_finite(raw)
    _require_keys(raw, {"area", "users", "nodes", "radio", "airframe", "mimo",
                        "ris", "pv", "battery", "simulation", "weather"}, "<root>")
    check_shape(raw, CONFIG_SHAPE, "")

    area = raw.get("area", {})
    _require_keys(area, {"width_m", "height_m"}, "area")
    width = float(area.get("width_m", 3000.0))
    height = float(area.get("height_m", 3000.0))
    if width <= 0 or height <= 0:
        raise ConfigError(f"area.width_m and area.height_m must be > 0, "
                          f"got {width} x {height}")

    users = raw.get("users", {})
    _require_keys(users, {"count", "dl_mbps", "ul_mbps"}, "users")
    user_count = users.get("count", 100)
    if not isinstance(user_count, int) or user_count < 0:
        raise ConfigError(f"users.count must be an integer >= 0, got {user_count!r}")
    dl = float(users.get("dl_mbps", 100.0))
    ul = float(users.get("ul_mbps", 25.0))
    if dl < 0 or ul < 0:
        raise ConfigError(f"users.dl_mbps and users.ul_mbps must be >= 0, got {dl}/{ul}")

    airframe = _build(UavAirframe, raw.get("airframe", {}), "airframe")
    mimo = _build(MimoSpec, raw.get("mimo", {}), "mimo")
    ris_section = dict(raw.get("ris", {}))
    if "per_element_power" in ris_section:
        try:
            ris_section["per_element_power"] = {
                int(k): float(v) for k, v in ris_section["per_element_power"].items()}
        except ValueError as exc:
            raise ConfigError(f"invalid 'ris.per_element_power': {exc}") from exc
    ris = _build(RisSpec, ris_section, "ris")
    pv = _build(PvSpec, raw.get("pv", {}), "pv")
    battery = _build(BatterySpec, raw.get("battery", {}), "battery")

    radio_section = dict(raw.get("radio", {}))
    if "power_levels_dbm" in radio_section:
        radio_section["power_levels_dbm"] = tuple(
            float(p) for p in radio_section["power_levels_dbm"])
    radio = _build(RadioParams, radio_section, "radio")
    if radio.max_power_dbm != mimo.max_tx_power_dbm:
        raise ConfigError(
            f"radio.power_levels_dbm max ({radio.max_power_dbm}) must equal "
            f"mimo.max_tx_power_dbm ({mimo.max_tx_power_dbm})")

    nodes_section = raw.get("nodes", {})
    _require_keys(nodes_section, {"altitude_m", "layout"}, "nodes")
    altitude = float(nodes_section.get("altitude_m", 50.0))
    if altitude <= 0:
        raise ConfigError(f"nodes.altitude_m must be > 0, got {altitude}")
    if "layout" in nodes_section:
        nodes = []
        seen_ids = set()
        for i, entry in enumerate(nodes_section["layout"]):
            _require_keys(entry, {"id", "x", "y"}, f"nodes.layout[{i}]")
            node_id = entry.get("id", i)
            if node_id in seen_ids:
                raise ConfigError(f"duplicate node id {node_id} in nodes.layout")
            seen_ids.add(node_id)
            try:
                x, y = float(entry["x"]), float(entry["y"])
            except KeyError as exc:
                raise ConfigError(f"nodes.layout[{i}] missing coordinate {exc}") from exc
            if not (0 <= x <= width and 0 <= y <= height):
                raise ConfigError(
                    f"nodes.layout[{i}] at ({x}, {y}) is outside the "
                    f"{width} x {height} m area")
            nodes.append(AccessNode(node_id=node_id,
                                    position=Position(x, y, altitude),
                                    airframe=airframe, mimo=mimo, ris=ris,
                                    pv=pv, battery=battery))
        if not nodes:
            raise ConfigError("nodes.layout must list at least one station")
        nodes = tuple(nodes)
    else:
        nodes = default_node_grid(altitude, width, height,
                                  airframe, mimo, ris, pv, battery)

    sim = raw.get("simulation", {})
    _require_keys(sim, {"runs", "dates", "latitude_deg"}, "simulation")
    runs = sim.get("runs", 10)
    if not isinstance(runs, int) or runs < 1:
        raise ConfigError(f"simulation.runs must be an integer >= 1, got {runs!r}")
    if "dates" in sim:
        try:
            dates = tuple(datetime.date.fromisoformat(d) for d in sim["dates"])
        except ValueError as exc:
            raise ConfigError(f"simulation.dates must be ISO dates: {exc}") from exc
    else:
        dates = DEFAULT_DATES
    if len(dates) != 4 or len(set(dates)) != 4:
        raise ConfigError(f"simulation.dates must be 4 distinct dates, got {dates}")
    latitude = float(sim.get("latitude_deg", 52.41))
    if not -90 <= latitude <= 90:
        raise ConfigError(f"simulation.latitude_deg must be in [-90, 90], got {latitude}")

    weather = raw.get("weather", {})
    _require_keys(weather, {"cloud_factor", "cloud_jitter", "season_temps"}, "weather")
    cloud_factor = float(weather.get("cloud_factor", 0.7))
    if not 0 <= cloud_factor <= 1:
        raise ConfigError(f"weather.cloud_factor must be in [0, 1], got {cloud_factor}")
    cloud_jitter = float(weather.get("cloud_jitter", 0.0))
    if not 0 <= cloud_jitter < 1:
        raise ConfigError(f"weather.cloud_jitter must be in [0, 1), got {cloud_jitter}")
    season_temps = dict(DEFAULT_SEASON_TEMPS)
    for season, pair in weather.get("season_temps", {}).items():
        if season not in SEASONS:
            raise ConfigError(f"weather.season_temps key must be one of {SEASONS}, "
                              f"got {season!r}")
        if len(pair) != 2 or pair[0] > pair[1]:
            raise ConfigError(f"weather.season_temps.{season} must be [min, max], "
                              f"got {pair}")
        season_temps[season] = (float(pair[0]), float(pair[1]))

    return Scenario(area_width_m=width, area_height_m=height,
                    user_count=user_count, dl_rate_mbps=dl, ul_rate_mbps=ul,
                    node_altitude_m=altitude, nodes=nodes, radio=radio,
                    run_count=runs, dates=dates, latitude_deg=latitude,
                    cloud_factor=cloud_factor, cloud_jitter=cloud_jitter,
                    season_temps=season_temps)


def place_users(scenario: Scenario, seed: int) -> tuple[UserTerminal, ...]:
    """Drop user_count terminals uniformly over the area at 1.5 m height.

    The generator is NumPy's PCG64 seeded through SeedSequence(seed); the
    placement consumes one (count, 2) block of uniform doubles, so the same
    seed reproduces the same layout on any platform.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((scenario.user_count, 2))
    return tuple(
        UserTerminal(user_id=i,
                     position=Position(float(coords[i, 0] * scenario.area_width_m),
                                       float(coords[i, 1] * scenario.area_height_m),
                                       USER_HEIGHT_M))
        for i in range(scenario.user_count))


def solar_declination_deg(day_of_year: int) -> float:
    return 23.45 * math.sin(2.0 * math.pi * (284 + day_of_year) / 365.0)


def solar_elevation_sin(latitude_deg: float, declination_deg: float,
                        minute_of_day: int) -> float:
    """Sine of the solar elevation; the series runs in local solar time, so
    the hour angle is zero at minute 720."""
    hour_angle = math.radians((minute_of_day / 60.0 - 12.0) * 15.0)
    lat = math.radians(latitude_deg)
    dec = math.radians(declination_deg)
    return (math.sin(lat) * math.sin(dec)
            + math.cos(lat) * math.cos(dec) * math.cos(hour_angle))


def synth_weather(scenario: Scenario, date: datetime.date,
                  cloud_factor: Optional[float] = None,
                  seed: Optional[int] = None) -> WeatherSeries:
    """Synthesize one clear-sky day at 1-minute resolution.

    GHI follows the transmittance model S0 * tau^(1/sin(alpha)) * sin(alpha)
    scaled by the cloud factor and zeroed below the horizon; temperature is
    a daily sinusoid between the season's configured min and max. With
    scenario.cloud_jitter > 0 and a seed, the day's cloud factor is
    perturbed once by a seeded uniform draw; otherwise the output is a pure
    function of (scenario, date, cloud_factor). Minutes are evaluated with
    `math`: numpy's cos and power differ from it in the last bit on some.
    """
    cf = scenario.cloud_factor if cloud_factor is None else cloud_factor
    if scenario.cloud_jitter > 0 and seed is not None:
        rng = np.random.default_rng([seed, date.toordinal()])
        cf = cf * (1.0 + scenario.cloud_jitter * (2.0 * rng.random() - 1.0))
        cf = min(1.0, max(0.0, cf))

    declination = solar_declination_deg(date.timetuple().tm_yday)
    t_min, t_max = scenario.season_temps[scenario.season_label(date)]
    t_mid = (t_min + t_max) / 2.0
    t_amp = (t_max - t_min) / 2.0

    ghi, temp = [], []
    for minute in range(MINUTES_PER_DAY):
        sin_alpha = solar_elevation_sin(scenario.latitude_deg, declination, minute)
        ghi.append((SOLAR_CONSTANT_WM2
                    * ATMOSPHERIC_TRANSMITTANCE ** (1.0 / sin_alpha)
                    * sin_alpha * cf) if sin_alpha > 0 else 0.0)
        temp.append(t_mid + t_amp * math.cos(2.0 * math.pi * (minute - 900)
                                             / MINUTES_PER_DAY))
    return WeatherSeries(ghi, temp)


def synth_study_series(scenario: Scenario,
                       seed: Optional[int] = None) -> WeatherSeries:
    """Synthetic days for all configured dates, back to back."""
    days = [synth_weather(scenario, date, seed=seed) for date in scenario.dates]
    return WeatherSeries(np.concatenate([d.ghi_wm2 for d in days]),
                         np.concatenate([d.temp_c for d in days]))


def load_weather_csv(path: str | Path,
                     expected_dates: Optional[Sequence[datetime.date]] = None
                     ) -> WeatherSeries:
    """Parse a weather CSV and validate it row by row.

    Requirements: header ``timestamp,ghi_wm2,temp_c``; ISO-8601 timestamps
    on an exact 1-minute cadence starting at midnight; 1440 rows per day;
    finite values, ghi >= 0. When expected_dates is given, the file's days
    must match them in order. Errors cite the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise WeatherError(f"weather file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise WeatherError(f"cannot read weather file {path}: {exc}") from exc
    if not lines or lines[0].strip() != "timestamp,ghi_wm2,temp_c":
        raise WeatherError("line 1: header must be 'timestamp,ghi_wm2,temp_c'")

    ghi_column: list[float] = []
    temp_column: list[float] = []
    days: list[datetime.date] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise WeatherError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            ts = datetime.datetime.fromisoformat(parts[0])
            ghi = float(parts[1])
            temp = float(parts[2])
        except ValueError as exc:
            raise WeatherError(f"line {lineno}: {exc}") from exc
        if not (math.isfinite(ghi) and math.isfinite(temp)):
            raise WeatherError(f"line {lineno}: ghi_wm2 and temp_c must be "
                               f"finite, got {ghi} and {temp}")
        if ghi < 0:
            raise WeatherError(f"line {lineno}: ghi_wm2 must be >= 0, got {ghi}")
        minute_of_day = len(ghi_column) % MINUTES_PER_DAY
        expected_time = datetime.time(minute_of_day // 60, minute_of_day % 60)
        if ts.time() != expected_time:
            raise WeatherError(
                f"line {lineno}: expected time {expected_time.isoformat()} "
                f"(1-minute cadence, {MINUTES_PER_DAY} rows per day), "
                f"got {ts.time().isoformat()}")
        if minute_of_day == 0:
            if days and ts.date() <= days[-1]:
                raise WeatherError(f"line {lineno}: day {ts.date()} does not "
                                   f"follow {days[-1]}")
            days.append(ts.date())
        elif ts.date() != days[-1]:
            raise WeatherError(f"line {lineno}: date changed mid-day from "
                               f"{days[-1]} to {ts.date()}")
        ghi_column.append(ghi)
        temp_column.append(temp)

    if len(ghi_column) % MINUTES_PER_DAY != 0 or not ghi_column:
        raise WeatherError(f"series has {len(ghi_column)} rows; must be a whole "
                           f"number of {MINUTES_PER_DAY}-row days")
    if expected_dates is not None and days != list(expected_dates):
        raise WeatherError(f"file covers days {days}, expected {list(expected_dates)}")
    return WeatherSeries(ghi_column, temp_column)


def write_weather_csv(weather: WeatherSeries,
                      dates: Sequence[datetime.date],
                      path: str | Path) -> None:
    """Write a series in the CSV format load_weather_csv accepts; float
    fields use repr so a round trip reproduces the series exactly."""
    if len(weather) != len(dates) * MINUTES_PER_DAY:
        raise WeatherError(f"{len(weather)} samples do not cover {len(dates)} "
                           f"whole days")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,ghi_wm2,temp_c\n")
        for i, (ghi, temp) in enumerate(zip(weather.ghi_wm2.tolist(),
                                            weather.temp_c.tolist())):
            date = dates[i // MINUTES_PER_DAY]
            minute = i % MINUTES_PER_DAY
            ts = datetime.datetime.combine(date, datetime.time(minute // 60, minute % 60))
            fh.write(f"{ts.isoformat()},{ghi!r},{temp!r}\n")
