"""Scenario configuration, user placement, and minute-resolution weather.

The scenario file is JSON; every key is optional and falls back to the
defaults of Scenario and the equipment dataclasses. check_json walks a
document once against CONFIG_SCHEMA and reports the first unknown key,
missing required key, wrong type or non-finite number at its dotted path.

Weather comes either from a CSV feed (header ``timestamp,ghi_wm2,temp_c``,
one row per minute) or from the built-in clear-sky synthesizer; either way
it is one WeatherSeries, two float64 arrays with one entry per minute.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .energy import (BatterySpec, MimoSpec, PvSpec, Range, RisSpec,
                     UavAirframe, station_power_w)
from .radio import MAX_COORD_M, Position, RadioParams

SOLAR_CONSTANT_WM2 = 1361.0
ATMOSPHERIC_TRANSMITTANCE = 0.75
MINUTES_PER_DAY = 1440
USER_HEIGHT_M = 1.5
NODE_ALTITUDE_M = 50.0
# Largest area side and station altitude [m]: radio's largest coordinate.
EXTENT_M = Range(0, MAX_COORD_M, lo_open=True)
# Physical bounds of a weather minute. GHI [W/m^2] is at most 2000, above
# the solar constant with room for the brief enhancement at cloud edges;
# air temperature [degC] lies within 100 degrees of zero, beyond the
# coldest and hottest ever recorded (-89.2 and 56.7).
MAX_GHI_WM2 = 2000.0
MIN_TEMP_C, MAX_TEMP_C = -100.0, 100.0
# Most terminals of a study: a million, far beyond what a study area's
# cells serve (numpy cannot even hold the positions of 1e30).
MAX_USER_COUNT = 1_000_000
# Highest rate of a terminal [Mbit/s]: a terabit per second, beyond any
# terminal; with the radio bounds it keeps every block count finite.
MAX_RATE_MBPS = 1e6

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


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# "THH:MM" of each minute of a day, built once
_CLOCK = tuple(f"T{m // 60:02d}:{m % 60:02d}" for m in range(MINUTES_PER_DAY))


def parse_date(text: str) -> datetime.date:
    """text as a date, read only if written YYYY-MM-DD; ValueError otherwise.
    date.fromisoformat alone reads more forms on Python 3.11 (20220320,
    2022-W25-2) than on 3.10."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"{text!r} is not written YYYY-MM-DD")
    return datetime.date.fromisoformat(text)


def _minute_stamps(dates: Sequence[datetime.date]) -> list[str]:
    """The timestamp of every minute of dates, in their order, written
    YYYY-MM-DDTHH:MM."""
    return [day + clock for day in map(datetime.date.isoformat, dates)
            for clock in _CLOCK]


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


_BOUNDS = (f"ghi_wm2 must be finite and >= 0, at most {MAX_GHI_WM2:g}, and "
           f"temp_c finite and in [{MIN_TEMP_C:g}, {MAX_TEMP_C:g}]")


@dataclass(frozen=True, eq=False)
class WeatherSeries:
    """Minute weather: global horizontal irradiance [W/m^2] and ambient
    temperature [degC], one float64 entry per minute. Both arrays are
    read-only copies of what was passed in; every GHI is in [0,
    MAX_GHI_WM2] and every temperature in [MIN_TEMP_C, MAX_TEMP_C]; ==
    compares their values."""

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
        # NaN fails every comparison
        bad = np.flatnonzero(~((self.ghi_wm2 >= 0) & (self.ghi_wm2 <= MAX_GHI_WM2)
                               & (self.temp_c >= MIN_TEMP_C)
                               & (self.temp_c <= MAX_TEMP_C)))
        if bad.size:
            t = bad[0]
            raise WeatherError(f"minute {t}: {_BOUNDS}, got {self.ghi_wm2[t]} "
                               f"and {self.temp_c[t]}")

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


def default_node_grid(scenario_altitude: float = NODE_ALTITUDE_M,
                      area_width: float = Scenario.area_width_m,
                      area_height: float = Scenario.area_height_m,
                      **equipment) -> tuple[AccessNode, ...]:
    """Example deployment: nine stations on a 3x3 grid of cell centers,
    with the AccessNode equipment (airframe, mimo, ris, pv, battery) given
    by keyword or its defaults."""
    nodes = []
    xs = [area_width * (2 * i + 1) / 6 for i in range(3)]
    ys = [area_height * (2 * j + 1) / 6 for j in range(3)]
    node_id = 0
    for y in ys:
        for x in xs:
            nodes.append(AccessNode(
                node_id=node_id,
                position=Position(x, y, scenario_altitude), **equipment))
            node_id += 1
    return tuple(nodes)


class _JsonNumber(float):
    """A non-finite number read from JSON; it keeps its text (NaN, 1e400)
    for the error message."""

    def __new__(cls, token: str):
        number = super().__new__(cls, token)
        number.token = token
        return number


def _json_type(hint):
    """The JSON type of a dataclass field: tuple[float, ...] is a list."""
    if get_origin(hint) is tuple:
        return [get_args(hint)[0]]
    return hint


@dataclass(frozen=True)
class Required:
    """A schema entry for a key that its object must contain."""
    kind: object


EQUIPMENT = {"airframe": UavAirframe, "mimo": MimoSpec, "ris": RisSpec,
             "pv": PvSpec, "battery": BatterySpec, "radio": RadioParams}

# The scenario's own scalars: the Scenario field that gives the value's
# type and default, its JSON path, and the range the value must lie in.
SCALARS = {
    "area_width_m": ("area.width_m", EXTENT_M),
    "area_height_m": ("area.height_m", EXTENT_M),
    "user_count": ("users.count", Range(0, MAX_USER_COUNT)),
    "dl_rate_mbps": ("users.dl_mbps", Range(0, MAX_RATE_MBPS)),
    "ul_rate_mbps": ("users.ul_mbps", Range(0, MAX_RATE_MBPS)),
    "run_count": ("simulation.runs", Range(1)),
    "latitude_deg": ("simulation.latitude_deg", Range(-90, 90)),
    "cloud_factor": ("weather.cloud_factor", Range(0, 1)),
    "cloud_jitter": ("weather.cloud_jitter", Range(0, 1, hi_open=True)),
}


def _config_schema() -> dict:
    """The JSON type of every scenario value, as check_json reads it: float
    is a number and int an integer (a bool is neither), str a string, [t] a
    list of t, {key: t} an object with only those keys, and Required(t) a t
    its object must contain. Equipment sections and SCALARS take their types
    from the dataclass fields."""
    schema = {
        "area": {}, "users": {},
        "nodes": {"altitude_m": float,
                  "layout": [{"id": int, "x": Required(float),
                              "y": Required(float)}]},
        "simulation": {"dates": [str]},
        "weather": {"season_temps": {season: [float] for season in SEASONS}},
        **{name: {key: _json_type(hint)
                  for key, hint in get_type_hints(cls).items()}
           for name, cls in EQUIPMENT.items()},
    }
    scenario_types = get_type_hints(Scenario)
    for name, (path, _) in SCALARS.items():
        section, key = path.split(".")
        schema[section][key] = scenario_types[name]
    return schema


CONFIG_SCHEMA = _config_schema()

_EXPECTED = {float: "a number", int: "an integer", str: "a string",
             list: "a list", dict: "an object"}


def check_json(doc, schema, path: str = ""):
    """Return a parsed document as schema gives it (numbers float, lists
    tuples), or raise ConfigError naming the dotted path (area.width_m,
    nodes.layout[0].x) of the first value that is NaN, infinite, an integer
    too large for a float, of the wrong JSON type, or under a key the schema
    does not list, or of an object that lacks a Required key."""
    where = path or "<root>"
    if isinstance(schema, Required):
        schema = schema.kind
    if isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(f"{where}: non-finite number "
                          f"{getattr(doc, 'token', doc)} is not allowed")
    if isinstance(doc, int) and abs(doc) > sys.float_info.max:
        raise ConfigError(f"{where}: {len(str(abs(doc)))}-digit integer is "
                          f"too large for a float")
    kind = type(schema) if isinstance(schema, (list, dict)) else schema
    accepted = {float: numbers.Real, list: (list, tuple)}.get(kind, kind)
    if not isinstance(doc, accepted) or isinstance(doc, bool):
        raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, "
                          f"got {json.dumps(doc, default=repr)}")
    if kind is float:
        return float(doc)
    if kind is list:
        return tuple(check_json(value, schema[0], f"{path}[{i}]")
                     for i, value in enumerate(doc))
    if kind is not dict:
        return doc
    checked = {}
    for key, value in doc.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key in schema:
            checked[key] = check_json(value, schema[key], key_path)
        else:
            raise ConfigError(f"{key_path}: unknown key; allowed: "
                              f"{', '.join(sorted(schema))}")
    for key, kind in schema.items():
        if isinstance(kind, Required) and key not in checked:
            raise ConfigError(f"{where}: missing key {key!r}")
    return checked


def parse_json(text: str):
    """json.loads that keeps each number too large for a float, and each
    NaN, Infinity and -Infinity, with its text for check_json to name."""
    def number(token: str) -> float:
        value = float(token)
        return value if math.isfinite(value) else _JsonNumber(token)
    return json.loads(text, parse_constant=number, parse_float=number)


def read_json(path: str | Path, what: str):
    """parse_json of a file's text. A file that cannot be read (missing, a
    directory, not UTF-8) or parsed raises ConfigError naming it."""
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
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
    return scenario_from_dict(read_json(path, "config"))


def scenario_from_dict(raw: dict) -> Scenario:
    """The Scenario a parsed scenario document describes; every key absent
    from it keeps the Scenario default."""
    doc = check_json(raw, CONFIG_SCHEMA)
    values = {}
    for name, (path, bounds) in SCALARS.items():
        section, key = path.split(".")
        if key in doc.get(section, {}):
            values[name] = doc[section][key]
            bounds.check(path, values[name], ConfigError)
    width = values.get("area_width_m", Scenario.area_width_m)
    height = values.get("area_height_m", Scenario.area_height_m)

    equipment = {}
    for name, cls in EQUIPMENT.items():
        try:
            equipment[name] = cls(**doc.get(name, {}))
        except ValueError as exc:  # ParameterError too
            raise ConfigError(f"invalid '{name}' section: {exc}") from exc
    radio = equipment.pop("radio")

    nodes_section = doc.get("nodes", {})
    altitude = nodes_section.get("altitude_m", NODE_ALTITUDE_M)
    EXTENT_M.check("nodes.altitude_m", altitude, ConfigError)
    if "layout" in nodes_section:
        nodes = tuple(AccessNode(node_id=entry.get("id", i),
                                 position=Position(entry["x"], entry["y"], altitude),
                                 **equipment)
                      for i, entry in enumerate(nodes_section["layout"]))
        if not nodes:
            raise ConfigError("nodes.layout must list at least one station")
        for i, node in enumerate(nodes):
            x, y = node.position.x, node.position.y
            if not (0 <= x <= width and 0 <= y <= height):
                raise ConfigError(f"nodes.layout[{i}] at ({x}, {y}) is outside "
                                  f"the {width} x {height} m area")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"nodes.layout ids must be distinct, got {ids}")
    else:
        nodes = default_node_grid(altitude, width, height, **equipment)
    # every station has this equipment, as engine.run_network requires of
    # the panel and battery; the least draw any design can give one is
    # hover, surface and the cheaper of sleep and an idle cell
    least_wh = min(sum(w * (1.0 / 60.0) for w in station_power_w(nodes[0], level, 0))
                   for level in (None, radio.power_levels_dbm[0]))
    battery = equipment["battery"]
    if least_wh > battery.usable_capacity_wh:
        raise ConfigError(
            f"battery.capacity_wh {battery.capacity_wh} with battery.flight_reserve "
            f"{battery.flight_reserve} leaves {battery.usable_capacity_wh:.4g} Wh "
            f"usable, less than one minute of a station's least draw, "
            f"{least_wh * 60.0:.5g} W or {least_wh:.4g} Wh a minute")

    sim = doc.get("simulation", {})
    if "dates" in sim:
        try:
            dates = tuple(parse_date(d) for d in sim["dates"])
        except ValueError as exc:
            raise ConfigError(f"simulation.dates must be ISO dates: {exc}") from exc
    else:
        dates = DEFAULT_DATES
    if len(dates) != 4 or len(set(dates)) != 4:
        raise ConfigError(f"simulation.dates must be 4 distinct dates, got "
                          f"{[d.isoformat() for d in dates]}")

    season_temps = dict(DEFAULT_SEASON_TEMPS)
    for season, pair in doc.get("weather", {}).get("season_temps", {}).items():
        if (len(pair) != 2 or pair[0] > pair[1] or pair[0] < MIN_TEMP_C
                or pair[1] > MAX_TEMP_C):
            raise ConfigError(f"weather.season_temps.{season} must be [min, max] "
                              f"within [{MIN_TEMP_C:g}, {MAX_TEMP_C:g}], "
                              f"got {list(pair)}")
        season_temps[season] = pair

    return Scenario(**values, nodes=nodes, radio=radio, dates=dates,
                    season_temps=season_temps)


def place_users(scenario: Scenario, seed: int) -> tuple[UserTerminal, ...]:
    """Drop user_count terminals uniformly over the area at 1.5 m height.

    The generator is NumPy's PCG64 seeded through SeedSequence(seed); the
    placement consumes one (count, 2) block of uniform doubles, so the same
    seed reproduces the same layout on any platform.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((scenario.user_count, 2))
    coords *= (scenario.area_width_m, scenario.area_height_m)
    return tuple(UserTerminal(user_id=i, position=Position(x, y, USER_HEIGHT_M))
                 for i, (x, y) in enumerate(coords.tolist()))


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


@functools.lru_cache(maxsize=None)
def _clear_sky_day(latitude_deg: float, date: datetime.date, t_min: float,
                   t_max: float) -> WeatherSeries:
    """One date's cloudless weather. Minutes are evaluated with `math`:
    numpy's cos and power differ from it in the last bit on some."""
    declination = solar_declination_deg(date.timetuple().tm_yday)
    t_mid = (t_min + t_max) / 2.0
    t_amp = (t_max - t_min) / 2.0
    ghi, temp = [], []
    for minute in range(MINUTES_PER_DAY):
        sin_alpha = solar_elevation_sin(latitude_deg, declination, minute)
        ghi.append((SOLAR_CONSTANT_WM2
                    * ATMOSPHERIC_TRANSMITTANCE ** (1.0 / sin_alpha)
                    * sin_alpha) if sin_alpha > 0 else 0.0)
        temp.append(t_mid + t_amp * math.cos(2.0 * math.pi * (minute - 900)
                                             / MINUTES_PER_DAY))
    return WeatherSeries(ghi, temp)


def synth_weather(scenario: Scenario, date: datetime.date,
                  seed: Optional[int] = None) -> WeatherSeries:
    """Synthesize one clear-sky day at 1-minute resolution.

    GHI follows the transmittance model S0 * tau^(1/sin(alpha)) * sin(alpha)
    scaled by scenario.cloud_factor and zeroed below the horizon; temperature
    is a daily sinusoid between the season's configured min and max. With
    scenario.cloud_jitter > 0 and a seed, the day's cloud factor is
    perturbed once by a seeded uniform draw; otherwise the output is a pure
    function of (scenario, date). The cloudless day is computed once per
    (latitude, date, season temperatures) and scaled by the cloud factor.
    """
    cf = scenario.cloud_factor
    if scenario.cloud_jitter > 0 and seed is not None:
        rng = np.random.default_rng([seed, date.toordinal()])
        cf = cf * (1.0 + scenario.cloud_jitter * (2.0 * rng.random() - 1.0))
        cf = min(1.0, max(0.0, cf))
    day = _clear_sky_day(scenario.latitude_deg, date,
                         *scenario.season_temps[scenario.season_label(date)])
    return WeatherSeries(day.ghi_wm2 * cf, day.temp_c)


def synth_study_series(scenario: Scenario,
                       seed: Optional[int] = None) -> WeatherSeries:
    """Synthetic days for all configured dates, back to back."""
    days = [synth_weather(scenario, date, seed=seed) for date in scenario.dates]
    return WeatherSeries(np.concatenate([d.ghi_wm2 for d in days]),
                         np.concatenate([d.temp_c for d in days]))


def load_weather_csv(path: str | Path,
                     expected_dates: Sequence[datetime.date]) -> WeatherSeries:
    """Parse a weather CSV of expected_dates and validate it row by row.

    Requirements: header ``timestamp,ghi_wm2,temp_c``; one row for each
    minute of expected_dates, in their order, stamped YYYY-MM-DDTHH:MM or
    YYYY-MM-DDTHH:MM:00; values within WeatherSeries' bounds. Blank lines
    are skipped. Errors cite the offending line number.
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

    stamps = _minute_stamps(expected_dates)
    ghi_column: list[float] = []
    temp_column: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise WeatherError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        row = len(ghi_column)
        if row == len(stamps):
            raise WeatherError(f"line {lineno}: expected only {row} rows, "
                               f"{MINUTES_PER_DAY} per date")
        text, stamp = parts[0], stamps[row]
        if text != stamp and text != stamp + ":00":
            raise WeatherError(f"line {lineno}: {text!r} is not written "
                               f"{stamp}[:00], the minute expected there")
        try:
            ghi, temp = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise WeatherError(f"line {lineno}: {exc}") from exc
        if not (0 <= ghi <= MAX_GHI_WM2 and MIN_TEMP_C <= temp <= MAX_TEMP_C):
            raise WeatherError(f"line {lineno}: {_BOUNDS}, got {ghi} and {temp}")
        ghi_column.append(ghi)
        temp_column.append(temp)

    if len(ghi_column) != len(stamps):
        raise WeatherError(f"series has {len(ghi_column)} rows; expected {len(stamps)}"
                           f", a whole day of {MINUTES_PER_DAY} rows per date")
    return WeatherSeries(ghi_column, temp_column)


def write_weather_csv(weather: WeatherSeries,
                      dates: Sequence[datetime.date],
                      path: str | Path) -> None:
    """Write a series of dates' minutes as load_weather_csv reads it, each
    row stamped YYYY-MM-DDTHH:MM:00; float fields use repr so a round trip
    reproduces the series exactly."""
    stamps = _minute_stamps(dates)
    if len(weather) != len(stamps):
        raise WeatherError(f"{len(weather)} samples do not cover {len(dates)} "
                           f"whole days")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,ghi_wm2,temp_c\n")
        for stamp, ghi, temp in zip(stamps, weather.ghi_wm2.tolist(),
                                    weather.temp_c.tolist()):
            fh.write(f"{stamp}:00,{ghi!r},{temp!r}\n")
