"""Tests for configuration loading, user placement, and weather handling."""

import dataclasses
import datetime
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from solarran import scenario as scenario_module
from solarran.cli import main
from solarran.design import greedy_design
from solarran.energy import declared_ranges
from solarran.scenario import (CONFIG_SCHEMA, EQUIPMENT, EXTENT_M, MAX_GHI_WM2,
                               MAX_STATION_DRAW_W, MAX_TEMP_C, MIN_TEMP_C,
                               SCALARS, ConfigError,
                               Scenario,
                               WeatherError, WeatherSeries, load_config,
                               load_weather_csv, place_users, scenario_from_dict,
                               solar_declination_deg, solar_elevation_sin,
                               synth_study_series, synth_weather,
                               write_weather_csv, _uniform)

SUMMER = datetime.date(2022, 6, 21)
WINTER = datetime.date(2022, 12, 21)


def write_config(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _declared_bounds():
    """(section, key, Range, JSON type) of every declared input bound: the
    equipment and radio fields, SCALARS and the station altitude."""
    scenario_types = typing.get_type_hints(Scenario)
    rows = [(section, key, bounds, typing.get_type_hints(cls)[key])
            for section, cls in EQUIPMENT.items()
            for key, bounds in declared_ranges(cls)]
    rows += [(*path.split("."), bounds, scenario_types[name])
             for name, (path, bounds) in SCALARS.items()]
    return rows + [("nodes", "altitude_m", EXTENT_M, float)]


BOUNDS = _declared_bounds()


def _edges(bounds, kind):
    """(value, in range) at each finite end of bounds: a closed end itself,
    then the nearest number of kind beyond the end, or an open end itself."""
    for end, is_open, outward in ((bounds.lo, bounds.lo_open, -1),
                                  (bounds.hi, bounds.hi_open, 1)):
        if end is None:
            continue
        end = kind(end)
        if not is_open:
            yield end, True
            end = (end + outward if kind is int
                   else math.nextafter(end, outward * math.inf))
        yield end, False


def test_every_input_bound_is_declared():
    # 20 equipment fields, 10 radio fields, 9 scenario scalars, the altitude
    assert len(BOUNDS) == 40


@pytest.mark.parametrize("section, key, bounds, kind", BOUNDS,
                         ids=[f"{s}.{k}" for s, k, _, _ in BOUNDS])
def test_declared_bounds_at_their_edges(section, key, bounds, kind):
    # a tuple field's bound holds for each entry: one entry is tried
    entry = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else kind
    for value, in_range in _edges(bounds, entry):
        raw = {section: {key: value if entry is kind else [value]}}
        if in_range:
            try:
                scenario_from_dict(raw)
            except ConfigError as exc:  # in range, but a station draws too much
                assert f"is above {MAX_STATION_DRAW_W:g} W" in str(exc)
            continue
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(raw)
        message = str(info.value)
        assert section in message
        assert f"{key} must be {bounds}, got {value}" in message


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        sc = load_config(write_config(tmp_path, {}))
        assert sc.user_count == 100
        assert sc.run_count == 10
        assert len(sc.dates) == 4
        assert len(sc.nodes) == 9
        assert sc.dl_rate_mbps == 100.0
        assert sc.ul_rate_mbps == 25.0
        assert all(n.position.z == 50.0 for n in sc.nodes)

    def test_negative_user_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="users.count"):
            load_config(write_config(tmp_path, {"users": {"count": -1}}))

    def test_largest_draw_counts_the_users_a_cell_fits(self):
        # a served user takes a block for each nonzero rate, so a cell of
        # 273 blocks serves at most 136 users at both rates, 273 at one
        for users in ({"count": 400_000}, {"count": 1_000_000},
                      {"count": 1_000_000, "dl_mbps": 0}):
            scenario = scenario_from_dict({"users": users})
            assert scenario.user_count == users["count"]
        for users, per_user_w, serving in [
                ({"count": 1_000_000, "dl_mbps": 0, "ul_mbps": 0}, None,
                 "all users.count 1000000"),
                ({"count": 1000}, 1000.0, "136 users, all that "
                 "radio.total_prbs 273 fits at 2 blocks a user"),
                ({"count": 1000, "ul_mbps": 0}, 1000.0, "273 users, all that "
                 "radio.total_prbs 273 fits at 1 block a user"),
                # at 5e-324 Mbit/s even the best link's share of a block
                # rounds to 0: the rate takes no block and caps nothing
                ({"count": 1000, "dl_mbps": 5e-324, "ul_mbps": 0}, 150.0,
                 "all users.count 1000")]:
            mimo = {} if per_user_w is None else {
                "per_user_processing_power": per_user_w}
            with pytest.raises(ConfigError, match=re.escape(
                    f"dBm serving {serving}, is above 100000 W")):
                scenario_from_dict({"users": users, "mimo": mimo})

    def test_extents_bounded_so_distances_stay_finite(self):
        widest = scenario_from_dict({"area": {"width_m": 1e7, "height_m": 1e7},
                                     "nodes": {"altitude_m": 1e7}})
        assert widest.area_width_m == widest.nodes[0].position.z == 1e7
        for raw, path in [({"area": {"width_m": 1.5e7}}, "area.width_m"),
                          ({"area": {"height_m": 1e308}}, "area.height_m"),
                          ({"nodes": {"altitude_m": 2e7}}, "nodes.altitude_m")]:
            with pytest.raises(ConfigError, match=re.escape(
                    f"{path} must be in (0, 10000000]")):
                scenario_from_dict(raw)

    def test_node_outside_area_rejected(self, tmp_path):
        payload = {"nodes": {"layout": [{"id": 0, "x": 5000.0, "y": 10.0}]}}
        with pytest.raises(ConfigError, match="outside"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, {"userz": {}}))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, {"users": {"n": 5}}))
        with pytest.raises(ConfigError, match="^area.foo: unknown key"):
            scenario_from_dict({"area": {"foo": "x"}})

    def test_power_ladder_top_is_the_transceiver_max(self, tmp_path):
        payload = {"radio": {"power_levels_dbm": [28.0, 34.0, 38.0]}}
        sc = load_config(write_config(tmp_path, payload))
        net = greedy_design(sc.nodes, place_users(sc, 42), sc.radio,
                            sc.dl_rate_mbps, sc.ul_rate_mbps)
        levels = {c.tx_power_dbm for c in net.cells if c.active}
        assert max(levels) == 38.0
        assert levels <= {28.0, 34.0, 38.0}

    def test_dates_must_be_four_distinct(self, tmp_path):
        payload = {"simulation": {"dates": ["2022-03-20", "2022-06-21",
                                            "2022-06-21", "2022-12-21"]}}
        with pytest.raises(ConfigError, match="4 distinct"):
            load_config(write_config(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_bundled_example_loads(self):
        import solarran
        sc = load_config(solarran.example_config_path())
        assert len(sc.nodes) == 9
        assert sc.equipment.airframe.total_mass == pytest.approx(2.396)

    def test_bundled_example_is_written_out_in_full(self):
        import solarran
        path = solarran.example_config_path()
        assert key_paths(json.loads(Path(path).read_text())) == key_paths(CONFIG_SCHEMA)
        assert load_config(path) == Scenario()

    def test_readme_scenario_block_is_written_out_in_full(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Scenario file\n.*?```jsonc\n(.*?)```", readme,
                          re.DOTALL).group(1)
        block = re.sub(r"//[^\n]*", "", re.sub(r"/\*.*?\*/", "", block,
                                               flags=re.DOTALL))
        assert key_paths(json.loads(block)) == key_paths(CONFIG_SCHEMA)


def key_paths(doc, path=""):
    """The dotted path of every leaf of a document or schema; list entries
    share the path `<list>[]`."""
    if isinstance(doc, (list, tuple)):
        return set().union(*(key_paths(v, f"{path}[]") for v in doc))
    if isinstance(doc, dict):
        return set().union(*(key_paths(v, f"{path}.{k}" if path else k)
                             for k, v in doc.items()))
    return {path}


def _number_fields(cls):
    return [f.name for f in dataclasses.fields(cls)
            if type(f.default) in (int, float)]


NUMBER_FIELDS = [
    *[("area", k) for k in ("width_m", "height_m")],
    *[("users", k) for k in ("count", "dl_mbps", "ul_mbps")],
    ("nodes", "altitude_m"),
    *[("simulation", k) for k in ("runs", "latitude_deg")],
    *[("weather", k) for k in ("cloud_factor", "cloud_jitter")],
    *[(section, k) for section, cls in EQUIPMENT.items()
      for k in _number_fields(cls)],
]

INTEGER_FIELDS = [(section, k) for section, cls in EQUIPMENT.items()
                  for k, hint in typing.get_type_hints(cls).items() if hint is int]


class TestNonFiniteConfig:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(NUMBER_FIELDS),
           token=st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400",
                                  "-1e400", '"abc"', "true", "null", "[]",
                                  "{}"]))
    def test_any_field_rejected(self, tmp_path, field, token):
        section, key = field
        path = tmp_path / "scenario.json"
        path.write_text(f'{{"{section}": {{"{key}": {token}}}}}',
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(token.lstrip("-"))) as info:
            load_config(path)
        assert f"{section}.{key}" in str(info.value)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(NUMBER_FIELDS),
           value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_any_field_rejected_from_python(self, field, value):
        section, key = field
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: non-finite"):
            scenario_from_dict({section: {key: value}})

    @pytest.mark.parametrize("raw, path", [
        ({"area": {"width_m": float("nan")}, "pv": {"rated_power": float("inf")}},
         "area.width_m"),
        ({"nodes": {"layout": [{"id": 0, "x": 10.0, "y": float("nan")}]}},
         "nodes.layout[0].y"),
        ({"radio": {"power_levels_dbm": [28.0, float("inf")]}},
         "radio.power_levels_dbm[1]"),
        ({"weather": {"season_temps": {"summer": (14.0, float("nan"))}}},
         "weather.season_temps.summer[1]"),
        ({"users": {"dl_mbps": 10 ** 400}}, "users.dl_mbps"),
    ], ids=["two_fields", "layout", "ladder", "season", "big_int"])
    def test_nested_python_values_named_by_path(self, raw, path):
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(raw)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("raw, path", [
        *[({section: {key: 4.5}}, f"{section}.{key}")
          for section, key in INTEGER_FIELDS],
        ({"nodes": {"layout": [{"id": 1.2, "x": 10.0, "y": 10.0},
                               {"id": 1.7, "x": 20.0, "y": 20.0}]}},
         "nodes.layout[0].id"),
    ], ids=[*(f"{s}.{k}" for s, k in INTEGER_FIELDS), "layout_ids"])
    def test_fractional_integer_exits_2(self, tmp_path, capsys, raw, path):
        rc = main(["simulate", "--config", str(write_config(tmp_path, raw)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{path}: expected an integer, got" in capsys.readouterr().err

    def test_empty_layout_rejected(self):
        with pytest.raises(ConfigError, match="nodes.layout"):
            scenario_from_dict({"nodes": {"layout": []}})

    def test_duplicate_layout_ids_rejected(self):
        layout = [{"id": 3, "x": 10.0, "y": 10.0}, {"id": 3, "x": 20.0, "y": 20.0}]
        with pytest.raises(ConfigError, match=r"ids must be distinct, got \[3, 3\]"):
            scenario_from_dict({"nodes": {"layout": layout}})

    def test_layout_ids_at_both_int64_ends_accepted(self):
        ends = [-2**63, 2**63 - 1]
        layout = [{"id": i, "x": 10.0, "y": 10.0} for i in ends]
        sc = scenario_from_dict({"nodes": {"layout": layout}})
        assert [node.node_id for node in sc.nodes] == ends
        with pytest.raises(ConfigError, match=re.escape(
                "nodes.layout[1].id must be in [-9223372036854775808, "
                "9223372036854775807], got -9223372036854775809")):
            scenario_from_dict({"nodes": {"layout": [
                layout[1], {"id": -2**63 - 1, "x": 10.0, "y": 10.0}]}})

    def test_layout_entry_without_coordinate_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^nodes\.layout\[0\]: missing key 'y'$"):
            scenario_from_dict({"nodes": {"layout": [{"id": 0, "x": 10.0}]}})


class TestPlaceUsers:
    def test_empty(self):
        sc = scenario_from_dict({"users": {"count": 0}})
        assert place_users(sc, 1) == ()

    def test_deterministic(self):
        sc = scenario_from_dict({})
        assert place_users(sc, 123) == place_users(sc, 123)
        assert place_users(sc, 123) != place_users(sc, 124)

    def test_all_inside_area_at_ground_height(self):
        sc = scenario_from_dict({})
        for u in place_users(sc, 9):
            assert 0 <= u.position.x <= sc.area_width_m
            assert 0 <= u.position.y <= sc.area_height_m
            assert u.position.z == 1.5

    def test_law_of_large_numbers(self):
        sc = scenario_from_dict({"users": {"count": 10000}})
        users = place_users(sc, 7)
        xs = np.array([u.position.x for u in users])
        ys = np.array([u.position.y for u in users])
        assert abs(xs.mean() - 1500.0) < 0.01 * 1500.0
        assert abs(ys.mean() - 1500.0) < 0.01 * 1500.0

    def test_layout_is_numpys_default_rng_block(self):
        sc = scenario_from_dict({"area": {"width_m": 800.0, "height_m": 2500.0}})
        coords = np.random.default_rng(31).random((sc.user_count, 2))
        coords *= (800.0, 2500.0)
        users = place_users(sc, 31)
        assert [[u.position.x, u.position.y] for u in users] == coords.tolist()


def reference_uniform(entropy, count):
    return np.random.default_rng(entropy).random(count).tolist()


class TestUniform:
    """_uniform is NumPy's PCG64 stream seeded through SeedSequence, made
    without numpy.random; here that stream is the reference."""

    @given(st.integers(0, 2**64 - 1))
    @example(0)
    @example(2**32 - 1)
    @example(2**32)
    @example(2**64 - 1)
    def test_u64_seed(self, seed):
        assert _uniform(seed, 5) == reference_uniform(seed, 5)

    # the jitter's entropy: a run seed and a date's proleptic ordinal
    @given(st.integers(0, 2**64 - 1), st.dates())
    def test_seed_and_ordinal(self, seed, date):
        entropy = [seed, date.toordinal()]
        assert _uniform(entropy, 1) == reference_uniform(entropy, 1)

    @pytest.mark.parametrize("entropy", [[], [0], [7, 2**64 - 1, 2**40, 3, 9]])
    def test_other_sequences(self, entropy):
        assert _uniform(entropy, 3) == reference_uniform(entropy, 3)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 200, 2001])
    def test_count(self, count):
        assert _uniform(42, count) == reference_uniform(42, count)

    @pytest.mark.parametrize("entropy", [-1, [3, -1]])
    def test_negative_entropy_rejected(self, entropy):
        with pytest.raises(ValueError, match="non-negative"):
            _uniform(entropy, 1)


class TestSynthWeather:
    def test_night_is_dark_and_daylight_positive(self):
        sc = Scenario()
        for minute, ghi in enumerate(synth_weather(sc, SUMMER).ghi_wm2):
            sin_a = solar_elevation_sin(sc.latitude_deg,
                                        solar_declination_deg(SUMMER.timetuple().tm_yday),
                                        minute)
            if sin_a <= 0:
                assert ghi == 0.0
            elif sin_a > 0.02:
                # at grazing angles the transmittance term underflows to 0
                assert ghi > 0.0

    def test_peak_at_solar_noon(self):
        sc = Scenario()
        peak_minute = int(np.argmax(synth_weather(sc, SUMMER).ghi_wm2))
        assert abs(peak_minute - 720) <= 2

    def test_clear_sky_noon_values(self):
        sc = Scenario(cloud_factor=1.0)
        summer = synth_weather(sc, SUMMER)
        assert summer.ghi_wm2[720] == pytest.approx(857.1367, abs=0.05)
        winter = synth_weather(sc, WINTER)
        assert winter.ghi_wm2[720] == pytest.approx(102.4118, abs=0.05)

    def test_seasonal_energy_ordering(self):
        sc = Scenario()
        integrals = {}
        for date in sc.dates:
            label = sc.season_label(date)
            integrals[label] = sum(synth_weather(sc, date).ghi_wm2.tolist()) / 60.0
        assert (integrals["summer"] > integrals["spring"]
                > integrals["autumn"] > integrals["winter"])
        assert abs(integrals["spring"] - integrals["autumn"]) <= 0.10 * integrals["spring"]

    def test_fully_overcast(self):
        sc = Scenario(cloud_factor=0.0)
        assert (synth_weather(sc, SUMMER).ghi_wm2 == 0.0).all()

    def test_deterministic_and_jitter_seeded(self):
        plain = Scenario()
        assert synth_weather(plain, SUMMER) == synth_weather(plain, SUMMER)
        jittery = Scenario(cloud_jitter=0.2)
        a = synth_weather(jittery, SUMMER, seed=5)
        b = synth_weather(jittery, SUMMER, seed=5)
        c = synth_weather(jittery, SUMMER, seed=6)
        assert a == b
        assert a != c

    def test_temperature_span_matches_season(self):
        sc = Scenario()
        temps = synth_weather(sc, SUMMER).temp_c
        t_min, t_max = sc.season_temps["summer"]
        assert min(temps) == pytest.approx(t_min, abs=1e-9)
        assert max(temps) == pytest.approx(t_max, abs=1e-9)

    def test_each_date_is_synthesized_once(self, tmp_path, monkeypatch):
        # three pairs share the four dates' cloudless days; only the cloud
        # factor is applied per pair
        calls = []

        def counted(*args):
            calls.append(args)
            return solar_elevation_sin(*args)

        monkeypatch.setattr(scenario_module, "solar_elevation_sin", counted)
        scenario_module._clear_sky_day.cache_clear()
        config = write_config(tmp_path, {
            "users": {"count": 5},
            "nodes": {"layout": [{"id": 0, "x": 1500.0, "y": 1500.0}]}})
        assert main(["simulate", "--config", str(config), "--runs", "3",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 4 * 1440


class TestWeatherSeries:
    """A series refuses the values no weather can have, naming the first
    minute that has one."""

    def test_negative_ghi(self):
        series = synth_study_series(Scenario())
        ghi = series.ghi_wm2.copy()
        ghi[2000] = -1.0
        with pytest.raises(WeatherError,
                           match=r"minute 2000: ghi_wm2 must be finite and >= 0"):
            WeatherSeries(ghi, series.temp_c)

    @pytest.mark.parametrize("column, value", [
        ("ghi_wm2", np.nan), ("ghi_wm2", np.inf), ("temp_c", np.inf),
        ("temp_c", -np.nan)])
    def test_non_finite_values(self, column, value):
        day = synth_weather(Scenario(), SUMMER)
        values = {"ghi_wm2": day.ghi_wm2.copy(), "temp_c": day.temp_c.copy()}
        values[column][[700, 799]] = value
        with pytest.raises(WeatherError, match=r"^minute 700: .* got "):
            WeatherSeries(**values)

    @pytest.mark.parametrize("column, value", [
        ("ghi_wm2", MAX_GHI_WM2 * (1 + 1e-15)), ("ghi_wm2", 1e308),
        ("temp_c", MIN_TEMP_C * (1 + 1e-15)), ("temp_c", MAX_TEMP_C * (1 + 1e-15)),
        ("temp_c", -1e304)])
    def test_values_beyond_physical_bounds(self, column, value):
        day = synth_weather(Scenario(), SUMMER)
        values = {"ghi_wm2": day.ghi_wm2.copy(), "temp_c": day.temp_c.copy()}
        values[column][700] = value
        with pytest.raises(WeatherError, match=r"^minute 700: .* at most 2000"):
            WeatherSeries(**values)

    @pytest.mark.parametrize("ghi, temp", [
        (np.zeros(3), np.zeros(4)), (np.zeros((2, 3)), np.zeros((2, 3)))],
        ids=["unequal", "two_d"])
    def test_arrays_of_other_shapes(self, ghi, temp):
        with pytest.raises(WeatherError, match=r"^ghi_wm2 and temp_c must be 1-D "
                                               r"and of equal length, got shapes"):
            WeatherSeries(ghi, temp)

    def test_values_at_the_bounds_load(self):
        day = synth_weather(Scenario(), SUMMER)
        ghi, temp = day.ghi_wm2.copy(), day.temp_c.copy()
        ghi[700], temp[700], temp[701] = MAX_GHI_WM2, MIN_TEMP_C, MAX_TEMP_C
        assert WeatherSeries(ghi, temp).temp_c[701] == MAX_TEMP_C


class TestWeatherCsv:
    def test_round_trip_identity(self, tmp_path):
        sc = Scenario()
        series = synth_study_series(sc)
        path = tmp_path / "weather.csv"
        write_weather_csv(series, sc.dates, path)
        loaded = load_weather_csv(path, expected_dates=sc.dates)
        assert loaded == series

    def test_single_day_round_trip(self, tmp_path):
        sc = Scenario()
        day = synth_weather(sc, SUMMER)
        path = tmp_path / "day.csv"
        write_weather_csv(day, [SUMMER], path)
        assert load_weather_csv(path, [SUMMER]) == day

    def test_timestamps_without_seconds_load(self, tmp_path):
        day = synth_weather(Scenario(), SUMMER)
        path = tmp_path / "day.csv"
        write_weather_csv(day, [SUMMER], path)
        short = tmp_path / "short.csv"
        short.write_text(re.sub(r"(T\d\d:\d\d):00,", r"\1,", path.read_text()))
        assert "T12:00," in short.read_text()
        assert load_weather_csv(short, [SUMMER]) == day

    def test_gap_is_reported_with_line_number(self, tmp_path):
        sc = Scenario()
        day = synth_weather(sc, SUMMER)
        path = tmp_path / "day.csv"
        write_weather_csv(day, [SUMMER], path)
        lines = path.read_text().splitlines()
        del lines[100]  # drop minute 99; the mismatch surfaces on line 101
        broken = tmp_path / "gap.csv"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(WeatherError, match="line 101.*01:39"):
            load_weather_csv(broken, [SUMMER])

    def test_negative_ghi_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,ghi_wm2,temp_c\n"
                        "2022-06-21T00:00:00,-5.0,10.0\n")
        with pytest.raises(WeatherError, match="line 2"):
            load_weather_csv(path, [SUMMER])

    @pytest.mark.parametrize("ghi, temp", [("nan", "10.0"), ("inf", "10.0"),
                                           ("5.0", "inf"), ("5.0", "-nan")])
    def test_non_finite_values_rejected(self, tmp_path, ghi, temp):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,ghi_wm2,temp_c\n"
                        "2022-06-21T00:00:00,0.0,10.0\n"
                        f"2022-06-21T00:01:00,{ghi},{temp}\n")
        with pytest.raises(WeatherError, match="line 3.*finite"):
            load_weather_csv(path, [SUMMER])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,ghi,temp\n")
        with pytest.raises(WeatherError, match="header"):
            load_weather_csv(path, [SUMMER])

    def test_wrong_dates_rejected(self, tmp_path):
        sc = Scenario()
        day = synth_weather(sc, SUMMER)
        path = tmp_path / "day.csv"
        write_weather_csv(day, [SUMMER], path)
        with pytest.raises(WeatherError, match="expected"):
            load_weather_csv(path, expected_dates=[WINTER])

    def test_partial_day_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        rows = ["timestamp,ghi_wm2,temp_c"]
        for m in range(100):
            rows.append(f"2022-06-21T{m // 60:02d}:{m % 60:02d}:00,0.0,10.0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(WeatherError, match="whole"):
            load_weather_csv(path, [SUMMER])


def test_season_label_positional_and_by_month():
    sc = Scenario()
    assert [sc.season_label(d) for d in sc.dates] == ["spring", "summer",
                                                      "autumn", "winter"]
    assert sc.season_label(datetime.date(2022, 7, 15)) == "summer"
    assert sc.season_label(datetime.date(2022, 1, 3)) == "winter"
