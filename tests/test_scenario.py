"""Tests for configuration loading, user placement, and weather handling."""

import dataclasses
import datetime
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from solarran import scenario as scenario_module
from solarran.cli import main
from solarran.scenario import (CONFIG_SCHEMA, EQUIPMENT, ConfigError, Scenario,
                               WeatherError, WeatherSeries, load_config,
                               load_weather_csv,
                               place_users, scenario_from_dict,
                               solar_declination_deg, solar_elevation_sin,
                               synth_study_series, synth_weather,
                               write_weather_csv)

SUMMER = datetime.date(2022, 6, 21)
WINTER = datetime.date(2022, 12, 21)


def write_config(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


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

    def test_power_ladder_must_match_transceiver_max(self, tmp_path):
        payload = {"radio": {"power_levels_dbm": [28.0, 34.0, 38.0]}}
        with pytest.raises(ConfigError, match="max_tx_power_dbm"):
            load_config(write_config(tmp_path, payload))

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
        assert sc.nodes[0].airframe.total_mass == pytest.approx(2.396)

    def test_bundled_example_is_written_out_in_full(self):
        import solarran

        def key_paths(doc, path=""):
            if isinstance(doc, (list, tuple)):
                return set().union(*(key_paths(v, f"{path}[]") for v in doc))
            if isinstance(doc, dict) and not any(
                    k is int or str(k).isdecimal() for k in doc):
                return set().union(*(key_paths(v, f"{path}.{k}" if path else k)
                                     for k, v in doc.items()))
            return {path}

        path = solarran.example_config_path()
        assert key_paths(json.loads(Path(path).read_text())) == key_paths(CONFIG_SCHEMA)
        assert load_config(path) == Scenario()


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
        ({"ris": {"per_element_power": {6: float("-inf")}}},
         "ris.per_element_power.6"),
        ({"weather": {"season_temps": {"summer": (14.0, float("nan"))}}},
         "weather.season_temps.summer[1]"),
        ({"users": {"dl_mbps": 10 ** 400}}, "users.dl_mbps"),
    ], ids=["two_fields", "layout", "ladder", "ris_table", "season", "big_int"])
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
        assert load_weather_csv(path) == day

    def test_timestamps_without_seconds_load(self, tmp_path):
        day = synth_weather(Scenario(), SUMMER)
        path = tmp_path / "day.csv"
        write_weather_csv(day, [SUMMER], path)
        short = tmp_path / "short.csv"
        short.write_text(re.sub(r"(T\d\d:\d\d):00,", r"\1,", path.read_text()))
        assert "T12:00," in short.read_text()
        assert load_weather_csv(short) == day

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
            load_weather_csv(broken)

    def test_negative_ghi_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,ghi_wm2,temp_c\n"
                        "2022-06-21T00:00:00,-5.0,10.0\n")
        with pytest.raises(WeatherError, match="line 2"):
            load_weather_csv(path)

    @pytest.mark.parametrize("ghi, temp", [("nan", "10.0"), ("inf", "10.0"),
                                           ("5.0", "inf"), ("5.0", "-nan")])
    def test_non_finite_values_rejected(self, tmp_path, ghi, temp):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,ghi_wm2,temp_c\n"
                        "2022-06-21T00:00:00,0.0,10.0\n"
                        f"2022-06-21T00:01:00,{ghi},{temp}\n")
        with pytest.raises(WeatherError, match="line 3.*finite"):
            load_weather_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,ghi,temp\n")
        with pytest.raises(WeatherError, match="header"):
            load_weather_csv(path)

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
            load_weather_csv(path)


def test_season_label_positional_and_by_month():
    sc = Scenario()
    assert [sc.season_label(d) for d in sc.dates] == ["spring", "summer",
                                                      "autumn", "winter"]
    assert sc.season_label(datetime.date(2022, 7, 15)) == "summer"
    assert sc.season_label(datetime.date(2022, 1, 3)) == "winter"
