"""End-to-end tests of the command-line interface."""

import dataclasses
import datetime
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import solarran
import solarran.cli as cli
import solarran.engine as engine
from solarran.cli import main
from solarran.design import network_config
from solarran.energy import station_power_w
from solarran.report import LEDGER_ARMS, STUDY_FILE, STUDY_FILES
from solarran.scenario import (MAX_STATION_DRAW_W, SEASONS, load_weather_csv,
                               scenario_from_dict)

TINY_CONFIG = {
    "area": {"width_m": 1200.0, "height_m": 1200.0},
    "users": {"count": 12},
    "nodes": {"layout": [
        {"id": 0, "x": 300.0, "y": 300.0},
        {"id": 1, "x": 900.0, "y": 300.0},
        {"id": 2, "x": 600.0, "y": 900.0},
    ]},
    "simulation": {"runs": 1},
}


def write_tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return path


def run_cli_process(*args, entry=("-m", "solarran.cli")):
    """`python -m solarran.cli *args` (or entry in place of -m solarran.cli)
    in a fresh interpreter, importing this solarran, with default warning
    filters and no OPENBLAS_NUM_THREADS of its own."""
    package_root = str(Path(solarran.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    return subprocess.run([sys.executable, *entry, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def study_names(runs):
    """The names a study of runs pairs writes, rendered from the file table."""
    return {template.format(run=run, arm=arm, season=season)
            for template in STUDY_FILES.values() for run in range(runs)
            for arm in LEDGER_ARMS for season in SEASONS}


def study_files(config, out, *flags):
    """The files of a one-pair study of config, seed 7, by name."""
    assert main(["simulate", "--config", str(config), "--seed", "7",
                 "--out", str(out), *flags]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(files) == 8
    return files


class TestSimulate:
    def test_outputs_and_summary_shape(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.json").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 6  # header + 4 seasons + mean
        assert summary[0].startswith("season,")
        assert summary[-1].startswith("mean,")
        for run in range(1):
            assert (out / f"ledger_{run}_pv.csv").exists()
            assert (out / f"ledger_{run}_nopv.csv").exists()
        for season in ("spring", "summer", "autumn", "winter"):
            assert (out / f"timeseries_{season}.csv").exists()
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["seeds"] == [7]

        def walk(value):
            if isinstance(value, dict):
                for v in value.values():
                    yield from walk(v)
            elif isinstance(value, list):
                for v in value:
                    yield from walk(v)
            elif isinstance(value, float):
                yield value

        for number in walk(payload["metrics"]):
            assert math.isfinite(number)
        for row in [payload["metrics"]["mean"],
                    *payload["metrics"]["seasons"].values()]:
            assert 0.0 <= row["arec_percent"] <= 100.0
            assert row["anuc_no_res"] >= 0.0
            assert row["anuc_with_res"] >= 0.0

    def test_summary_mean_row_matches_season_rows(self, tmp_path):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--seed", "3",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text().splitlines()[1:]]
        seasons = [list(map(float, r[1:])) for r in rows[:4]]
        mean_row = list(map(float, rows[4][1:]))
        for col in range(5):
            expected = sum(s[col] for s in seasons) / 4.0
            # the CSV is quantized to 2 decimals (season cells and the mean
            # cell each carry up to 0.005 of rounding); full precision lives
            # in metrics.json where the identity is exact
            assert mean_row[col] == pytest.approx(expected, abs=0.01 + 1e-9)

    def test_metrics_mean_is_exact_season_mean(self, tmp_path):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        seasons = payload["metrics"]["seasons"]
        mean = payload["metrics"]["mean"]
        for key in mean:
            values = [seasons[name][key] for name in ("spring", "summer",
                                                      "autumn", "winter")]
            assert mean[key] == pytest.approx(sum(values) / 4.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        flags = ["--config", str(config), "--runs", "1", "--seed", "5"]
        assert main(["simulate", *flags, "--out", str(out_a)]) == 0
        assert main(["simulate", *flags, "--out", str(out_b)]) == 0
        assert ((out_a / "metrics.json").read_bytes()
                == (out_b / "metrics.json").read_bytes())
        assert ((out_a / "summary.csv").read_bytes()
                == (out_b / "summary.csv").read_bytes())

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", "somewhere"])
        assert exc.value.code == 2

    def test_failed_invariant_exits_1_before_writing(self, tmp_path, capsys,
                                                     monkeypatch):
        real_run_pair = cli.run_pair

        def leaky_run_pair(*args, **kwargs):
            pair = real_run_pair(*args, **kwargs)
            no_solar, with_solar = pair.ledgers
            pv_used = with_solar["pv_used_wh"].copy()
            pv_used += 1e-6
            return dataclasses.replace(
                pair, ledgers=(no_solar, {**with_solar, "pv_used_wh": pv_used}))

        monkeypatch.setattr(cli, "run_pair", leaky_run_pair)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(out)])
        assert rc == 1
        assert "with solar: per-step conservation" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_swap_closed_form_violation_exits_1_before_writing(
            self, tmp_path, capsys, monkeypatch):
        real_run_pair = cli.run_pair

        def extra_swap_run_pair(*args, **kwargs):
            pair = real_run_pair(*args, **kwargs)
            swaps = pair.swaps.copy()
            swaps[0] += 1
            return dataclasses.replace(pair, swaps=swaps)

        monkeypatch.setattr(cli, "run_pair", extra_swap_run_pair)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(out)])
        assert rc == 1
        assert "closed form floor(E/U)" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_swap_counts_off_the_ledger_exit_1_before_writing(
            self, tmp_path, capsys, monkeypatch):
        # the with-solar counts feed anuc_with_res; only the ledger's
        # swap counter can show they are wrong
        real_run_pair = cli.run_pair

        def extra_swap_run_pair(*args, **kwargs):
            pair = real_run_pair(*args, **kwargs)
            swaps = pair.swaps.copy()
            swaps[1] += 1
            return dataclasses.replace(pair, swaps=swaps)

        monkeypatch.setattr(cli, "run_pair", extra_swap_run_pair)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "with solar: day 0, node_id=0:" in err
        assert "swaps column rose by" in err
        assert not out.exists() or not list(out.iterdir())

    def test_pv_used_moved_between_days_exits_1_before_writing(
            self, tmp_path, capsys, monkeypatch):
        # the run's sum is unchanged, day 0's and day 1's AREC are not
        real_run_pair = cli.run_pair

        def moved_run_pair(*args, **kwargs):
            pair = real_run_pair(*args, **kwargs)
            pv_used = pair.pv_used_wh.copy()
            pv_used[1, 0, 0] -= 1.0
            pv_used[1, 1, 0] += 1.0
            return dataclasses.replace(pair, pv_used_wh=pv_used)

        monkeypatch.setattr(cli, "run_pair", moved_run_pair)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(out)])
        assert rc == 1
        assert ("with solar: day 0: pv_used_wh day totals"
                in capsys.readouterr().err)
        assert not out.exists() or not list(out.iterdir())

    def test_non_finite_day_totals_exit_1_before_writing(self, tmp_path, capsys,
                                                          monkeypatch):
        # Weather and panel are bounded at load, so no config overflows the
        # panel's output: an infinite minute of it is put in by hand.
        real_pv_power = engine.pv_power

        def one_infinite_minute(*args):
            watts = real_pv_power(*args).copy()
            watts[700] = math.inf
            return watts

        monkeypatch.setattr(engine, "pv_power", one_infinite_minute)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(out)])
        assert rc == 1
        assert ("failure: with solar: day 0, node_id=0: harvested_wh is inf, "
                "not finite") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.json"]

    @pytest.mark.parametrize("column, value", [
        ("ghi_wm2", 1e308), ("ghi_wm2", 2000.5), ("temp_c", -1e304),
        ("temp_c", -1e308), ("temp_c", 100.5)],
        ids=["ghi_1e308", "ghi_above_bound", "temp_minus_1e304",
             "temp_minus_1e308", "temp_above_bound"])
    def test_rejected_weather_exits_2(self, tmp_path, capsys, column, value):
        # minute 700 of day 0 is line 702 of the CSV
        config = write_tiny_config(tmp_path)
        scenario = solarran.load_config(config)
        weather = tmp_path / "weather.csv"
        solarran.write_weather_csv(solarran.synth_study_series(scenario),
                                   scenario.dates, weather)
        lines = weather.read_text().split("\n")
        stamp, ghi, temp = lines[701].split(",")
        ghi, temp = (value, float(temp)) if column == "ghi_wm2" else (float(ghi), value)
        lines[701] = f"{stamp},{ghi!r},{temp!r}"
        weather.write_text("\n".join(lines))
        rc = main(["simulate", "--config", str(config), "--weather",
                   str(weather), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("line 702: ghi_wm2 must be finite and >= 0, at most 2000, and "
                f"temp_c finite and in [-100, 100], got {ghi} and {temp}"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.json",
                                                              "weather.csv"]

    @pytest.mark.parametrize("edit, named", [
        (lambda lines: [*lines[:5], lines[5] + ",0.0", *lines[6:]],
         "line 6: expected 3 fields, got 4"),
        (lambda lines: [*lines[:-1], lines[-2], lines[-1]],
         "line 5762: expected only 5760 rows"),
        (lambda lines: [*lines[:5], re.sub(",[^,]*,", ",abc,", lines[5]),
                        *lines[6:]],
         "line 6: could not convert string to float: 'abc'"),
    ], ids=["four_fields", "extra_row", "unparsable"])
    def test_malformed_weather_exits_2(self, tmp_path, capsys, edit, named):
        config, weather = write_tiny_config(tmp_path), tmp_path / "weather.csv"
        scenario = solarran.load_config(config)
        solarran.write_weather_csv(solarran.synth_study_series(scenario),
                                   scenario.dates, weather)
        weather.write_text("\n".join(edit(weather.read_text().split("\n"))))
        rc = main(["simulate", "--config", str(config), "--weather",
                   str(weather), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.json",
                                                              "weather.csv"]

    def test_blank_weather_lines_are_skipped(self, tmp_path):
        config, weather = write_tiny_config(tmp_path), tmp_path / "weather.csv"
        scenario = solarran.load_config(config)
        series = solarran.synth_study_series(scenario)
        solarran.write_weather_csv(series, scenario.dates, weather)
        lines = weather.read_text().split("\n")
        weather.write_text("\n".join([*lines[:3], "", *lines[3:9], "  ",
                                      *lines[9:], ""]))
        assert load_weather_csv(weather, scenario.dates) == series
        assert main(["simulate", "--config", str(config), "--weather",
                     str(weather), "--out", str(tmp_path / "out")]) == 0

    def test_invalid_config_exits_2_and_cleans_up(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"users": {"count": -3}}')
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "users.count" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("text, named", [
        ('{"nodes": {"layout": []}}', "nodes.layout"),
        ('{"area": {"width_m": NaN}}', "NaN"),
        ('{"pv": {"rated_power": Infinity}}', "Infinity"),
        ('{"pv": {"rated_power": 1e400}}', "1e400"),
        ('{"area": {"width_m": 1e308, "height_m": 1e308}, "users": {"count": 5}}',
         "area.width_m must be in (0, 10000000], got 1e+308"),
        ('{"nodes": {"altitude_m": 1e200}, "users": {"count": 5}}',
         "nodes.altitude_m must be in (0, 10000000], got 1e+200"),
        ('{"pv": {"stc_irradiance": 0}}', "pv.stc_irradiance: unknown key"),
        ('{"pv": {"stc_irradiance": -1000}}', "pv.stc_irradiance: unknown key"),
        ('{"pv": {"stc_cell_temp": 25.0}}', "pv.stc_cell_temp: unknown key"),
        ('{"ris": {"per_element_power": {"6": -1}}}',
         "ris.per_element_power: unknown key"),
        ('{"mimo": {"max_tx_power_dbm": 40.0}}',
         "mimo.max_tx_power_dbm: unknown key"),
        ('{"airframe": {"total_mass": 1e300}}',
         "invalid 'airframe' section: hover power is not finite"),
        ('{"battery": {"capacity_wh": 1e308}, "simulation": {"runs": 1}}',
         "invalid 'battery' section: capacity_wh must be in (0, 1000000000], "
         "got 1e+308"),
        ('{"pv": {"rated_power": 1e308}}',
         "invalid 'pv' section: rated_power must be in [0, 1000000000], "
         "got 1e+308"),
        ('{"mimo": {"fixed_power": 1e300}}',
         "invalid 'mimo' section: fixed_power must be in [0, 1000000000], "
         "got 1e+300"),
        ('{"mimo": {"per_antenna_circuit_power": 1e300}}',
         "per_antenna_circuit_power must be in [0, 1000000000]"),
        ('{"mimo": {"per_user_processing_power": 1e300}}',
         "per_user_processing_power must be in [0, 1000000000]"),
        ('{"mimo": {"sleep_power": 1e300}}',
         "sleep_power must be in [0, 1000000000]"),
        ('{"battery": {"capacity_wh": 1}}',
         "battery.capacity_wh 1.0 with battery.flight_reserve 0.05 leaves "
         "0.95 Wh usable, less than one minute of a station's least draw, "
         "159.46 W or 2.658 Wh a minute"),
        ('{"battery": {"capacity_wh": 2.0}}', "leaves 1.9 Wh usable"),
        ('{"airframe": {"total_mass": 1e203}}',
         "least draw, 1.316e+306 W"),
        ('{"weather": {"season_temps": {"winter": [-1e304, 2.0]}}}',
         "weather.season_temps.winter must be [min, max] within [-100, 100], "
         "got [-1e+304, 2.0]"),
        ('{"mimo": {"antenna_count": 1%s}}' % ("0" * 300),
         "invalid 'mimo' section: antenna_count must be in [1, 1000000], got 1000"),
        ('{"pv": {"noct": 1e300}}',
         "invalid 'pv' section: noct must be in (20, 100], got 1e+300"),
        ('{"pv": {"rated_power": 1e9, "temp_coeff": -1e300}}',
         "invalid 'pv' section: temp_coeff must be in [-0.01, 0], got -1e+300"),
        ('{"pv": {"temp_coeff": -5}}',
         "invalid 'pv' section: temp_coeff must be in [-0.01, 0], got -5.0"),
        ('{"radio": {"bandwidth_mhz": 0}}',
         "invalid 'radio' section: bandwidth_mhz must be in [0.001, 1000000], "
         "got 0.0"),
        ('{"radio": {"bandwidth_mhz": -5}}',
         "bandwidth_mhz must be in [0.001, 1000000], got -5.0"),
        ('{"radio": {"prb_bandwidth_khz": 0}}',
         "prb_bandwidth_khz must be in [1, 1000000000], got 0.0"),
        ('{"radio": {"prb_bandwidth_khz": -360}}',
         "prb_bandwidth_khz must be in [1, 1000000000], got -360.0"),
        ('{"radio": {"se_cap": 0}}',
         "invalid 'radio' section: se_cap must be >= 0.001, got 0.0"),
        ('{"radio": {"total_prbs": 1%s}}' % ("0" * 30),
         "total_prbs must be in [1, 1000000000], got 1" + "0" * 30),
        ('{"radio": {"power_levels_dbm": [1e308]}}',
         "invalid 'radio' section: power_levels_dbm must be in [-1000, 120], "
         "got 1e+308"),
        ('{"radio": {"reference_loss_at_1m_db": -1e308}}',
         "reference_loss_at_1m_db must be in [0, 1000], got -1e+308"),
        ('{"users": {"dl_mbps": 1e308}}',
         "users.dl_mbps must be in [0, 1000000], got 1e+308"),
        ('{"users": {"count": 1%s}}' % ("0" * 30),
         "users.count must be in [0, 1000000], got 1" + "0" * 30),
        ('{"radio": {"power_levels_dbm": []}}',
         "invalid 'radio' section: power_levels_dbm must not be empty"),
        ('{"airframe": {"rotor_radius": 1e200}}',
         "invalid 'airframe' section: rotor_radius must be in (0, 1000], "
         "got 1e+200"),
        ('{"airframe": {"air_density": 5e-324, "rotor_radius": 0.1}}',
         "invalid 'airframe' section: hover power is not finite"),
        ('{"simulation": {"dates": ["2022-03-20", "2022-03-20", "2022-06-21", '
         '"2022-09-23"]}}',
         "simulation.dates must be 4 distinct dates, got ['2022-03-20', "
         "'2022-03-20', '2022-06-21', '2022-09-23']"),
        ('{"nodes": {"layout": [{"id": 9223372036854775808, "x": 100, "y": 100}]},'
         ' "users": {"count": 5}}',
         "nodes.layout[0].id must be in [-9223372036854775808, "
         "9223372036854775807], got 9223372036854775808"),
        ('{"nodes": {"layout": [{"id": 0, "x": 1500, "y": 1500}]}, '
         '"mimo": {"fixed_power": 2e6}, "battery": {"capacity_wh": 1e9}, '
         '"simulation": {"runs": 1}}',
         "a station's largest draw, 2.0003e+06 W from the airframe, mimo and ris "
         "sections at radio.power_levels_dbm 40 dBm serving all users.count 100, "
         "is above 100000 W"),
        ('{"mimo": {"fixed_power": 1e7}, "battery": {"capacity_wh": 1e9}, '
         '"simulation": {"runs": 1}}',
         "a station's largest draw, 1e+07 W"),
    ], ids=["empty_layout", "nan", "infinity", "overflow", "huge_area",
            "huge_altitude", "stc_zero", "stc_negative", "stc_cell_temp",
            "ris_negative", "max_tx", "hover_overflow", "huge_capacity",
            "huge_panel", "huge_fixed", "huge_per_antenna", "huge_per_user",
            "huge_sleep", "battery_1wh", "battery_2wh", "heavy_airframe",
            "cold_season", "huge_antenna_count", "hot_noct",
            "overflowing_temp_coeff", "steep_temp_coeff", "zero_bandwidth",
            "negative_bandwidth", "zero_prb_bandwidth", "negative_prb_bandwidth",
            "zero_se_cap", "huge_total_prbs", "huge_power_level",
            "negative_reference_loss", "huge_dl_rate", "huge_user_count",
            "empty_power_levels", "huge_rotor_radius", "thin_air",
            "repeated_date", "int64_overflowing_layout_id",
            "one_station_2e6_fixed_power", "grid_1e7_fixed_power"])
    def test_rejected_config_exits_2(self, tmp_path, capsys, text, named):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_station_at_the_draw_bound_runs(self, tmp_path):
        # one station whose largest draw is MAX_STATION_DRAW_W, the most a
        # scenario may load, steps four days and passes verify_conservation
        config = {"nodes": {"layout": [{"id": 0, "x": 1500, "y": 1500}]},
                  "battery": {"capacity_wh": 1e9}, "simulation": {"runs": 1}}
        scenario = scenario_from_dict({**config, "mimo": {"fixed_power": 0}})
        rest_w = sum(station_power_w(scenario.equipment,
                                     scenario.radio.power_levels_dbm[-1],
                                     scenario.user_count))
        config["mimo"] = {"fixed_power": MAX_STATION_DRAW_W - rest_w}
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        consumed = metrics["metrics"]["per_run"][0]["seasons"]["summer"]["consumed_wh"]
        assert consumed > 0.99 * MAX_STATION_DRAW_W * 24

    @pytest.mark.parametrize("flags, named", [
        (["--runs", "0"], "--runs must be >= 1, got 0"),
        (["--seed", "-1"], "--seed must be in [0, 18446744073709551615], got -1"),
        (["--seed", str(2**64 - 1), "--runs", "2"],
         "--seed must be in [0, 18446744073709551614], got 18446744073709551615"),
    ], ids=["zero_runs", "negative_seed", "u64_overflow"])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(out), *flags])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_runs_flag_is_the_run_count_metrics_json_echoes(self, tmp_path,
                                                              capsys):
        # the config says 1 run; --runs 2 overrides it for the whole study
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                     "--out", str(out), "--runs", "2", "--seed", "5"]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["config"]["run_count"] == 2
        assert payload["seeds"] == [5, 6]
        assert [run["seed"] for run in payload["metrics"]["per_run"]] == [5, 6]
        assert capsys.readouterr().out.startswith("2 run pair(s), seeds 5..6,")

    def test_largest_u64_seed_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                     "--out", str(out), "--seed", str(2**64 - 1)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seeds"] == [2**64 - 1]

    @pytest.mark.parametrize("text, path", [
        ('{"area": {"width_m": NaN}}', "area.width_m: non-finite number NaN"),
        ('{"pv": {"rated_power": Infinity}}',
         "pv.rated_power: non-finite number Infinity"),
        ('{"nodes": {"layout": [{"id": 0, "x": 1e400, "y": 0.0}]}}',
         "nodes.layout[0].x: non-finite number 1e400"),
        ('{"weather": {"season_temps": {"summer": [14.0, -Infinity]}}}',
         "weather.season_temps.summer[1]: non-finite number -Infinity"),
    ], ids=["area", "pv", "layout", "season"])
    def test_non_finite_config_names_its_key(self, tmp_path, capsys, text, path):
        config = tmp_path / "bad.json"
        config.write_text(text)
        rc = main(["simulate", "--config", str(config),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("flag, make", [
        ("--config", lambda path: path.mkdir()),
        ("--weather", lambda path: path.mkdir()),
        ("--config", lambda path: path.write_bytes(b'{"area": {"width_m": 3\xff}}')),
        ("--config", lambda path: path.write_text(
            '{"area": {"width_m": 1' + "0" * 4300 + '}}')),
    ], ids=["config_directory", "weather_directory", "config_not_utf8",
            "config_4301_digit_int"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, flag, make):
        bad = tmp_path / "bad_input"
        make(bad)
        flags = {"--config": str(write_tiny_config(tmp_path)),
                 "--out": str(tmp_path / "out")}
        flags[flag] = str(bad)
        rc = main(["simulate", *(x for pair in flags.items() for x in pair)])
        assert rc == 2
        assert f"cannot read {flag[2:]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_on_a_file_exits_2_before_any_pair(self, tmp_path, capsys,
                                                   monkeypatch, out):
        afile = tmp_path / "afile"
        afile.write_text("kept")

        def no_pair(*args, **kwargs):
            raise AssertionError("a pair was stepped")

        monkeypatch.setattr(cli, "run_pair", no_pair)
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--out", str(tmp_path / out)])
        assert rc == 2
        assert (f"--out {tmp_path / out}: {afile} is not a directory"
                in capsys.readouterr().err)
        assert afile.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "tiny.json"]

    def test_directory_under_a_study_file_name_exits_2_before_any_pair(
            self, tmp_path, capsys, monkeypatch):
        # neither unlink nor os.replace replaces a directory: a rerun must
        # not delete the previous study's files and then fail on it
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--runs", "2",
                     "--out", str(out)]) == 0
        (out / "summary.csv").unlink()
        (out / "summary.csv").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert len(before) == 9

        def no_pair(*args, **kwargs):
            raise AssertionError("a pair was stepped")

        monkeypatch.setattr(cli, "run_pair", no_pair)
        rc = main(["simulate", "--config", str(config), "--runs", "1",
                   "--out", str(out)])
        assert rc == 2
        assert (f"--out {out}: {out / 'summary.csv'} is a directory, not a "
                "study file") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.is_file()} == before
        assert (out / "summary.csv").is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "tiny.json"]

    def test_rerun_replaces_a_symlink_under_a_study_file_name(self, tmp_path):
        # a symlink is unlinked as itself, whatever it points to
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.csv").symlink_to(elsewhere, target_is_directory=True)
        assert main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                     "--out", str(out)]) == 0
        assert not (out / "summary.csv").is_symlink()
        assert (out / "summary.csv").read_text().startswith("season,")
        assert elsewhere.is_dir()

    def test_a_study_writes_the_names_of_the_file_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                     "--runs", "2", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == study_names(2)
        assert len(study_names(2)) == 10
        # the replace pattern takes every name of any run count
        assert all(STUDY_FILE.fullmatch(name) for name in study_names(12))

    def test_rerun_keeps_names_a_study_never_writes(self, tmp_path):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--runs", "2",
                     "--out", str(out)]) == 0
        kept = ("ledger_01_pv.csv", "ledger_0_pv.part", "timeseries_fall.csv",
                "metrics.json.bak")
        for name in kept:
            (out / name).write_text(name)
        assert main(["simulate", "--config", str(config), "--runs", "1",
                     "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == study_names(1) | set(kept)
        assert all((out / name).read_text() == name for name in kept)

    def test_rerun_replaces_the_previous_study(self, tmp_path):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--runs", "3",
                     "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        assert main(["simulate", "--config", str(config), "--runs", "1",
                     "--out", str(out)]) == 0
        one_run = {"ledger_0_nopv.csv", "ledger_0_pv.csv", "metrics.json",
                   "summary.csv", *(f"timeseries_{s}.csv" for s in
                                    ("spring", "summer", "autumn", "winter"))}
        assert {p.name for p in out.iterdir()} == one_run | {"notes.txt"}
        assert (out / "notes.txt").read_text() == "kept"
        assert json.loads((out / "metrics.json").read_text())["seeds"] == [42]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "tiny.json"]

    def test_failed_write_leaves_the_previous_study(self, tmp_path, capsys,
                                                     monkeypatch):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing_summary(metrics, path):
            path.write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_summary_csv", failing_summary)
        rc = main(["simulate", "--config", str(config), "--seed", "9",
                   "--out", str(out)])
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "tiny.json"]

    def test_failed_second_pair_leaves_the_previous_study(self, tmp_path, capsys,
                                                         monkeypatch):
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_run_pair = cli.run_pair
        calls = []
        staged = []

        def failing_run_pair(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                staged.extend(p.name for p in tmp_path.glob(".out.*/*"))
                raise RuntimeError("second pair failed")
            return real_run_pair(*args, **kwargs)

        monkeypatch.setattr(cli, "run_pair", failing_run_pair)
        rc = main(["simulate", "--config", str(config), "--runs", "3",
                   "--seed", "9", "--out", str(out)])
        assert rc == 1
        assert "second pair failed" in capsys.readouterr().err
        # pair 0's ledgers were already staged when pair 1 failed
        assert sorted(staged) == ["ledger_0_nopv.csv", "ledger_0_pv.csv"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "tiny.json"]

    @pytest.mark.parametrize("failing", ["_nopv.csv", "_pv.csv", "_pv.part"],
                             ids=["child_writer", "parent_writer",
                                  "child_tail_writer"])
    def test_failed_ledger_writer_leaves_the_previous_study(
            self, tmp_path, capfd, monkeypatch, failing):
        # the forked child writes the no-solar ledger and then the with-solar
        # ledger's tail into a part file; it inherits the patched writer, and
        # capfd sees its stderr too
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_write = cli.write_ledger_csv

        def failing_write(ledger, path, start=0, stop=None):
            if path.name.endswith(failing):
                path.write_text("partial")
                raise OSError(f"disk full writing {failing}")
            real_write(ledger, path, start, stop)

        monkeypatch.setattr(cli, "write_ledger_csv", failing_write)
        capfd.readouterr()
        rc = main(["simulate", "--config", str(config), "--runs", "2",
                   "--seed", "9", "--out", str(out)])
        assert rc == 1
        err = capfd.readouterr().err
        assert f"failure: disk full writing {failing}" in err
        if failing != "_pv.csv":
            assert ("writing ledger_0_nopv.csv and ledger_0_pv.part failed "
                    "(exit status 1)") in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the stage, and any part file in it, is gone
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "tiny.json"]
        with pytest.raises(ChildProcessError):  # every writer child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_peak_memory_does_not_grow_with_runs(self, tmp_path):
        # each pair's ledgers are written and dropped before the next pair
        # runs, so three pairs need about the memory of one
        config = write_tiny_config(tmp_path)
        peaks = {}
        for runs in (1, 3):
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(config), "--runs",
                             str(runs), "--out", str(tmp_path / f"out{runs}")]) == 0
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= 1.25 * peaks[1], peaks

    def test_failed_study_leaves_no_new_directories(self, tmp_path, capsys):
        # the stage opens before the first pair runs; the parents of --out
        # made for it go with it when a pair fails. 3.8 Wh usable pays one
        # minute of the least draw (2.658 Wh), so the config loads, but not
        # one of a designed cell's (4.856 Wh)
        config = tmp_path / "tiny_battery.json"
        config.write_text(json.dumps({**TINY_CONFIG,
                                      "battery": {"capacity_wh": 4.0}}))
        rc = main(["simulate", "--config", str(config),
                   "--out", str(tmp_path / "a" / "b" / "out")])
        assert rc == 2
        assert ("error: node_id=0: step demand 4.856039266953886"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [config]

    def test_csv_weather_roundtrip_drives_simulation(self, tmp_path):
        config = write_tiny_config(tmp_path)
        # synthesize the four study days to CSV, then feed them back in
        csvs = []
        for date in ("2022-03-20", "2022-06-21", "2022-09-23", "2022-12-21"):
            path = tmp_path / f"w_{date}.csv"
            assert main(["weather-synth", "--date", date, "--out", str(path)]) == 0
            csvs.append(path.read_text().splitlines())
        merged = tmp_path / "weather.csv"
        merged.write_text("\n".join([csvs[0][0]] +
                                    [l for c in csvs for l in c[1:]]) + "\n")
        assert study_files(config, tmp_path / "csv", "--weather",
                           str(merged)) == study_files(config, tmp_path / "synth")

    def test_csv_of_dates_out_of_calendar_order(self, tmp_path):
        config = tmp_path / "unordered.json"
        config.write_text(json.dumps({**TINY_CONFIG, "simulation": {
            "runs": 1, "dates": ["2022-12-21", "2022-03-20", "2022-06-21",
                                 "2022-09-23"]}}))
        scenario = solarran.load_config(config)
        weather = tmp_path / "weather.csv"
        solarran.write_weather_csv(solarran.synth_study_series(scenario),
                                   scenario.dates, weather)
        assert study_files(config, tmp_path / "csv", "--weather",
                           str(weather)) == study_files(config, tmp_path / "synth")

    @pytest.mark.parametrize("date", ["20220320", "2022-W11-7", "2022-03-20T00:00"],
                             ids=["basic", "iso_week", "with_time"])
    def test_non_iso_scenario_date_exits_2(self, tmp_path, capsys, date):
        # Python 3.11's date.fromisoformat reads the first two, 3.10's does not
        config = tmp_path / "dates.json"
        config.write_text(json.dumps({"simulation": {"dates": [
            date, "2022-06-21", "2022-09-23", "2022-12-21"]}}))
        rc = main(["simulate", "--config", str(config),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"simulation.dates must be ISO dates: {date!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("stamp", [
        "20220320T0000", "2022-03-20 00:00", "2022-03-20T00:00:00.000",
        "2022-03-20T00:00:00+00:00", "2022-W11-7T00:00"],
        ids=["basic", "space", "fraction", "offset", "iso_week"])
    def test_non_iso_weather_timestamp_exits_2(self, tmp_path, capsys, stamp):
        weather = tmp_path / "weather.csv"
        weather.write_text(f"timestamp,ghi_wm2,temp_c\n{stamp},0.0,5.0\n")
        rc = main(["simulate", "--config", str(write_tiny_config(tmp_path)),
                   "--weather", str(weather), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"line 2: {stamp!r} is not written" in capsys.readouterr().err

    def test_wrong_weather_dates_exit_2(self, tmp_path):
        config = write_tiny_config(tmp_path)
        path = tmp_path / "one_day.csv"
        assert main(["weather-synth", "--date", "2022-06-21",
                     "--out", str(path)]) == 0
        rc = main(["simulate", "--config", str(config), "--weather", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_summary_is_printed_once(self, tmp_path):
        # a writer child must not flush the stdout it inherits
        proc = run_cli_process("simulate", "--config",
                               str(write_tiny_config(tmp_path)), "--runs", "2",
                               "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.count("run pair(s), seeds 42..43") == 1
        assert proc.stdout.count("outputs in ") == 1
        assert proc.stdout.splitlines()[-1] == f"outputs in {tmp_path / 'out'}"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads under Linux's /proc")
    def test_ledger_writer_is_forked_from_one_thread(self, tmp_path):
        # Python 3.12+ warns about a fork in a process with more than one
        # thread, and numpy's OpenBLAS starts one unless told otherwise
        counts = tmp_path / "threads.txt"
        script = tmp_path / "counting_cli.py"
        script.write_text(
            "import os, sys\n"
            "fork = os.fork\n"
            "def counting_fork():\n"
            f"    with open({str(counts)!r}, 'a') as fh:\n"
            "        print(len(os.listdir('/proc/self/task')), file=fh)\n"
            "    return fork()\n"
            "os.fork = counting_fork\n"
            "from solarran.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
        proc = run_cli_process("simulate", "--config",
                               str(write_tiny_config(tmp_path)),
                               "--out", str(tmp_path / "out"),
                               entry=(str(script),))
        assert proc.returncode == 0, proc.stderr
        assert counts.read_text() == "1\n"


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="import numpy loads numpy.random on NumPy < 2")
def test_a_study_never_loads_numpy_random(tmp_path):
    # placement and the cloud jitter draw their numbers without it
    config = tmp_path / "jittered.json"
    config.write_text(json.dumps({**TINY_CONFIG,
                                  "weather": {"cloud_jitter": 0.2}}),
                      encoding="utf-8")
    script = tmp_path / "modules_cli.py"
    script.write_text(
        "import sys\n"
        "from solarran.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
        "sys.exit(code)\n")
    proc = run_cli_process("simulate", "--config", str(config), "--runs", "2",
                           "--out", str(tmp_path / "out"), entry=(str(script),))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_module_of_the_package_names_numpy_random():
    naming = re.compile(r"\b(?:np|numpy)\.random\b"
                        r"|\bfrom\s+numpy\s+import\b.*\brandom\b")
    package = Path(solarran.__file__).parent
    named = [f"{path.name}:{n}" for path in sorted(package.rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if naming.search(line)]
    assert named == []


class TestWeatherSynth:
    def test_round_trips_through_loader(self, tmp_path):
        path = tmp_path / "day.csv"
        assert main(["weather-synth", "--date", "2022-06-21",
                     "--out", str(path)]) == 0
        weather = load_weather_csv(path, [datetime.date(2022, 6, 21)])
        assert len(weather) == 1440

    def test_fully_overcast_is_all_zero(self, tmp_path):
        path = tmp_path / "day.csv"
        assert main(["weather-synth", "--date", "2022-06-21", "--cloud", "0",
                     "--out", str(path)]) == 0
        weather = load_weather_csv(path, [datetime.date(2022, 6, 21)])
        assert (weather.ghi_wm2 == 0.0).all()

    def test_clear_sky_noon_value(self, tmp_path):
        path = tmp_path / "day.csv"
        assert main(["weather-synth", "--date", "2022-06-21", "--cloud", "1.0",
                     "--out", str(path)]) == 0
        weather = load_weather_csv(path, [datetime.date(2022, 6, 21)])
        assert weather.ghi_wm2[720] == pytest.approx(857.1367, abs=0.05)

    def test_missing_out_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "day.csv"
        rc = main(["weather-synth", "--date", "2022-06-21", "--out", str(out)])
        assert rc == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, named", [
        ("--cloud", "1.5", "--cloud must be in [0, 1], got 1.5"),
        ("--lat", "100", "--lat must be in [-90, 90], got 100.0"),
        ("--cloud", "nan", "--cloud: non-finite number nan"),
    ], ids=["cloud", "lat", "nan_cloud"])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, flag, value,
                                         named):
        out = tmp_path / "x.csv"
        rc = main(["weather-synth", "--date", "2022-06-21", flag, value,
                   "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_date_exits_2(self, tmp_path, capsys):
        rc = main(["weather-synth", "--date", "2022-13-40",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "date" in capsys.readouterr().err

    @pytest.mark.parametrize("date", ["20220621", "2022-W25-2"],
                             ids=["basic", "iso_week"])
    def test_non_iso_date_exits_2(self, tmp_path, capsys, date):
        # Python 3.11's date.fromisoformat reads both, 3.10's neither
        rc = main(["weather-synth", "--date", date,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"invalid --date: {date!r} is not written YYYY-MM-DD" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()


class TestOracle:
    def test_bundled_instance_passes(self, capsys):
        rc = main(["oracle", "--instance", solarran.example_oracle_instance_path()])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "greedy: covered 4" in out

    def test_empty_instance_passes(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"nodes": [], "users": []}')
        assert main(["oracle", "--instance", str(path)]) == 0

    def test_oversized_instance_refused(self, tmp_path, capsys):
        nodes = [{"id": i, "x": 100.0 * i, "y": 0.0} for i in range(6)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"nodes": nodes, "users": []}))
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert "limits" in capsys.readouterr().err

    def test_missing_instance_file_exits_2(self, tmp_path, capsys):
        rc = main(["oracle", "--instance", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot read instance" in capsys.readouterr().err

    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan_x.json"
        path.write_text('{"nodes": [{"id": 0, "x": NaN, "y": 0.0}], "users": []}')
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert "NaN" in capsys.readouterr().err

    def test_non_finite_coordinate_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "inf_y.json"
        path.write_text('{"nodes": [], "users": [{"id": 3, "x": 0.0, "y": 0.0},'
                        ' {"id": 4, "x": 1.0, "y": Infinity}]}')
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert "users[1].y: non-finite number Infinity" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("5", "<root>: expected an object, got 5"),
        ('{"nodes": 5}', "nodes: expected a list, got 5"),
        ('{"nodes": [5]}', "nodes[0]: expected an object, got 5"),
        ('{"users": [{"id": 1, "x": "a", "y": 0}]}',
         'users[0].x: expected a number, got "a"'),
        ('{"nodes": [{"id": 0, "x": 0, "y": 0, "zz": 10}]}',
         "nodes[0].zz: unknown key"),
        ('{"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 0.5, "x": 1, "y": 0}]}',
         "nodes[1].id: expected an integer, got 0.5"),
        ('{"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 0, "x": 1, "y": 0}]}',
         "duplicate node ids in instance"),
        ('{"users": [{"id": 3, "x": 0, "y": 0}, {"id": 3, "x": 1, "y": 0}]}',
         "duplicate user ids in instance"),
    ], ids=["root", "nodes", "node", "coordinate", "misspelt_key",
            "fractional_id", "duplicate_node_ids", "duplicate_user_ids"])
    def test_wrong_typed_instance_exits_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "instance.json"
        path.write_text(text)
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_greedy_worse_than_exhaustive_fails(self, capsys, monkeypatch):
        # a greedy design that covers nobody: the bundled instance's
        # exhaustive design covers 4
        monkeypatch.setattr(cli, "greedy_design",
                            lambda nodes, *rest: network_config(nodes, {}, {},
                                                                rest[-1]))
        rc = main(["oracle", "--instance", solarran.example_oracle_instance_path()])
        assert rc == 1
        out = capsys.readouterr().out
        assert "greedy: covered 0" in out
        assert "exhaustive: covered 4" in out
        assert out.endswith("FAIL\n")

    @pytest.mark.parametrize("section, i, key, value", [
        ("users", 0, "x", 1e300), ("nodes", 1, "z", -1.5e7)],
        ids=["huge_user_x", "deep_node_z"])
    def test_coordinate_beyond_the_extent_exits_2(self, tmp_path, capsys,
                                                  section, i, key, value):
        # squared distances would overflow: refused before any link is seen
        with open(solarran.example_oracle_instance_path()) as f:
            instance = json.load(f)
        instance[section][i][key] = value
        path = tmp_path / "far.json"
        path.write_text(json.dumps(instance))
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {section}[{i}].{key} must be in [-10000000, 10000000], "
            f"got {value}\n")

    def test_node_without_coordinate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no_y.json"
        path.write_text(json.dumps({"nodes": [{"id": 0, "x": 10.0}],
                                    "users": []}))
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert "missing key 'y'" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["solarran", "solarran.cli"])
def test_deprecation_warnings_from_solarran_fail_the_tests(module):
    # pyproject's filterwarnings; Python 3.12+ warns from os.fork, called
    # in solarran.cli, when the process has more than one thread
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("deprecated", DeprecationWarning, "x.py", 1,
                               module=module)
