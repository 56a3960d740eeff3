"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import solarran
import solarran.cli as cli
from solarran.cli import main
from solarran.scenario import load_weather_csv

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


def run_cli_process(*args):
    """`python -m solarran.cli *args` in a fresh interpreter, importing
    this solarran, with default warning filters."""
    package_root = str(Path(solarran.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "solarran.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


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
            pv_used = pair.ledgers["pv_used_wh"].copy()
            pv_used[1] += 1e-6
            return dataclasses.replace(
                pair, ledgers={**pair.ledgers, "pv_used_wh": pv_used})

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

    def test_non_finite_day_totals_exit_1_before_writing(self, tmp_path):
        # a 1e308 W panel passes validation, but its day harvest overflows.
        # In-process, an error filter on numpy's overflow RuntimeWarning
        # would fail the run before any check could.
        config = tmp_path / "huge_pv.json"
        config.write_text(json.dumps({**TINY_CONFIG,
                                      "pv": {"rated_power": 1e308}}))
        out = tmp_path / "out"
        proc = run_cli_process("simulate", "--config", str(config),
                               "--out", str(out))
        assert proc.returncode == 1, proc.stdout
        assert ("failure: with solar: day 0, node_id=0: harvested_wh is inf, "
                "not finite") in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge_pv.json"]

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
    ], ids=["empty_layout", "nan", "infinity", "overflow", "huge_area",
            "huge_altitude"])
    def test_rejected_config_exits_2(self, tmp_path, capsys, text, named):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

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

    @pytest.mark.parametrize("failing", ["nopv", "pv"],
                             ids=["child_writer", "parent_writer"])
    def test_failed_ledger_writer_leaves_the_previous_study(
            self, tmp_path, capfd, monkeypatch, failing):
        # the no-solar ledger is written by a forked child, which inherits
        # the patched writer; capfd sees its stderr too
        config = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_write = cli.write_ledger_csv

        def failing_write(ledger, path):
            if path.name.endswith(f"_{failing}.csv"):
                path.write_text("partial")
                raise OSError(f"disk full writing {failing}")
            real_write(ledger, path)

        monkeypatch.setattr(cli, "write_ledger_csv", failing_write)
        capfd.readouterr()
        rc = main(["simulate", "--config", str(config), "--runs", "2",
                   "--seed", "9", "--out", str(out)])
        assert rc == 1
        err = capfd.readouterr().err
        assert f"failure: disk full writing {failing}" in err
        if failing == "nopv":
            assert "writing ledger_0_nopv.csv failed (exit status 1)" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
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
        # made for it go with it when a pair fails
        config = tmp_path / "tiny_battery.json"
        config.write_text(json.dumps({**TINY_CONFIG,
                                      "battery": {"capacity_wh": 2.0}}))
        rc = main(["simulate", "--config", str(config),
                   "--out", str(tmp_path / "a" / "b" / "out")])
        assert rc == 1
        assert "one battery cannot survive one step" in capsys.readouterr().err
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
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--seed", "7",
                   "--weather", str(merged), "--out", str(out)])
        assert rc == 0

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


class TestWeatherSynth:
    def test_round_trips_through_loader(self, tmp_path):
        path = tmp_path / "day.csv"
        assert main(["weather-synth", "--date", "2022-06-21",
                     "--out", str(path)]) == 0
        weather = load_weather_csv(path)
        assert len(weather) == 1440

    def test_fully_overcast_is_all_zero(self, tmp_path):
        path = tmp_path / "day.csv"
        assert main(["weather-synth", "--date", "2022-06-21", "--cloud", "0",
                     "--out", str(path)]) == 0
        weather = load_weather_csv(path)
        assert (weather.ghi_wm2 == 0.0).all()

    def test_clear_sky_noon_value(self, tmp_path):
        path = tmp_path / "day.csv"
        assert main(["weather-synth", "--date", "2022-06-21", "--cloud", "1.0",
                     "--out", str(path)]) == 0
        weather = load_weather_csv(path)
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
    ], ids=["root", "nodes", "node", "coordinate", "misspelt_key",
            "fractional_id"])
    def test_wrong_typed_instance_exits_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "instance.json"
        path.write_text(text)
        rc = main(["oracle", "--instance", str(path)])
        assert rc == 2
        assert named in capsys.readouterr().err

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
