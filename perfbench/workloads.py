"""The benchmark's three workloads: their inputs, commands and checks.

Every input file is generated here from the workload seed, so the same
seed gives the same inputs; solarran only receives the files.

- study_default: the paper's canonical study (`{}`: 9 stations, 100 users
  at 100/25 Mbps, synthetic weather) over STUDY_DEFAULT_PAIRS run pairs.
  Engine stepping and ledger writing do nearly all the work.
- study_dense: 49 stations on a 7x7 grid with 1000 users at 20/5 Mbps, one
  run pair, weather read from a seeded cloudy CSV. Every per-station layer
  does 5.4x the work, ledgers stay resident, and design and the CSV parser
  take a visible share.
- design_sweep: the same 49/1000 network designed for design_sweep.SNAPSHOTS
  user snapshots by design_sweep.py; only placement, design and radio run.
"""

from __future__ import annotations

import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent

STUDY_DEFAULT_PAIRS = 3
DATES = ("2022-03-20", "2022-06-21", "2022-09-23", "2022-12-21")
SEASON_TEMPS = ((2.0, 12.0), (14.0, 24.0), (7.0, 16.0), (-4.0, 2.0))
LATITUDE_DEG = 52.41


def dense_config() -> dict:
    """49 stations on a 7x7 grid of cell centres over the default 3 km square."""
    side, width = 7, 3000.0
    layout = [{"id": j * side + i,
               "x": width * (2 * i + 1) / (2 * side),
               "y": width * (2 * j + 1) / (2 * side)}
              for j in range(side) for i in range(side)]
    return {"users": {"count": 1000, "dl_mbps": 20.0, "ul_mbps": 5.0},
            "nodes": {"layout": layout},
            "simulation": {"runs": 1, "dates": list(DATES),
                           "latitude_deg": LATITUDE_DEG}}


def write_cloudy_weather(path: Path, seed: int) -> None:
    """Four days of minute weather: clear-sky irradiance under a seeded
    AR(1) cloud cover, and a seeded daily temperature swing.

    The generator is the benchmark's own, so solarran's weather synthesis
    can change without changing this input.
    """
    rng = np.random.default_rng(seed)
    minutes = np.arange(1440)
    lat = math.radians(LATITUDE_DEG)
    lines = ["timestamp,ghi_wm2,temp_c"]
    for iso, (t_min, t_max) in zip(DATES, SEASON_TEMPS):
        date = datetime.date.fromisoformat(iso)
        doy = date.timetuple().tm_yday
        dec = math.radians(23.45 * math.sin(2 * math.pi * (284 + doy) / 365))
        hour_angle = np.radians((minutes / 60.0 - 12.0) * 15.0)
        sin_alpha = (math.sin(lat) * math.sin(dec)
                     + math.cos(lat) * math.cos(dec) * np.cos(hour_angle))
        up = sin_alpha > 0
        clear = np.zeros(1440)
        clear[up] = 1361.0 * 0.75 ** (1.0 / sin_alpha[up]) * sin_alpha[up]
        cover = np.empty(1440)
        level = rng.uniform(0.3, 0.9)
        for m, shock in enumerate(rng.normal(0.0, 0.05, 1440)):
            level = min(1.0, max(0.05, 0.97 * level + 0.03 * 0.6 + shock))
            cover[m] = level
        ghi = clear * cover
        temp = ((t_min + t_max) / 2 + (t_max - t_min) / 2
                * np.cos(2 * math.pi * (minutes - 900) / 1440)
                + rng.normal(0.0, 0.3, 1440))
        for m in range(1440):
            stamp = datetime.datetime.combine(date, datetime.time(m // 60, m % 60))
            lines.append(f"{stamp.isoformat()},{float(ghi[m])!r},{float(temp[m])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "study" (solarran simulate) or "sweep" (design_sweep.py)
    config: Callable[[], dict]  # the scenario config to write
    weather: bool = False  # study weather from a seeded CSV, not synthesis
    pairs: int = 0  # run pairs of a study, passed as --runs

    def make_inputs(self, in_dir: Path, seed: int) -> dict[str, Path]:
        in_dir.mkdir(parents=True, exist_ok=True)
        inputs = {"config": in_dir / "scenario.json"}
        inputs["config"].write_text(json.dumps(self.config(), indent=1) + "\n",
                                    encoding="utf-8")
        if self.weather:
            inputs["weather"] = in_dir / "weather.csv"
            write_cloudy_weather(inputs["weather"], seed)
        return inputs

    def operation_args(self, inputs: dict[str, Path], seed: int,
                       out_dir: Path) -> tuple[str, list[str]]:
        """(entry, arguments): entry "cli" is `solarran ...`, "design_sweep"
        is perfbench/design_sweep.py."""
        common = ["--config", str(inputs["config"]), "--seed", str(seed),
                  "--out", str(out_dir)]
        if self.kind == "sweep":
            return "design_sweep", common
        return "cli", ["simulate", *common, "--runs", str(self.pairs),
                       *self._weather_args(inputs)]

    def _weather_args(self, inputs: dict[str, Path]) -> list[str]:
        return ["--weather", str(inputs["weather"])] if self.weather else []

    def command(self, inputs: dict[str, Path], seed: int, out_dir: Path) -> list[str]:
        entry, args = self.operation_args(inputs, seed, out_dir)
        if entry == "cli":
            return [sys.executable, "-m", "solarran.cli", *args]
        return [sys.executable, str(HERE / "design_sweep.py"), *args]

    def traced_command(self, inputs: dict[str, Path], seed: int, out_dir: Path,
                       spans: Path) -> list[str]:
        entry, args = self.operation_args(inputs, seed, out_dir)
        return [sys.executable, str(HERE / "traced.py"), "--spans", str(spans),
                entry, *args]

    def setup_command(self, inputs: dict[str, Path]) -> list[str]:
        return [sys.executable, str(HERE / "setup_probe.py"),
                "--config", str(inputs["config"]), *self._weather_args(inputs)]

    def check(self, out_dir: Path) -> list[str]:
        if self.kind == "sweep":
            return checks.check_designs(out_dir)
        return checks.check_study(out_dir, self.pairs)


WORKLOADS = {w.name: w for w in (
    Workload("study_default",
             "canonical 9-station/100-user study; engine stepping and ledger "
             "writing do nearly all the work, design about 1%", "study",
             config=dict, pairs=STUDY_DEFAULT_PAIRS),
    Workload("study_dense",
             "49 stations/1000 users, one pair, CSV weather: 5.4x per-station "
             "work, resident ledgers, visible design and CSV parsing", "study",
             config=dense_config, weather=True, pairs=1),
    Workload("design_sweep",
             "49/1000 network designed for several user snapshots; only "
             "placement, design and radio run, engine and report do none",
             "sweep", config=dense_config),
)}
