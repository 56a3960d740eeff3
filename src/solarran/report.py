"""Study outputs: summary table, metrics JSON, per-run ledgers, and
plot-ready per-season time series.

summary.csv rounds to two decimals with dot separators; metrics.json
(strict JSON, so no non-finite number) and the ledgers keep full float
precision (ledger floats use repr, so sums recomputed from disk match the
in-memory accounting bit for bit).

An arm's ledger is a (minute, station) table per column, which only
write_ledger_csv flattens to rows. A column whose bits repeat every minute
(node_id, the station power columns and, without solar, every flow but the
state of charge) is formatted once per station. The others are formatted
per chunk of whole minutes, each distinct value once, and each chunk is
written with one join.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import LEDGER_COLUMNS, PairResult, StudyMetrics
from .scenario import MINUTES_PER_DAY, Scenario, WeatherSeries

SUMMARY_HEADER = ("season,total_harvest_wh,peak_harvest_w,arec_percent,"
                  "anuc_no_res,anuc_with_res")
# Rows the ledger writer formats at once, rounded down to whole minutes. One
# chunk's text is a default study's memory peak: 8,192 rows joined at once
# raised its peak RSS by 1.4 MiB, while 4,096 rows cost no time.
LEDGER_CHUNK_ROWS = 4096


def scenario_echo(scenario: Scenario) -> dict:
    """JSON-ready snapshot of the fully resolved scenario."""
    echo = dataclasses.asdict(scenario)
    echo["dates"] = [d.isoformat() for d in scenario.dates]
    return echo


def write_metrics_json(metrics: StudyMetrics, config_echo: dict,
                       seeds: Sequence[int], path: Path) -> None:
    payload = {
        "config": config_echo,
        "seeds": list(seeds),
        "metrics": metrics.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str,
                               allow_nan=False) + "\n", encoding="utf-8")


def _summary_rows(metrics: StudyMetrics) -> list[tuple[str, ...]]:
    """The season rows and their mean: the name, then the SeasonStats
    fields in order with two decimals."""
    rows = [(name, metrics.seasons[name]) for name in metrics.season_names]
    rows.append(("mean", metrics.mean))
    return [(name, *(f"{v:.2f}" for v in dataclasses.astuple(s)))
            for name, s in rows]


def write_summary_csv(metrics: StudyMetrics, path: Path) -> None:
    """Five rows (four seasons plus their mean), two decimals per cell."""
    lines = [SUMMARY_HEADER, *map(",".join, _summary_rows(metrics))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cells(values: np.ndarray, as_float: bool, suffix: str) -> np.ndarray:
    """Each value as its CSV cell: repr for floats, str for ints, then suffix.

    Every distinct value is formatted once and fancy-indexed back into
    place, in the shape of values. Floats are keyed by their bit pattern, so
    0.0 and -0.0 (and any two NaN payloads) keep their own text.
    """
    values = np.asarray(values, dtype=np.float64 if as_float else np.int64)
    distinct, where = np.unique(values.view(np.int64), return_inverse=True)
    # the repr of a Python int is its str
    text = [repr(v) + suffix for v in distinct.view(values.dtype).tolist()]
    return np.array(text, dtype=object)[where.reshape(values.shape)]


def write_ledger_csv(ledger: dict[str, np.ndarray], path: Path) -> None:
    """One arm's ledger, a (minute, station) table per LEDGER_COLUMNS name,
    as one CSV row per (minute, station), minute-major. Each run of adjacent
    columns that repeat every minute is one text per station."""
    n_minutes, n_nodes = ledger["t"].shape
    parts = []  # (column, as_float, suffix), or an array of per-station texts
    for name in LEDGER_COLUMNS:
        as_float = name in LEDGER_COLUMNS[2:-1]
        # every cell carries its separator; the last column's ends the row
        part = (name, as_float, "\n" if name == LEDGER_COLUMNS[-1] else ",")
        keys = np.asarray(ledger[name], dtype=np.float64 if as_float else np.int64)
        keys = keys.view(np.int64)
        if (keys == keys[0]).all():
            part = _cells(ledger[name][0], *part[1:])
            if parts and isinstance(parts[-1], np.ndarray):
                part = parts.pop() + part  # object arrays: str + str per station
        parts.append(part)
    chunk_minutes = max(LEDGER_CHUNK_ROWS // n_nodes, 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        for lo in range(0, n_minutes, chunk_minutes):
            hi = min(lo + chunk_minutes, n_minutes)
            block = np.empty((hi - lo, n_nodes, len(parts)), dtype=object)
            for j, part in enumerate(parts):
                block[..., j] = (part if isinstance(part, np.ndarray) else
                                 _cells(ledger[part[0]][lo:hi], *part[1:]))
            fh.write("".join(block.ravel().tolist()))


def timeseries_rows(pair: PairResult, weather: WeatherSeries) -> np.ndarray:
    """One pair's share of the time series, shaped (3, minutes): the
    weather's GHI and the station means of the with-solar run's state of
    charge and panel output. The CLI sums these over runs in run order."""
    led = pair.ledgers
    return np.stack([weather.ghi_wm2, led["soc_wh"][1].mean(axis=1),
                     led["harvested_wh"][1].mean(axis=1) * 60.0])


def write_timeseries_csvs(means: np.ndarray, season_names: Sequence[str],
                          out_dir: Path) -> None:
    """Per-season minute profiles from the run means of timeseries_rows:
    GHI, and state of charge and panel output averaged over stations."""
    ghi, soc, pv_w = means
    for day, name in enumerate(season_names):
        path = out_dir / f"timeseries_{name}.csv"
        lo = day * MINUTES_PER_DAY
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("minute,mean_ghi_wm2,mean_soc_wh,mean_pv_w\n")
            for m in range(MINUTES_PER_DAY):
                fh.write(f"{m},{ghi[lo + m]:.6f},{soc[lo + m]:.6f},{pv_w[lo + m]:.6f}\n")


def format_summary_table(metrics: StudyMetrics) -> str:
    """Console rendering of the summary rows."""
    widths = (8, 18, 15, 13, 12, 14)
    header = ("season", "harvest_total_wh", "peak_harvest_w", "arec_percent",
              "anuc_no_res", "anuc_with_res")
    return "\n".join("".join(c.ljust(w) for c, w in zip(cells, widths))
                     for cells in (header, *_summary_rows(metrics)))
