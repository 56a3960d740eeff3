"""Study outputs: summary table, metrics JSON, per-run ledgers, and
plot-ready per-season time series.

summary.csv rounds to two decimals with dot separators; metrics.json and
the ledgers keep full float precision (ledger floats use repr, so sums
recomputed from disk match the in-memory accounting bit for bit).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import LEDGER_COLUMNS, RunResult, StudyMetrics
from .scenario import MINUTES_PER_DAY, Scenario, WeatherSeries

SUMMARY_HEADER = ("season,total_harvest_wh,peak_harvest_w,arec_percent,"
                  "anuc_no_res,anuc_with_res")
# Rows the ledger writer formats at once. The text of one block is the
# study's memory peak; blocks larger than a default study's day (12,960
# rows) raised it.
LEDGER_CHUNK_ROWS = 8192


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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str)
                    + "\n", encoding="utf-8")


def write_summary_csv(metrics: StudyMetrics, path: Path) -> None:
    """Five rows (four seasons plus their mean), two decimals per cell."""
    lines = [SUMMARY_HEADER]
    for name in metrics.season_names:
        s = metrics.seasons[name]
        lines.append(f"{name},{s.total_harvest_wh:.2f},{s.peak_harvest_w:.2f},"
                     f"{s.arec_percent:.2f},{s.anuc_no_res:.2f},{s.anuc_with_res:.2f}")
    m = metrics.mean
    lines.append(f"mean,{m.total_harvest_wh:.2f},{m.peak_harvest_w:.2f},"
                 f"{m.arec_percent:.2f},{m.anuc_no_res:.2f},{m.anuc_with_res:.2f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cells(values: np.ndarray, as_float: bool, suffix: str = "") -> list[str]:
    """Each value as its CSV cell: repr for floats, str for ints.

    Every distinct value is formatted once and fancy-indexed back into
    place. Floats are keyed by their bit pattern, so 0.0 and -0.0 (and any
    two NaN payloads) keep their own text.
    """
    if as_float:
        keys = np.asarray(values, dtype=np.float64).view(np.int64)
        distinct, where = np.unique(keys, return_inverse=True)
        text = [repr(v) + suffix for v in distinct.view(np.float64).tolist()]
    else:
        distinct, where = np.unique(np.asarray(values, dtype=np.int64),
                                    return_inverse=True)
        text = [str(v) + suffix for v in distinct.tolist()]
    return np.array(text, dtype=object)[where].tolist()


def write_ledger_csv(result: RunResult, path: Path) -> None:
    """One row per (minute, node); floats written with repr for exact
    round-tripping. Rows are formatted column-wise, LEDGER_CHUNK_ROWS at a
    time."""
    led = result.ledger
    float_columns = LEDGER_COLUMNS[2:-1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        for lo in range(0, len(led["t"]), LEDGER_CHUNK_ROWS):
            chunk = slice(lo, lo + LEDGER_CHUNK_ROWS)
            # the row's newline rides on the last column's cells
            columns = [_cells(led[c][chunk], c in float_columns,
                              "\n" if c == LEDGER_COLUMNS[-1] else "")
                       for c in LEDGER_COLUMNS]
            fh.writelines(map(",".join, zip(*columns)))


def timeseries_rows(with_res: RunResult, weather: WeatherSeries) -> np.ndarray:
    """One run's share of the time series, shaped (3, minutes): the
    weather's GHI and the station means of the with-solar run's state of
    charge and panel output. The CLI sums these over runs in run order."""
    n_minutes = len(weather)
    n_nodes = len(with_res.node_ids)
    led = with_res.ledger
    return np.stack([
        weather.ghi_wm2,
        led["soc_wh"].reshape(n_minutes, n_nodes).mean(axis=1),
        led["harvested_wh"].reshape(n_minutes, n_nodes).mean(axis=1) * 60.0])


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
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    rows = [(name, metrics.seasons[name]) for name in metrics.season_names]
    rows.append(("mean", metrics.mean))
    for name, s in rows:
        cells = (name, f"{s.total_harvest_wh:.2f}", f"{s.peak_harvest_w:.2f}",
                 f"{s.arec_percent:.2f}", f"{s.anuc_no_res:.2f}",
                 f"{s.anuc_with_res:.2f}")
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
