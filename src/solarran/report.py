"""Study outputs, named in STUDY_FILES: summary table, metrics JSON,
per-run ledgers, and plot-ready per-season time series.

summary.csv rounds to two decimals with dot separators; metrics.json
(strict JSON, so no non-finite number) and the ledgers keep full float
precision (ledger floats use repr, so sums recomputed from disk match the
in-memory accounting bit for bit). Only write_ledger_csv flattens an arm's
ledger, a (day, minute, station) table per column, to rows: a whole-minute
range of it at a time if asked, so that two processes can share one ledger.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

from .engine import LEDGER_COLUMNS, PairResult, SeasonStats, StudyMetrics
from .scenario import MINUTES_PER_DAY, SEASONS, Scenario, WeatherSeries

# A study's files by kind, as str.format templates of their names: {run} is a
# run index, {arm} one of LEDGER_ARMS and {season} one of SEASONS.
STUDY_FILES = {"metrics": "metrics.json", "summary": "summary.csv",
               "timeseries": "timeseries_{season}.csv",
               "ledger": "ledger_{run}_{arm}.csv"}
LEDGER_ARMS = ("nopv", "pv")  # by PairResult arm
PART_SUFFIX = ".part"  # a with-solar ledger's tail, held only in a stage
# Any name of STUDY_FILES at any run count, a run index without leading
# zeros: the templates escaped but for their fields, then each field's pattern
STUDY_FILE = re.compile("|".join(
    re.escape(t).replace(r"\{", "{").replace(r"\}", "}")
    for t in STUDY_FILES.values()).format(
        run="(?:0|[1-9][0-9]*)", arm=f"(?:{'|'.join(LEDGER_ARMS)})",
        season=f"(?:{'|'.join(SEASONS)})"))
SUMMARY_HEADER = ",".join(["season",
                           *(f.name for f in dataclasses.fields(SeasonStats))])
# Rows the ledger writer formats at once, rounded down to whole minutes. One
# chunk's text is a default study's memory peak: 8,192 rows joined at once
# raised its peak RSS by 1.4 MiB, while 4,096 rows cost no time.
LEDGER_CHUNK_ROWS = 4096
# Minutes of a time series formatted at once, from Python floats: formatting
# from numpy scalars took half as long again, and lists of a whole day raised
# a default study's peak RSS by 0.24 MiB.
TIMESERIES_CHUNK_MINUTES = 240


def scenario_echo(scenario: Scenario) -> dict:
    """JSON-ready snapshot of the fully resolved scenario, each node entry
    holding the scenario's equipment sections beside its id and position."""
    echo = dataclasses.asdict(scenario)
    equipment = echo.pop("equipment")
    for node in echo["nodes"]:
        node.update(equipment)
    echo["dates"] = [d.isoformat() for d in scenario.dates]
    return echo


def write_metrics_json(metrics: StudyMetrics, config_echo: dict,
                       path: Path) -> None:
    """metrics.json: the config echo, each run's seed and the metrics."""
    payload = {
        "config": config_echo,
        "seeds": [run["seed"] for run in metrics.per_run],
        "metrics": metrics.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n", encoding="utf-8")


def _summary_rows(metrics: StudyMetrics) -> list[tuple[str, ...]]:
    """The season rows and their mean: the name, then the SeasonStats
    fields in order with two decimals."""
    rows = [*metrics.seasons.items(), ("mean", metrics.mean)]
    return [(name, *(f"{v:.2f}" for v in dataclasses.astuple(s)))
            for name, s in rows]


def write_summary_csv(metrics: StudyMetrics, path: Path) -> None:
    """Five rows (four seasons plus their mean), two decimals per cell."""
    lines = [SUMMARY_HEADER, *map(",".join, _summary_rows(metrics))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cells(values: np.ndarray, suffix: str) -> np.ndarray:
    """Each value of an int64 or float64 array as its CSV cell: its repr
    (for an int, its str), then suffix.

    Every distinct value is formatted once and fancy-indexed back into
    place. Only the axes of nonzero stride are read, and the texts are
    broadcast over the others, in the shape of values. Values are keyed by
    their bits, so 0.0 and -0.0 (and any two NaN payloads) keep their own
    text.
    """
    own = values[tuple(slice(None) if s else slice(1) for s in values.strides)]
    distinct, where = np.unique(own.view(np.int64), return_inverse=True)
    text = [repr(v) + suffix for v in distinct.view(values.dtype).tolist()]
    texts = np.array(text, dtype=object)[where.reshape(own.shape)]
    return np.broadcast_to(texts, values.shape)


def write_ledger_csv(ledger: dict[str, np.ndarray], path: Path,
                     start: int = 0, stop: int | None = None) -> None:
    """One arm's ledger, an int64 or float64 (day, minute, station) table
    per LEDGER_COLUMNS name, as one CSV row per (minute, station),
    minute-major.

    Only the minutes [start, stop) of the whole ledger are written (all by
    default), with the header only when the range starts at minute 0 and is
    not empty, so the files of adjacent ranges join to the whole ledger's
    bytes. A column's strides give its period: with day and minute strides
    0 it is formatted once per station, with day stride 0 for one day, and
    otherwise per chunk; each minute takes its minute of the period's text,
    and adjacent columns of period 1 are joined.
    """
    n_days, day_minutes, n_nodes = ledger["t"].shape
    n_minutes = n_days * day_minutes
    stop = n_minutes if stop is None else stop
    if not 0 <= start <= stop <= n_minutes:
        raise ValueError(f"minutes [{start}, {stop}) outside the ledger's "
                         f"{n_minutes}")
    # (period, texts of one period, suffix); period None: a minute table
    # formatted per chunk
    parts: list = []
    for name in LEDGER_COLUMNS:
        # every cell carries its separator; the last column's ends the row
        suffix = "\n" if name == LEDGER_COLUMNS[-1] else ","
        values = ledger[name]
        day_stride, minute_stride = values.strides[:2]
        if day_stride:
            parts.append((None, values.reshape(n_minutes, n_nodes), suffix))
            continue
        period = 1 if minute_stride == 0 else day_minutes
        texts = _cells(values[0, :period], suffix)
        if period == 1 and parts and parts[-1][0] == 1:
            texts = parts.pop()[1] + texts  # object arrays: str + str per station
        parts.append((period, texts, suffix))
    chunk_minutes = max(LEDGER_CHUNK_ROWS // n_nodes, 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if start == 0 < stop:
            fh.write(",".join(LEDGER_COLUMNS) + "\n")
        for lo in range(start, stop, chunk_minutes):
            hi = min(lo + chunk_minutes, stop)
            minutes = np.arange(lo, hi)
            block = np.empty((hi - lo, n_nodes, len(parts)), dtype=object)
            for j, (period, source, suffix) in enumerate(parts):
                block[..., j] = (_cells(source[lo:hi], suffix)
                                 if period is None else source[minutes % period])
            fh.write("".join(block.ravel().tolist()))


def timeseries_rows(pair: PairResult, weather: WeatherSeries) -> np.ndarray:
    """One pair's share of the time series, shaped (3, days, minutes): the
    weather's GHI and the station means of the with-solar run's state of
    charge and panel output. The CLI sums these over runs in run order."""
    led = pair.ledgers[1]
    soc = led["soc_wh"].mean(axis=2)
    return np.stack([weather.ghi_wm2.reshape(soc.shape), soc,
                     led["harvested_wh"].mean(axis=2) * 60.0])


def write_timeseries_csvs(means: np.ndarray, out_dir: Path) -> None:
    """The time series of STUDY_FILES for each of SEASONS, the names of
    the dates in order: GHI, and state of charge and panel output averaged
    over stations, from the run means of timeseries_rows."""
    for day, name in enumerate(SEASONS):
        with open(out_dir / STUDY_FILES["timeseries"].format(season=name),
                  "w", encoding="utf-8", newline="\n") as fh:
            fh.write("minute,mean_ghi_wm2,mean_soc_wh,mean_pv_w\n")
            for lo in range(0, MINUTES_PER_DAY, TIMESERIES_CHUNK_MINUTES):
                hi = lo + TIMESERIES_CHUNK_MINUTES
                ghi, soc, pv_w = means[:, day, lo:hi].tolist()
                fh.write("".join([f"{m},{g:.6f},{s:.6f},{p:.6f}\n" for m, g, s, p
                                  in zip(range(lo, hi), ghi, soc, pv_w)]))


def format_summary_table(metrics: StudyMetrics) -> str:
    """Console rendering of the summary rows."""
    widths = (8, 18, 15, 13, 12, 14)
    header = ("season", "harvest_total_wh", "peak_harvest_w", "arec_percent",
              "anuc_no_res", "anuc_with_res")
    return "\n".join("".join(c.ljust(w) for c, w in zip(cells, widths))
                     for cells in (header, *_summary_rows(metrics)))
