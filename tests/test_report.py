"""Tests for the ledger and metrics writers."""

import datetime
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_golden import GOLDEN_CONFIG, grid_config, write_cloudy_weather

from solarran import report
from solarran.cli import CHILD_PV_SHARE
from solarran.engine import LEDGER_COLUMNS, SeasonStats, StudyMetrics, run_pair
from solarran.report import write_ledger_csv, write_metrics_json
from solarran.scenario import (MINUTES_PER_DAY, load_weather_csv,
                               scenario_from_dict, synth_study_series)


def _random_ledger(days, node_ids):
    """(day, minute, station) tables of random values over node_ids."""
    rng = np.random.default_rng(5)
    shape = (days, MINUTES_PER_DAY, len(node_ids))
    ledger = {name: rng.uniform(-1.0, 1.0, shape)
              for name in LEDGER_COLUMNS[2:-1]}
    ledger["t"] = np.broadcast_to(np.arange(days * MINUTES_PER_DAY, dtype=np.int64)
                                  .reshape(days, -1, 1), shape)
    ledger["node_id"] = np.broadcast_to(np.array(node_ids, dtype=np.int64),
                                        shape)
    ledger["swaps"] = rng.integers(0, 20, shape)
    return ledger


def test_signed_zeros_keep_their_own_repr(tmp_path):
    values = np.array([0.0, -0.0, 0.1 + 0.2, -0.0, 1e-300, 0.0, 5.0])[None, :, None]
    n = values.size
    ledger = {name: values.copy() for name in LEDGER_COLUMNS[2:-1]}
    ledger["t"] = np.arange(n, dtype=np.int64)[None, :, None]
    ledger["node_id"] = np.zeros((1, n, 1), dtype=np.int64)
    ledger["swaps"] = np.array([[[0], [0], [1], [1], [1], [2], [2]]])
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)

    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[2] for r in rows] == ["0.0", "-0.0", "0.30000000000000004",
                                    "-0.0", "1e-300", "0.0", "5.0"]
    for i, row in enumerate(rows):
        expected = ([str(i), "0"] + [repr(float(values[0, i, 0]))] * 9
                    + [str(int(ledger["swaps"][0, i, 0]))])
        assert row == expected


def test_rows_span_several_day_chunks(tmp_path):
    # three stations over three days, more rows than one block: chunking
    # must not drop, repeat or reorder rows
    minutes = 3 * 1440
    ledger = _random_ledger(3, (4, 7, 9))
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 3 * minutes
    table = {c: ledger[c].reshape(minutes, 3) for c in LEDGER_COLUMNS}
    for i in (0, 4319, 4320, 4321, 3 * minutes - 1):
        cell = divmod(i, 3)
        expected = ([str(int(table[c][cell])) for c in ("t", "node_id")]
                    + [repr(float(table[c][cell])) for c in LEDGER_COLUMNS[2:-1]]
                    + [str(int(table["swaps"][cell]))])
        assert lines[i].split(",") == expected


def test_block_size_leaves_the_bytes_alone(tmp_path, monkeypatch):
    # blocks of 7 rows hold two whole minutes of three stations, and end
    # across days
    ledger = _random_ledger(3, (4, 7, 9))
    write_ledger_csv(ledger, tmp_path / "default.csv")
    monkeypatch.setattr(report, "LEDGER_CHUNK_ROWS", 7)
    write_ledger_csv(ledger, tmp_path / "small.csv")
    assert ((tmp_path / "small.csv").read_bytes()
            == (tmp_path / "default.csv").read_bytes())


FLOAT_CELLS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               0.1 + 0.2, 1e-300, 5.0, -2.5)


def _naive_csv(ledger):
    """The ledger as text, one cell at a time, minute-major."""
    lines = [",".join(LEDGER_COLUMNS)]
    for cell in np.ndindex(ledger["t"].shape):
        lines.append(",".join(
            repr(float(ledger[c][cell])) if c in LEDGER_COLUMNS[2:-1]
            else str(int(ledger[c][cell])) for c in LEDGER_COLUMNS))
    return "\n".join(lines) + "\n"


@st.composite
def station_ledgers(draw):
    """(stations, ledger): each column varies freely, repeats one day every
    day, or repeats one value per station every minute, and may also repeat
    over stations, the repeats as broadcast views; one cell may break a
    repeating column's copy."""
    n = draw(st.integers(1, 60))
    days, minutes = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shape = (days, minutes, n)
    ledger = {}
    for name in LEDGER_COLUMNS:
        cells = (st.sampled_from(FLOAT_CELLS) if name in LEDGER_COLUMNS[2:-1]
                 else st.integers(-2**63, 2**63 - 1))
        # the axes the column varies over: all, a day's, or the station's,
        # less the station's where it repeats over stations
        own = shape[draw(st.integers(0, 2)):]
        if draw(st.booleans()):
            own = (*own[:-1], 1)
        size = math.prod(own)
        column = np.array(draw(st.lists(cells, min_size=size, max_size=size)),
                          dtype=float if name in LEDGER_COLUMNS[2:-1] else int)
        ledger[name] = np.broadcast_to(column.reshape(own), shape)
    if draw(st.booleans()):
        name = draw(st.sampled_from(LEDGER_COLUMNS))
        cell = np.unravel_index(draw(st.integers(0, n * days * minutes - 1)), shape)
        column = ledger[name] = ledger[name].copy()
        # a float's sign bit flips (0.0 <-> -0.0, and a NaN's payload); an
        # int's low bit flips
        column[cell] = -column[cell] if column.dtype == float else column[cell] ^ 1
    return n, ledger


def _example_ledger():
    """Two stations over one day of three minutes. Station-constant runs,
    broadcast views, follow t (node_id to hover_wh), sit in the middle
    (pv_used_wh) and end the row (swaps); constant columns hold 0.0 beside
    -0.0 and a NaN; drawn_wh is a copy, constant but for (minute 2, station
    1)."""
    n, minutes = 2, 3
    per_station = {"node_id": [4, 9], "consumed_wh": [0.0, -0.0],
                   "hover_wh": [math.nan, 1e-300], "pv_used_wh": [5.0, 5.0],
                   "drawn_wh": [-0.0, -0.0], "swaps": [3, 0]}
    ledger = {name: np.broadcast_to(np.array(
        v, dtype=float if name in LEDGER_COLUMNS[2:-1] else int), (1, minutes, n))
        for name, v in per_station.items()}
    ledger["drawn_wh"] = ledger["drawn_wh"].copy()
    ledger["drawn_wh"][0, 2, 1] = 0.0
    rng = np.random.default_rng(3)
    ledger["t"] = np.repeat(np.arange(minutes), n).reshape(1, minutes, n)
    for name in ("mimo_wh", "ris_wh", "harvested_wh", "pv_wasted_wh",
                 "soc_wh"):
        ledger[name] = rng.choice(FLOAT_CELLS, (1, minutes, n))
    return n, ledger


@settings(max_examples=60, deadline=None)
@given(case=station_ledgers(), chunk_rows=st.integers(1, 400))
@example(case=_example_ledger(), chunk_rows=1)
def test_bytes_equal_a_cell_by_cell_reference(case, chunk_rows):
    # chunk_rows below the station count gives one minute per chunk
    _, ledger = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(report, "LEDGER_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "ledger.csv"
        write_ledger_csv(ledger, path)
        assert path.read_text(encoding="utf-8") == _naive_csv(ledger)


def test_peak_memory_does_not_grow_with_ledger_length(tmp_path):
    # the writer holds one chunk of text at a time, so four days of a
    # 49-station ledger need about the memory of one; as without solar,
    # every float column but soc_wh repeats per station
    node_ids = tuple(range(49))
    peaks = {}
    for days in (1, 4):
        ledger = _random_ledger(days, node_ids)
        for name in LEDGER_COLUMNS[2:-2]:
            ledger[name] = np.broadcast_to(ledger[name][0, 0], ledger[name].shape)
        tracemalloc.start()
        try:
            write_ledger_csv(ledger, tmp_path / f"ledger{days}.csv")
            peaks[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.25 * peaks[1], peaks


@pytest.fixture(scope="module")
def golden_pairs(tmp_path_factory):
    """The first pair of each golden study, by station count: 3 stations
    with synthesized weather, 25 likewise, and 49 with CSV weather."""
    weather_csv = tmp_path_factory.mktemp("weather") / "weather.csv"
    write_cloudy_weather(weather_csv, 611)
    pairs = {}
    for config, seed, csv in ((GOLDEN_CONFIG, 42, False),
                              (grid_config(5, 500), 611, False),
                              (grid_config(7, 1000), 611, True)):
        scenario = scenario_from_dict(config)
        weather = (load_weather_csv(weather_csv, scenario.dates) if csv
                   else synth_study_series(scenario, seed=seed))
        pairs[len(scenario.nodes)] = run_pair(scenario, weather, seed)
    return pairs


@pytest.mark.parametrize("stations", [3, 25, 49])
def test_minute_ranges_join_to_the_whole_ledger(tmp_path, golden_pairs,
                                                stations):
    # the with-solar ledger, split as the CLI splits it and around the
    # first chunk's edge; an empty range writes an empty file
    ledger = golden_pairs[stations].ledgers[1]
    n = ledger["t"][..., 0].size
    chunk = report.LEDGER_CHUNK_ROWS // stations
    write_ledger_csv(ledger, tmp_path / "whole.csv")
    whole = (tmp_path / "whole.csv").read_bytes()
    for split in (0, 1, chunk - 1, chunk + 1, n - int(n * CHILD_PV_SHARE),
                  n - 1, n):
        write_ledger_csv(ledger, tmp_path / "head.csv", 0, split)
        write_ledger_csv(ledger, tmp_path / "tail.csv", split)
        joined = ((tmp_path / "head.csv").read_bytes()
                  + (tmp_path / "tail.csv").read_bytes())
        assert joined == whole, split


@pytest.mark.parametrize("start, stop", [(-1, 5), (5, 4), (0, 4 * 1440 + 1)])
def test_range_outside_the_ledger_is_refused(tmp_path, golden_pairs, start,
                                             stop):
    with pytest.raises(ValueError, match="outside the ledger's 5760"):
        write_ledger_csv(golden_pairs[3].ledgers[1], tmp_path / "x.csv",
                         start, stop)


def test_no_solar_state_of_charge_is_formatted_for_one_day(
        tmp_path, golden_pairs, monkeypatch):
    # without solar every float column but soc_wh is one value per station,
    # and soc_wh repeats day 0: one day of it is formatted, not four
    ledger = golden_pairs[3].ledgers[0]
    formatted = []

    def counted(values, suffix):
        if values.dtype == np.float64:
            formatted.append(np.size(values))
        return cells(values, suffix)

    cells = report._cells
    monkeypatch.setattr(report, "_cells", counted)
    write_ledger_csv(ledger, tmp_path / "nopv.csv")
    assert sorted(formatted) == [3] * 8 + [3 * MINUTES_PER_DAY]
    assert (tmp_path / "nopv.csv").read_text(encoding="utf-8") == _naive_csv(ledger)


def test_day_repeats_match_a_cell_by_cell_reference(tmp_path, monkeypatch):
    # soc_wh is one day broadcast over three days; harvested_wh is a copy
    # of one day repeated but for one sign bit in the third day, so it is
    # formatted per chunk. Ranges that start after day 0 still take day 0's
    # text.
    monkeypatch.setattr(report, "LEDGER_CHUNK_ROWS", 500)
    minutes = 3 * MINUTES_PER_DAY
    ledger = _random_ledger(3, (4, 7, 9))
    rng = np.random.default_rng(8)
    for name in ("soc_wh", "harvested_wh"):
        day = rng.choice(FLOAT_CELLS, (MINUTES_PER_DAY, 3))
        ledger[name] = np.broadcast_to(day, ledger[name].shape)
    ledger["harvested_wh"] = ledger["harvested_wh"].copy()
    ledger["harvested_wh"][2, -3, 1] = -ledger["harvested_wh"][2, -3, 1]
    expected = _naive_csv(ledger)
    for split in (0, 1439, 1440, 2000, minutes):
        write_ledger_csv(ledger, tmp_path / "head.csv", 0, split)
        write_ledger_csv(ledger, tmp_path / "tail.csv", split)
        joined = ((tmp_path / "head.csv").read_text(encoding="utf-8")
                  + (tmp_path / "tail.csv").read_text(encoding="utf-8"))
        assert joined == expected, split


def test_metrics_json_refuses_non_finite_numbers(tmp_path):
    # json.dumps would write Infinity, which strict JSON parsers reject
    stats = SeasonStats(math.inf, 0.0, 0.0, 0.0, 0.0)
    metrics = StudyMetrics(seasons={"spring": stats},
                           mean=stats, per_run=[])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_metrics_json(metrics, {}, tmp_path / "metrics.json")


def test_metrics_json_refuses_objects_json_cannot_encode(tmp_path):
    # a date is not JSON; it must not be written as its str
    stats = SeasonStats(0.0, 0.0, 0.0, 0.0, 0.0)
    metrics = StudyMetrics(seasons={"spring": stats},
                           mean=stats, per_run=[])
    with pytest.raises(TypeError, match="date is not JSON serializable"):
        write_metrics_json(metrics, {"dates": [datetime.date(2022, 3, 20)]},
                           tmp_path / "metrics.json")
