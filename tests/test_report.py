"""Tests for the ledger and metrics writers."""

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solarran import report
from solarran.engine import LEDGER_COLUMNS, SeasonStats, StudyMetrics
from solarran.report import write_ledger_csv, write_metrics_json


def _random_ledger(minutes, node_ids):
    """(minute, station) tables of random values over node_ids."""
    rng = np.random.default_rng(5)
    shape = (minutes, len(node_ids))
    ledger = {name: rng.uniform(-1.0, 1.0, shape)
              for name in LEDGER_COLUMNS[2:-1]}
    ledger["t"] = np.broadcast_to(np.arange(minutes, dtype=np.int64)[:, None],
                                  shape)
    ledger["node_id"] = np.broadcast_to(np.array(node_ids, dtype=np.int64),
                                        shape)
    ledger["swaps"] = rng.integers(0, 20, shape)
    return ledger


def test_signed_zeros_keep_their_own_repr(tmp_path):
    values = np.array([0.0, -0.0, 0.1 + 0.2, -0.0, 1e-300, 0.0, 5.0])[:, None]
    n = len(values)
    ledger = {name: values.copy() for name in LEDGER_COLUMNS[2:-1]}
    ledger["t"] = np.arange(n, dtype=np.int64)[:, None]
    ledger["node_id"] = np.zeros((n, 1), dtype=np.int64)
    ledger["swaps"] = np.array([[0], [0], [1], [1], [1], [2], [2]])
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)

    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[2] for r in rows] == ["0.0", "-0.0", "0.30000000000000004",
                                    "-0.0", "1e-300", "0.0", "5.0"]
    for i, row in enumerate(rows):
        expected = ([str(i), "0"] + [repr(float(values[i, 0]))] * 9
                    + [str(int(ledger["swaps"][i, 0]))])
        assert row == expected


def test_rows_span_several_day_chunks(tmp_path):
    # three stations over two days plus a partial third, more rows than one
    # block: chunking must not drop, repeat or reorder rows
    minutes = 2 * 1440 + 7
    ledger = _random_ledger(minutes, (4, 7, 9))
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 3 * minutes
    for i in (0, 4319, 4320, 4321, 3 * minutes - 1):
        cell = divmod(i, 3)
        expected = ([str(int(ledger[c][cell])) for c in ("t", "node_id")]
                    + [repr(float(ledger[c][cell])) for c in LEDGER_COLUMNS[2:-1]]
                    + [str(int(ledger["swaps"][cell]))])
        assert lines[i].split(",") == expected


def test_block_size_leaves_the_bytes_alone(tmp_path, monkeypatch):
    # blocks of 7 rows hold two whole minutes of three stations, and end
    # across days
    ledger = _random_ledger(2 * 1440 + 7, (4, 7, 9))
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
    """(stations, ledger): each column varies freely or repeats one value
    per station every minute; one cell may break a repeating column."""
    n = draw(st.integers(1, 60))
    minutes = draw(st.integers(1, 4))
    ledger = {}
    for name in LEDGER_COLUMNS:
        cells = (st.sampled_from(FLOAT_CELLS) if name in LEDGER_COLUMNS[2:-1]
                 else st.integers(-2**63, 2**63 - 1))
        per_station = draw(st.booleans())
        size = n if per_station else n * minutes
        column = np.array(draw(st.lists(cells, min_size=size, max_size=size)),
                          dtype=float if name in LEDGER_COLUMNS[2:-1] else int)
        ledger[name] = column.reshape(-1, n).repeat(
            minutes if per_station else 1, axis=0)
    if draw(st.booleans()):
        name = draw(st.sampled_from(LEDGER_COLUMNS))
        cell = divmod(draw(st.integers(0, n * minutes - 1)), n)
        column = ledger[name]
        # a float's sign bit flips (0.0 <-> -0.0, and a NaN's payload); an
        # int's low bit flips
        column[cell] = -column[cell] if column.dtype == float else column[cell] ^ 1
    return n, ledger


def _example_ledger():
    """Two stations over three minutes. Station-constant runs follow t
    (node_id to hover_wh), sit in the middle (pv_used_wh) and end the row
    (swaps); constant columns hold 0.0 beside -0.0 and a NaN; drawn_wh is
    constant but for (minute 2, station 1)."""
    n, minutes = 2, 3
    per_station = {"node_id": [4, 9], "consumed_wh": [0.0, -0.0],
                   "hover_wh": [math.nan, 1e-300], "pv_used_wh": [5.0, 5.0],
                   "drawn_wh": [-0.0, -0.0], "swaps": [3, 0]}
    ledger = {name: np.tile(np.array(
        v, dtype=float if name in LEDGER_COLUMNS[2:-1] else int), (minutes, 1))
        for name, v in per_station.items()}
    ledger["drawn_wh"][2, 1] = 0.0
    rng = np.random.default_rng(3)
    ledger["t"] = np.repeat(np.arange(minutes), n).reshape(minutes, n)
    for name in ("mimo_wh", "ris_wh", "harvested_wh", "pv_wasted_wh",
                 "soc_wh"):
        ledger[name] = rng.choice(FLOAT_CELLS, (minutes, n))
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
        ledger = _random_ledger(days * 1440, node_ids)
        for name in LEDGER_COLUMNS[2:-2]:
            ledger[name] = np.tile(ledger[name][0], (days * 1440, 1))
        tracemalloc.start()
        try:
            write_ledger_csv(ledger, tmp_path / f"ledger{days}.csv")
            peaks[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.25 * peaks[1], peaks


def test_metrics_json_refuses_non_finite_numbers(tmp_path):
    # json.dumps would write Infinity, which strict JSON parsers reject
    stats = SeasonStats(math.inf, 0.0, 0.0, 0.0, 0.0)
    metrics = StudyMetrics(season_names=("spring",), seasons={"spring": stats},
                           mean=stats, per_run=[])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_metrics_json(metrics, {}, [42], tmp_path / "metrics.json")
