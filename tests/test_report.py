"""Tests for the ledger writer."""

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from solarran import report
from solarran.engine import LEDGER_COLUMNS, RunResult
from solarran.report import write_ledger_csv


def _ledger_result(ledger, node_ids=(0,)):
    empty = np.zeros((1, len(node_ids)))
    return RunResult(seed=0, with_res=True, network=None, dates=("d0",),
                     node_ids=node_ids, usable_capacity_wh=empty[0],
                     consumed_wh=empty, harvested_wh=empty,
                     pv_used_wh=empty, pv_wasted_wh=empty, drawn_wh=empty,
                     swaps=empty.astype(np.int64), peak_pv_w=empty,
                     ledger=ledger)


def _random_ledger(n, node_ids):
    """n rows of random values, minute-major over node_ids."""
    rng = np.random.default_rng(5)
    ledger = {name: rng.uniform(-1.0, 1.0, n) for name in LEDGER_COLUMNS[2:-1]}
    ledger["t"] = np.repeat(np.arange(n // len(node_ids), dtype=np.int64),
                            len(node_ids))
    ledger["node_id"] = np.tile(np.array(node_ids, dtype=np.int64),
                                n // len(node_ids))
    ledger["swaps"] = rng.integers(0, 20, n)
    return ledger


def test_signed_zeros_keep_their_own_repr(tmp_path):
    values = np.array([0.0, -0.0, 0.1 + 0.2, -0.0, 1e-300, 0.0, 5.0])
    n = len(values)
    ledger = {name: values.copy() for name in LEDGER_COLUMNS[2:-1]}
    ledger["t"] = np.arange(n, dtype=np.int64)
    ledger["node_id"] = np.zeros(n, dtype=np.int64)
    ledger["swaps"] = np.array([0, 0, 1, 1, 1, 2, 2], dtype=np.int64)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(_ledger_result(ledger), path)

    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[2] for r in rows] == ["0.0", "-0.0", "0.30000000000000004",
                                    "-0.0", "1e-300", "0.0", "5.0"]
    for i, row in enumerate(rows):
        expected = ([str(i), "0"] + [repr(float(values[i]))] * 9
                    + [str(int(ledger["swaps"][i]))])
        assert row == expected


def test_rows_span_several_day_chunks(tmp_path):
    # three stations over two days plus a partial third, more rows than one
    # block: chunking must not drop, repeat or reorder rows
    n = 3 * (2 * 1440 + 7)
    ledger = _random_ledger(n, (4, 7, 9))
    path = tmp_path / "ledger.csv"
    write_ledger_csv(_ledger_result(ledger, node_ids=(4, 7, 9)), path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == n
    for i in (0, 4319, 4320, 4321, n - 1):
        expected = ([str(int(ledger["t"][i])), str(int(ledger["node_id"][i]))]
                    + [repr(float(ledger[c][i])) for c in LEDGER_COLUMNS[2:-1]]
                    + [str(int(ledger["swaps"][i]))])
        assert lines[i].split(",") == expected


def test_block_size_leaves_the_bytes_alone(tmp_path, monkeypatch):
    # blocks of 7 rows end inside a minute's stations and across days
    ledger = _random_ledger(3 * (2 * 1440 + 7), (4, 7, 9))
    result = _ledger_result(ledger, node_ids=(4, 7, 9))
    write_ledger_csv(result, tmp_path / "default.csv")
    monkeypatch.setattr(report, "LEDGER_CHUNK_ROWS", 7)
    write_ledger_csv(result, tmp_path / "small.csv")
    assert ((tmp_path / "small.csv").read_bytes()
            == (tmp_path / "default.csv").read_bytes())


FLOAT_CELLS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               0.1 + 0.2, 1e-300, 5.0, -2.5)


def _naive_csv(ledger):
    """The ledger as text, one cell at a time."""
    lines = [",".join(LEDGER_COLUMNS)]
    for i in range(len(ledger["t"])):
        lines.append(",".join(
            repr(float(ledger[c][i])) if c in LEDGER_COLUMNS[2:-1]
            else str(int(ledger[c][i])) for c in LEDGER_COLUMNS))
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
        ledger[name] = np.tile(column, minutes) if per_station else column
    if draw(st.booleans()):
        name = draw(st.sampled_from(LEDGER_COLUMNS))
        row = draw(st.integers(0, n * minutes - 1))
        column = ledger[name]
        # a float's sign bit flips (0.0 <-> -0.0, and a NaN's payload); an
        # int's low bit flips
        column[row] = -column[row] if column.dtype == float else column[row] ^ 1
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
        v, dtype=float if name in LEDGER_COLUMNS[2:-1] else int), minutes)
        for name, v in per_station.items()}
    ledger["drawn_wh"][5] = 0.0
    rng = np.random.default_rng(3)
    ledger["t"] = np.repeat(np.arange(minutes), n)
    for name in ("mimo_wh", "ris_wh", "harvested_wh", "pv_wasted_wh",
                 "soc_wh"):
        ledger[name] = rng.choice(FLOAT_CELLS, n * minutes)
    return n, ledger


@settings(max_examples=60, deadline=None)
@given(case=station_ledgers(), chunk_rows=st.integers(1, 400))
@example(case=_example_ledger(), chunk_rows=1)
def test_bytes_equal_a_cell_by_cell_reference(case, chunk_rows):
    # chunk_rows below the station count gives one minute per chunk
    n, ledger = case
    result = _ledger_result(ledger, node_ids=tuple(range(n)))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(report, "LEDGER_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "ledger.csv"
        write_ledger_csv(result, path)
        assert path.read_text(encoding="utf-8") == _naive_csv(ledger)


def test_peak_memory_does_not_grow_with_ledger_length(tmp_path):
    # the writer holds one chunk of text at a time, so four days of a
    # 49-station ledger need about the memory of one; as without solar,
    # every float column but soc_wh repeats per station
    node_ids = tuple(range(49))
    peaks = {}
    for days in (1, 4):
        ledger = _random_ledger(days * 1440 * len(node_ids), node_ids)
        for name in LEDGER_COLUMNS[2:-2]:
            ledger[name] = np.tile(ledger[name][:len(node_ids)], days * 1440)
        result = _ledger_result(ledger, node_ids=node_ids)
        tracemalloc.start()
        try:
            write_ledger_csv(result, tmp_path / f"ledger{days}.csv")
            peaks[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.25 * peaks[1], peaks
