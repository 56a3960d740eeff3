"""Tests for the ledger writer."""

import numpy as np

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
