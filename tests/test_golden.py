"""Golden outputs: a fixed small study must keep producing the same bytes.

Criterion 7 only shows that two runs of one code version agree; this test
pins the output across code versions. The ledger and summary hashes were
taken from the per-step reference implementation; any change to the engine,
the metrics or the writers that alters one byte of these files fails here.
"""

import hashlib
import json

from solarran.cli import main

GOLDEN_CONFIG = {
    "area": {"width_m": 1200.0, "height_m": 1200.0},
    "users": {"count": 15},
    "nodes": {"layout": [
        {"id": 0, "x": 300.0, "y": 300.0},
        {"id": 1, "x": 900.0, "y": 300.0},
        {"id": 2, "x": 600.0, "y": 900.0},
    ]},
    "simulation": {"runs": 2},
}

GOLDEN_SHA256 = {
    "metrics.json": "25af5917b44c59d88bec3875b11a1d443f656540fe6a22645c18ac4dbecd06de",
    "summary.csv": "6b83fbf09a2075baabafc75873f553b7a285e870e99fae6609a7f07cc79bc1d7",
    "ledger_0_pv.csv": "2fa8466bebafa0abb4972bb7a6f32e382de07e8ab13c5b99d969daa982e7334e",
    "ledger_1_nopv.csv": "33b7abb9c0ee7da42cc6d1fa5976bd06481e4af5a71eacdf3063e1f282941fe2",
}


def test_golden_study_bytes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "42",
                 "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
