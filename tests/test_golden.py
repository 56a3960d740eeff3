"""Golden outputs: fixed studies must keep producing the same bytes.

Criterion 7 only shows that two runs of one code version agree; these tests
pin the output across code versions. The small study's ledger and summary
hashes were taken from the per-step reference implementation; any change to
the engine, the metrics or the writers that alters one byte of these files
fails here. The 25- and 49-station studies pin every file of a study at
the sizes where the ledger writer's chunks span a partial day.
"""

import hashlib
import json
import math
import random

import pytest

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


# The golden study with each run's days scaled by a seeded cloud jitter, so
# that the numbers of the jitter stream are pinned too.
JITTER_CONFIG = {**GOLDEN_CONFIG, "weather": {"cloud_jitter": 0.3}}

JITTER_SHA256 = {
    "ledger_0_nopv.csv": "f17d06cb616cebf9a46c44f085a58dcaf9f1874966be9560ddff2dd618a88f63",
    "ledger_0_pv.csv": "ecc754370917fcac4cd051911b1aa2acca211281af8f795673396096122221c0",
    "ledger_1_nopv.csv": "33b7abb9c0ee7da42cc6d1fa5976bd06481e4af5a71eacdf3063e1f282941fe2",
    "ledger_1_pv.csv": "35da648e8f572d74e9fdcadd25897a4cdb988af0f2c888d4657c6804cb1f8b87",
    "metrics.json": "e6ec6c22fcc4dff1cf2be5a59bb6d8f292877099288937ac8d0669fa3dac9551",
    "summary.csv": "44531fef53991783970f57926b913cd376cbc4997e3ea872ca31d14199ecbcad",
    "timeseries_autumn.csv": "0965342766745e902f83be802b33b1e084e58218c8430472f28d4dcd7de24a65",
    "timeseries_spring.csv": "fb360e88cfc62260936a9d2c9b68777c93d8acda54eca82e7e2ca52f61d80ca7",
    "timeseries_summer.csv": "ae1aceb76f09d520912d46112209f12ae87b6569b39c2e26bcfae027e2a60886",
    "timeseries_winter.csv": "feb6d3ed19a907a138ae54975079f74f7d6ebf99ec07520297d8af398975fc81",
}


def test_jitter_study_bytes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(JITTER_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "42",
                 "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == JITTER_SHA256


# The golden study with a value other than the default in every equipment
# section, so that each spec reaches the designer, the engine and the echo.
EQUIPMENT_CONFIG = {
    **GOLDEN_CONFIG,
    "airframe": {"total_mass": 2.1, "rotor_count": 6, "rotor_radius": 0.18},
    "mimo": {"antenna_count": 32, "fixed_power": 25.0, "sleep_power": 4.0,
             "pa_efficiency": 0.4},
    "ris": {"element_count": 32, "phase_bits": 4},
    "pv": {"rated_power": 150.0, "temp_coeff": -0.004, "noct": 47.0},
    "battery": {"capacity_wh": 900.0, "charge_efficiency": 0.9,
                "flight_reserve": 0.1},
}

EQUIPMENT_SHA256 = {
    "ledger_0_nopv.csv": "0f839ba986bc69c33892ee9086dddb0c57b53074974bdaf5f090d836af896fc1",
    "ledger_0_pv.csv": "47c03d13b58323718fa4ad9c224ba3895c444032c863da80041ad6f350f60baf",
    "ledger_1_nopv.csv": "0d258d95415660c8b22eea300d0964324b5e2e449b3397fa25f1a2983a19c2f8",
    "ledger_1_pv.csv": "65237c7e7852121308f98d4c5cd9eed81490dffb009d10994a52d65e1aeb1e3d",
    "metrics.json": "314125c7446f3a9adcff2c52c4f93533e57648d426fde51c2122645664c1bc6c",
    "summary.csv": "6b04a5747afcf4dde317fe39ab894da3ffa9713485909a9f0d1b58a317b08dfd",
    "timeseries_autumn.csv": "250315fd75ac6e89f2d6794acb7132a6b8bd25f613e90adae81b1a583168bc7c",
    "timeseries_spring.csv": "5d79c3e54e79e354ccf34e865d313f45acef6a098140edf699c95a80157c9448",
    "timeseries_summer.csv": "5d2430bcd9a17ceed4256f769f263a5796c44fc4ec1d3000c8d6faebf1d4b193",
    "timeseries_winter.csv": "ce0aac613b1629386a028116656b444d3a03de23f48f3b1aa432115f7f9fc723",
}


def test_equipment_study_bytes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(EQUIPMENT_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "42",
                 "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == EQUIPMENT_SHA256


def grid_config(side: int, users: int) -> dict:
    """side x side stations at the cell centres of the default 3 km square,
    users at 20/5 Mbps, one run pair."""
    width = 3000.0
    layout = [{"id": j * side + i,
               "x": width * (2 * i + 1) / (2 * side),
               "y": width * (2 * j + 1) / (2 * side)}
              for j in range(side) for i in range(side)]
    return {"users": {"count": users, "dl_mbps": 20.0, "ul_mbps": 5.0},
            "nodes": {"layout": layout}, "simulation": {"runs": 1}}


def write_cloudy_weather(path, seed: int) -> None:
    """The four default study days of minute weather from this test's own
    generator: a half-sine daylight curve under a random-walk cloud cover,
    and a daily temperature swing with noise."""
    rng = random.Random(seed)
    days = (("2022-03-20", 700.0, 2.0, 12.0), ("2022-06-21", 900.0, 14.0, 24.0),
            ("2022-09-23", 600.0, 7.0, 16.0), ("2022-12-21", 300.0, -4.0, 2.0))
    lines = ["timestamp,ghi_wm2,temp_c"]
    for date, peak, t_min, t_max in days:
        cover = rng.uniform(0.3, 0.9)
        for m in range(1440):
            cover = min(1.0, max(0.05, cover + rng.gauss(0.0, 0.05)))
            sun = math.sin(math.pi * (m - 360) / 720)
            ghi = peak * sun * cover if sun > 0 else 0.0
            temp = ((t_min + t_max) / 2 + (t_max - t_min) / 2
                    * math.cos(2 * math.pi * (m - 900) / 1440)
                    + rng.gauss(0.0, 0.3))
            lines.append(f"{date}T{m // 60:02d}:{m % 60:02d},{ghi!r},{temp!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GRID_STUDIES = {
    # 49 stations, 1000 users, weather from a CSV
    "dense": (7, 1000, True, {
        "metrics.json": "3e88ff125a7ec38b8487dce13fe259599ac5f8db7875412616de71aebb263d99",
        "summary.csv": "67170e799974585dccb81a028cf919f9d6aa8b53dbe8cd4c59972595d3b1c73f",
        "ledger_0_pv.csv": "51c3b45709fe9224b60d4a9d1ddfbb53e296e1b513597fabe90c22699705434d",
        "ledger_0_nopv.csv": "a4abe4f29936d1af902c687c23b7003924a9c22bbf0f04a2d2f88b50bbedfbfe",
        "timeseries_spring.csv": "cb7bd3fc6029ebdcb6cfd63cda751e779c32451a2c2dba6c42aafcbac45105f3",
        "timeseries_summer.csv": "3ba129276f1580b3be3700b9559f8d8d055edfec4681ff620ce55fb3c75cbfc4",
        "timeseries_autumn.csv": "b412658c89f2a4657577c5293959d07fe952b39f3dc28cba9f4de18ddbc2d342",
        "timeseries_winter.csv": "ac36d24dd234cdfb1724e9612bc5355753b7105467fb21ecff7eb24eb67fb0d2",
    }),
    # 25 stations, 500 users, synthesized weather
    "mid": (5, 500, False, {
        "metrics.json": "b2ba890357d8a8dc11ca87d852b7679656bf890d228b79273207322c4f2d1fc5",
        "summary.csv": "fe13dc82b3792260e8c7e6d3362508701cc4c50f5f88b45e2b0bb40a5f1cde7a",
        "ledger_0_pv.csv": "3505cacb95e1995029f6e53973e929184e3004c07836a5b99ec95f13259b0978",
        "ledger_0_nopv.csv": "791fd4fc0534ffb94a60562a42e9671850ff70ff6670b06b57bd29922f7c85ce",
        "timeseries_spring.csv": "4f92bb20c0276ccbc7f31903f01544e6f0a068cf3706aee5c8f21c94bba8b357",
        "timeseries_summer.csv": "bb1b87cc52671d8a71e9d9489d784bd8f792a14afc21070c09a80e96677900aa",
        "timeseries_autumn.csv": "9b410949398aa479025c9eff43d9187fb5a2226e7add185de6a47aeccebc484a",
        "timeseries_winter.csv": "bee68d1a77eaae9283b2705bcaee763cd183538e74f9a08487081d659532bba3",
    }),
}


@pytest.mark.parametrize("name", GRID_STUDIES)
def test_grid_study_bytes(tmp_path, capsys, name):
    side, users, csv_weather, digests = GRID_STUDIES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(grid_config(side, users)), encoding="utf-8")
    weather = ["--weather", "synth"]
    if csv_weather:
        write_cloudy_weather(tmp_path / "weather.csv", 611)
        weather = ["--weather", str(tmp_path / "weather.csv")]
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "611",
                 *weather, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == digests
