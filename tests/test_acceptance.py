"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line when it holds.

The calibration criteria run the full default study (10 seeded run pairs on
the nine-station example layout with synthetic weather) exactly as
``solarran simulate --seed 42`` would.
"""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest
from conftest import (check_assignment_valid, check_local_minimality,
                      make_node, make_user, one_station_day)
from reference_engine import reference_step

from solarran.cli import main
from solarran.design import brute_force_design, greedy_design, station_power_w
from solarran.energy import (BatterySpec, MimoSpec, PvSpec, RisSpec,
                             UavAirframe, mimo_power, pv_power, ris_power,
                             uav_hover_power)
from solarran.engine import compute_metrics, run_pair
from solarran.radio import Position, RadioParams
from solarran.report import (scenario_echo, write_ledger_csv,
                             write_metrics_json, write_summary_csv)
from solarran.scenario import (SEASONS, AccessNode, scenario_from_dict,
                               synth_study_series)

MASTER_SEED = 42


@pytest.fixture(scope="module")
def default_study():
    """10 paired runs of the all-defaults scenario, seeds 42..51."""
    scenario = scenario_from_dict({})
    t0 = time.monotonic()
    pairs = []
    for r in range(10):
        seed = MASTER_SEED + r
        series = synth_study_series(scenario, seed=seed)
        pairs.append(run_pair(scenario, series, seed))
    metrics = compute_metrics(pairs)
    elapsed = time.monotonic() - t0
    return scenario, pairs, metrics, elapsed


# The README study's files (`solarran simulate --config {} --seed 42`), as
# the per-step reference implementation wrote them.
DEFAULT_STUDY_SHA256 = {
    "metrics.json": "a85c32c28d2ec36ac5e7ea050a49238813db270a538c26ddbcecf65fe217fe4d",
    "summary.csv": "7c683084a63a80f53c8bc11597167e80f391a12f25a9c059c23b90052340b93e",
    "ledger_0_pv.csv": "1d3639dfb7d8468138534bc32b004ac52ec22d413eb490c90a406f2e8f609c85",
    "ledger_0_nopv.csv": "392a5df8f49a5fad07c4e038a8c1257376e5d3f5a1b6f8dae9d3cba97beebad4",
}


def test_default_study_golden_bytes(default_study, tmp_path):
    """The README study's metrics, summary and first pair's ledgers keep
    their bytes across code versions."""
    scenario, pairs, metrics, _ = default_study
    write_metrics_json(metrics, scenario_echo(scenario),
                       [MASTER_SEED + r for r in range(len(pairs))],
                       tmp_path / "metrics.json")
    write_summary_csv(metrics, tmp_path / "summary.csv")
    write_ledger_csv(pairs[0].ledger(1), tmp_path / "ledger_0_pv.csv")
    write_ledger_csv(pairs[0].ledger(0), tmp_path / "ledger_0_nopv.csv")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DEFAULT_STUDY_SHA256}
    assert got == DEFAULT_STUDY_SHA256


def _random_airframe(rng):
    return UavAirframe(total_mass=float(rng.uniform(0.5, 5.0)),
                       rotor_count=int(rng.integers(2, 9)),
                       rotor_radius=float(rng.uniform(0.1, 0.5)),
                       air_density=float(rng.uniform(1.0, 1.3)),
                       drive_efficiency=float(rng.uniform(0.4, 1.0)),
                       tether_efficiency=float(rng.uniform(0.7, 1.0)))


def test_criterion_1_conservation_suite():
    """Per-step conservation, SOC bounds, and swap monotonicity over >=100
    random scenarios within 1e-9 Wh, in under 10 seconds.

    Each scenario is one random station stepped by run_network through a
    day of random minute weather, checked on both arms' ledgers. A run's
    design is fixed, so the cell's activity, served users and power level
    are also redrawn every minute in a loop of the scalar reference."""
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    scenarios = 120
    for _ in range(scenarios):
        battery = BatterySpec(capacity_wh=float(rng.uniform(300, 1500)),
                              charge_efficiency=float(rng.uniform(0.8, 1.0)),
                              flight_reserve=float(rng.uniform(0.02, 0.10)))
        node = AccessNode(node_id=0, position=Position(0, 0, 50),
                          airframe=_random_airframe(rng),
                          mimo=MimoSpec(pa_efficiency=float(rng.uniform(0.2, 0.9))),
                          ris=RisSpec(),
                          pv=PvSpec(rated_power=float(rng.uniform(50, 300))),
                          battery=battery)
        cap = battery.usable_capacity_wh
        active = bool(rng.integers(0, 2))
        pair = one_station_day(
            node, rng.uniform(0, 1100, 1440), rng.uniform(-15, 35, 1440),
            float(rng.choice([28.0, 34.0, 40.0])) if active else None,
            int(rng.integers(0, 8)) if active else 0)
        for arm in (0, 1):
            led = pair.ledger(arm)
            gap = np.abs(led["consumed_wh"] - (led["drawn_wh"] + led["pv_used_wh"]))
            assert gap.max() <= 1e-9, f"conservation gap {gap.max()}"
            assert (-1e-12 <= led["soc_wh"]).all()
            assert (led["soc_wh"] <= cap + 1e-9).all()
            assert (np.diff(led["swaps"], axis=0) >= 0).all()

        soc, swaps = cap, 0
        for _ in range(int(rng.integers(30, 80))):
            active = bool(rng.integers(0, 2))
            users = int(rng.integers(0, 8)) if active else 0
            level = float(rng.choice([28.0, 34.0, 40.0])) if active else 0.0
            demand = (uav_hover_power(node.airframe) + ris_power(node.ris)
                      + mimo_power(node.mimo, active, users, level)) / 60.0
            harvested = (pv_power(node.pv, float(rng.uniform(0, 1100)),
                                  float(rng.uniform(-15, 35))) / 60.0
                         if rng.integers(0, 2) else 0.0)
            prev_swaps = swaps
            soc, swaps, pv_used, _, drawn = reference_step(
                soc, swaps, cap, battery.charge_efficiency, demand, harvested)
            gap = abs(demand - (drawn + pv_used))
            assert gap <= 1e-9, f"conservation gap {gap}"
            assert -1e-12 <= soc <= cap + 1e-9
            assert swaps >= prev_swaps
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"conservation suite took {elapsed:.1f}s"
    print(f"\nCRITERION 1 PASS: conservation held on {scenarios} random "
          f"scenarios in {elapsed:.1f}s")


def test_criterion_2_arec_identity(default_study, tmp_path):
    """Reported AREC equals 100*sum(pv_used)/sum(consumed) recomputed from
    the ledgers, within 1e-9, for every run and season."""
    _, pairs, metrics, _ = default_study
    for r, pair in enumerate(pairs):
        led = pair.ledger(1)
        for day, name in enumerate(SEASONS):
            rows = slice(day * 1440, (day + 1) * 1440)
            used = float(np.sum(led["pv_used_wh"][rows]))
            consumed = float(np.sum(led["consumed_wh"][rows]))
            reported = metrics.per_run[r]["seasons"][name]["arec_percent"]
            assert abs(reported - 100.0 * used / consumed) <= 1e-9

    # the identity must survive the trip through the on-disk ledger
    path = tmp_path / "ledger.csv"
    write_ledger_csv(pairs[0].ledger(1), path)
    lines = path.read_text().splitlines()[1:]
    per_day_used = [0.0] * 4
    per_day_consumed = [0.0] * 4
    for line in lines:
        parts = line.split(",")
        day = int(parts[0]) // 1440
        per_day_consumed[day] += float(parts[2])
        per_day_used[day] += float(parts[7])
    for day, name in enumerate(SEASONS):
        reported = metrics.per_run[0]["seasons"][name]["arec_percent"]
        assert abs(reported - 100.0 * per_day_used[day] / per_day_consumed[day]) <= 1e-9
    print("\nCRITERION 2 PASS: AREC identity exact to 1e-9 on every run "
          "(in memory and from CSV)")


def test_criterion_3_calibration_consistency(default_study):
    """Defaults + synthetic weather, 10 runs, master seed 42: swap and
    energy-reduction figures sit in the published bands, under 60 s."""
    _, _, metrics, elapsed = default_study
    assert elapsed < 60.0, f"study took {elapsed:.1f}s"
    for name in SEASONS:
        s = metrics.seasons[name]
        assert 8.8 <= s.anuc_no_res <= 9.3, (name, s.anuc_no_res)
        assert s.anuc_with_res < s.anuc_no_res, (name, s.anuc_with_res)
    assert 3.0 <= metrics.mean.arec_percent <= 9.0, metrics.mean.arec_percent
    h = {name: metrics.seasons[name].total_harvest_wh for name in SEASONS}
    assert h["summer"] > h["spring"] > h["autumn"] > h["winter"]
    assert h["winter"] < 0.15 * h["summer"]
    print(f"\nCRITERION 3 PASS: anuc_no={metrics.seasons['spring'].anuc_no_res:.2f}, "
          f"mean arec={metrics.mean.arec_percent:.2f}%, "
          f"harvest {h['summer']:.0f}>{h['spring']:.0f}>{h['autumn']:.0f}>"
          f"{h['winter']:.0f} Wh, {elapsed:.1f}s")


def test_criterion_4_closed_form_swap_oracle():
    """A constant-load, no-harvest day performs exactly floor(E/U) swaps.

    Each (E, U) pair is one random station stepped by run_network without
    solar; its pack is sized so that the usable window is the day's
    consumption over a drawn E/U."""
    rng = np.random.default_rng(4004)
    checked = 0
    while checked < 20:
        node = AccessNode(node_id=0, position=Position(0, 0, 50),
                          airframe=_random_airframe(rng))
        level = float(rng.choice([28.0, 34.0, 40.0]))
        daily = 24.0 * sum(station_power_w(node, level, 3))
        reserve = float(rng.uniform(0.02, 0.10))
        capacity = daily / float(rng.uniform(0.2, 12.0)) / (1.0 - reserve)
        node = dataclasses.replace(node, battery=BatterySpec(
            capacity_wh=capacity, flight_reserve=reserve))
        pair = one_station_day(node, tx_power_dbm=level, served=3)
        e, u = pair.consumed_wh[0, 0], pair.usable_capacity_wh[0]
        # skip draws sitting on an exact multiple of the usable window,
        # where the swap count is knife-edge by construction
        if abs(e / u - round(e / u)) < 1e-6:
            continue
        swaps = pair.swaps[0, 0, 0]  # without solar, day 0, the one station
        assert swaps == math.floor(e / u), (
            f"E={e}, U={u}: {swaps} != {math.floor(e / u)}")
        checked += 1
    print(f"\nCRITERION 4 PASS: floor(E/U) swap count exact on {checked} "
          f"random (E, U) pairs")


def test_criterion_5_pv_model():
    """STC identity and darkness are exact; output is monotone in
    irradiance on 1000 random points."""
    spec = PvSpec()
    # forcing the cell to 25 degC under 1000 W/m2 returns rated * derating
    assert pv_power(spec, 1000.0, -6.25) == spec.rated_power * spec.derating_factor
    assert pv_power(spec, 0.0, 17.0) == 0.0
    rng = np.random.default_rng(5005)
    for _ in range(1000):
        ambient = float(rng.uniform(-20, 40))
        g1, g2 = sorted(rng.uniform(0, 1200, size=2))
        assert pv_power(spec, float(g1), ambient) <= pv_power(spec, float(g2), ambient)
    print("\nCRITERION 5 PASS: STC exact, dark exact, monotone on 1000 points")


def test_criterion_6_optimizer_against_oracle():
    """200 random small instances: greedy output is always feasible and
    locally minimal; coverage matches the exhaustive optimum on >=95% and
    never exceeds it; whenever coverage ties, greedy never spends less
    power than the optimum (at lower coverage the power comparison is
    vacuous, since serving fewer users is necessarily cheaper)."""
    rng = np.random.default_rng(6006)
    t0 = time.monotonic()
    instances = 200
    coverage_match = 0
    for _ in range(instances):
        params = RadioParams()
        nodes = [make_node(i, float(rng.uniform(0, 1200)),
                           float(rng.uniform(0, 1200)))
                 for i in range(int(rng.integers(1, 4)))]
        users = [make_user(i, float(rng.uniform(0, 1200)),
                           float(rng.uniform(0, 1200)))
                 for i in range(int(rng.integers(1, 9)))]
        dl = float(rng.uniform(20.0, 50.0))
        ul = float(rng.uniform(5.0, 15.0))
        greedy = greedy_design(nodes, users, params, dl, ul)
        check_assignment_valid(greedy, nodes, users, params, dl, ul)
        check_local_minimality(greedy, nodes, users, params, dl, ul)
        oracle = brute_force_design(nodes, users, params, dl, ul)
        assert greedy.covered_count <= oracle.covered_count
        if greedy.covered_count == oracle.covered_count:
            coverage_match += 1
            assert greedy.total_power_w >= oracle.total_power_w - 1e-9, (
                f"greedy spent {greedy.total_power_w} < oracle "
                f"{oracle.total_power_w} at equal coverage")
    elapsed = time.monotonic() - t0
    assert coverage_match >= 0.95 * instances, f"{coverage_match}/{instances}"
    assert elapsed < 30.0, f"optimizer suite took {elapsed:.1f}s"
    print(f"\nCRITERION 6 PASS: {coverage_match}/{instances} coverage matches "
          f"(never exceeds), power >= optimum at every tie, feasibility and "
          f"minimality always, {elapsed:.1f}s")


def test_criterion_7_cli_determinism(tmp_path):
    """Two identical invocations produce byte-identical metrics.json and
    summary.csv."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "area": {"width_m": 1200.0, "height_m": 1200.0},
        "users": {"count": 15},
        "nodes": {"layout": [
            {"id": 0, "x": 300.0, "y": 300.0},
            {"id": 1, "x": 900.0, "y": 300.0},
            {"id": 2, "x": 600.0, "y": 900.0},
        ]},
        "simulation": {"runs": 2},
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    flags = ["simulate", "--config", str(config), "--seed", "42"]
    assert main([*flags, "--out", str(out_a)]) == 0
    assert main([*flags, "--out", str(out_b)]) == 0
    assert ((out_a / "metrics.json").read_bytes()
            == (out_b / "metrics.json").read_bytes())
    assert ((out_a / "summary.csv").read_bytes()
            == (out_b / "summary.csv").read_bytes())
    print("\nCRITERION 7 PASS: byte-identical metrics.json and summary.csv")


def test_criterion_8_hover_scaling():
    """Drawn hover power scales as mass^1.5 and area^-0.5 within 1e-9
    relative error on random parameter pairs."""
    rng = np.random.default_rng(8008)
    pairs = 200
    for _ in range(pairs):
        base = _random_airframe(rng)
        p0 = uav_hover_power(base)

        mass_scale = float(rng.uniform(1.1, 4.0))
        heavier = dataclasses.replace(base, total_mass=base.total_mass * mass_scale)
        ratio = uav_hover_power(heavier) / p0
        assert abs(ratio - mass_scale ** 1.5) <= 1e-9 * mass_scale ** 1.5

        area_scale = float(rng.uniform(1.1, 4.0))
        wider = dataclasses.replace(base,
                                    rotor_radius=base.rotor_radius * math.sqrt(area_scale))
        ratio = uav_hover_power(wider) / p0
        assert abs(ratio - area_scale ** -0.5) <= 1e-9 * area_scale ** -0.5
    print(f"\nCRITERION 8 PASS: mass^1.5 and area^-0.5 scaling exact to 1e-9 "
          f"on {pairs} random pairs")
