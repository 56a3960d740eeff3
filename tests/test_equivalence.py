"""The array recurrence of run_network against a loop of the scalar
reference_step.

Every ledger column and every day-total array of both arms must be
bit-identical to what the per-station, per-minute reference produces; no
tolerance is allowed.
"""

import datetime
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st
from reference_engine import reference_step

from solarran.design import network_config
from solarran.energy import (BatterySpec, PvSpec, UavAirframe, mimo_power,
                             pv_power, ris_power, uav_hover_power)
from solarran.engine import LEDGER_COLUMNS, run_network
from solarran.radio import Position
from solarran.scenario import (MINUTES_PER_DAY, AccessNode, Scenario,
                               WeatherSeries)

DAY_TOTALS = ("consumed_wh", "harvested_wh", "pv_used_wh", "pv_wasted_wh",
              "swaps", "peak_pv_w")
HOURS = 1.0 / 60.0  # one minute


def reference_run(scenario, series, network, with_res):
    """One arm as loops: a reference_step per station and minute, a full
    pack every morning, and day totals summed in minute order."""
    served = Counter(nid for nid, _, _ in network.users.values())
    cells = {c.node_id: c for c in network.cells}
    nodes = sorted(scenario.nodes, key=lambda n: n.node_id)
    n_days = len(scenario.dates)
    rows = np.zeros((len(series), len(nodes), len(LEDGER_COLUMNS)))
    totals = np.zeros((len(DAY_TOTALS), n_days, len(nodes)))
    for i, node in enumerate(nodes):
        cell = cells[node.node_id]
        hover, mimo, ris = (w * HOURS for w in (
            uav_hover_power(node.airframe),
            mimo_power(node.mimo, cell.active, served[node.node_id],
                       cell.tx_power_dbm if cell.active else 0.0),
            ris_power(node.ris)))
        demand = hover + mimo + ris
        # one panel call per station over the whole series
        pv_w = (pv_power(node.pv, series.ghi_wm2, series.temp_c) if with_res
                else np.zeros(len(series))).tolist()
        cap, swaps = node.battery.usable_capacity_wh, 0
        for day in range(n_days):
            soc, at_start = cap, swaps
            sums, peak = [0.0] * 4, 0.0
            for t in range(day * MINUTES_PER_DAY, (day + 1) * MINUTES_PER_DAY):
                harvested = pv_w[t] * HOURS
                soc, swaps, used, wasted, drawn = reference_step(
                    soc, swaps, cap, node.battery.charge_efficiency, demand,
                    harvested)
                flows = (demand, harvested, used, wasted)
                sums = [s + f for s, f in zip(sums, flows)]
                peak = max(peak, harvested * 60.0)
                rows[t, i] = (t, node.node_id, demand, hover, mimo, ris,
                              *flows[1:], drawn, soc, swaps)
            totals[:, day, i] = (*sums, swaps - at_start, peak)
    # (day, minute, station) tables, as in PairResult.ledgers
    rows = rows.reshape(n_days, MINUTES_PER_DAY, *rows.shape[1:])
    ledger = {name: rows[..., j] for j, name in enumerate(LEDGER_COLUMNS)}
    for name in ("t", "node_id", "swaps"):  # whole numbers, exact as floats
        ledger[name] = ledger[name].astype(np.int64)
    day_totals = dict(zip(DAY_TOTALS, totals))
    day_totals["swaps"] = day_totals["swaps"].astype(np.int64)
    return ledger, day_totals


def assert_bits_equal(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    if got.dtype.kind == "f":
        got, want = got.view(np.int64), want.view(np.int64)
    assert np.array_equal(got, want), what


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 50), min_size=n_nodes,
                        max_size=n_nodes, unique=True))
    unit = st.floats(0.0, 1.0)
    # a network's stations share one panel and one battery; each has its
    # own airframe, and so its own draw
    pv = PvSpec(rated_power=draw(st.sampled_from([0.0, 60.0, 120.0, 2000.0])),
                derating_factor=0.5 + 0.5 * draw(unit),
                temp_coeff=-0.01 * draw(unit))
    battery = BatterySpec(capacity_wh=50.0 + 1450.0 * draw(unit),
                          charge_efficiency=0.5 + 0.5 * draw(unit),
                          flight_reserve=0.02 + 0.2 * draw(unit))
    nodes, levels, users = [], {}, {}
    for nid in ids:
        airframe = UavAirframe(total_mass=0.5 + 4.5 * draw(unit),
                               rotor_count=draw(st.integers(2, 8)),
                               rotor_radius=0.1 + 0.4 * draw(unit))
        nodes.append(AccessNode(node_id=nid, position=Position(0.0, 0.0, 50.0),
                                airframe=airframe, pv=pv, battery=battery))
        if draw(st.booleans()):
            levels[nid] = draw(st.sampled_from([28.0, 34.0, 40.0]))
            for _ in range(draw(st.integers(0, 6))):
                users[len(users)] = (nid, 1, 1)
    n_days = draw(st.integers(1, 2))
    dates = tuple(datetime.date(2022, 6, 21 + d) for d in range(n_days))
    scenario = Scenario(nodes=tuple(nodes), dates=dates)
    network = network_config(nodes, levels, users)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_steps = n_days * MINUTES_PER_DAY
    ghi = rng.uniform(0.0, 1200.0, n_steps)
    ghi[rng.random(n_steps) < draw(st.floats(0.0, 1.0))] = 0.0
    temp = rng.uniform(-25.0, 45.0, n_steps)
    temp[rng.random(n_steps) < 0.05] = 0.0
    return scenario, WeatherSeries(ghi, temp), network


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_array_recurrence_matches_scalar_step(case):
    scenario, series, network = case
    pair = run_network(scenario, series, seed=0, network=network)
    for arm in (0, 1):
        assert list(pair.ledgers[arm]) == list(LEDGER_COLUMNS)
        ledger, totals = reference_run(scenario, series, network, bool(arm))
        for name in LEDGER_COLUMNS:
            assert_bits_equal(pair.ledgers[arm][name], ledger[name],
                              (arm, name))
        for name in DAY_TOTALS:
            # the arms share one consumed_wh
            got = getattr(pair, name)
            assert_bits_equal(got if name == "consumed_wh" else got[arm],
                              totals[name], (arm, name))
