"""The array recurrence of run_network against a loop of the scalar step.

Every ledger column and every day-total array must be bit-identical to what
the per-station, per-minute reference produces; no tolerance is allowed.
"""

import datetime

import numpy as np
from hypothesis import given, settings, strategies as st

from solarran.design import Assignment, CellConfig, NetworkConfig
from solarran.energy import (BatterySpec, BatteryState, PvSpec, UavAirframe,
                             fresh_battery)
from solarran.engine import LEDGER_COLUMNS, run_network, step
from solarran.radio import Position
from solarran.scenario import (MINUTES_PER_DAY, AccessNode, Scenario,
                               WeatherSeries)

DAY_TOTALS = ("consumed_wh", "harvested_wh", "pv_used_wh", "pv_wasted_wh",
              "drawn_wh", "swaps", "peak_pv_w")


def reference_run(scenario, series, network, with_res):
    """The per-step loop: one step() call per station and minute."""
    served = {}
    for nid, _, _ in network.assignment.users.values():
        served[nid] = served.get(nid, 0) + 1
    cells = {c.node_id: c for c in network.cells}
    nodes = sorted(scenario.nodes, key=lambda n: n.node_id)
    n_days, n_nodes = len(scenario.dates), len(nodes)
    totals = {name: np.zeros((n_days, n_nodes)) for name in DAY_TOTALS}
    totals["swaps"] = np.zeros((n_days, n_nodes), dtype=np.int64)
    columns = {name: [] for name in LEDGER_COLUMNS}
    states = [fresh_battery(n.battery) for n in nodes]
    for day in range(n_days):
        states = [BatteryState(n.battery.usable_capacity_wh, s.swap_count)
                  for s, n in zip(states, nodes)]
        at_start = [s.swap_count for s in states]
        for minute in range(MINUTES_PER_DAY):
            t = day * MINUTES_PER_DAY + minute
            for i, node in enumerate(nodes):
                cell = cells[node.node_id]
                states[i], e = step(node, states[i], cell.active,
                                    served.get(node.node_id, 0),
                                    cell.tx_power_dbm if cell.active else 0.0,
                                    series.ghi_wm2[t], series.temp_c[t],
                                    with_res, t)
                totals["consumed_wh"][day, i] += e.consumed_wh
                totals["harvested_wh"][day, i] += e.harvested_wh
                totals["pv_used_wh"][day, i] += e.pv_used_wh
                totals["pv_wasted_wh"][day, i] += e.pv_wasted_wh
                totals["drawn_wh"][day, i] += e.drawn_from_battery_wh
                if e.harvested_wh * 60.0 > totals["peak_pv_w"][day, i]:
                    totals["peak_pv_w"][day, i] = e.harvested_wh * 60.0
                for name, value in (
                        ("t", e.t), ("node_id", e.node_id),
                        ("consumed_wh", e.consumed_wh), ("hover_wh", e.hover_wh),
                        ("mimo_wh", e.mimo_wh), ("ris_wh", e.ris_wh),
                        ("harvested_wh", e.harvested_wh),
                        ("pv_used_wh", e.pv_used_wh),
                        ("pv_wasted_wh", e.pv_wasted_wh),
                        ("drawn_wh", e.drawn_from_battery_wh),
                        ("soc_wh", e.soc_after_wh), ("swaps", e.swaps_so_far)):
                    columns[name].append(value)
        for i in range(n_nodes):
            totals["swaps"][day, i] = states[i].swap_count - at_start[i]
    return {name: np.asarray(v) for name, v in columns.items()}, totals


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
    nodes, cells, users = [], [], {}
    for nid in ids:
        airframe = UavAirframe(total_mass=0.5 + 4.5 * draw(unit),
                               rotor_count=draw(st.integers(2, 8)),
                               rotor_radius=0.1 + 0.4 * draw(unit))
        pv = PvSpec(rated_power=draw(st.sampled_from([0.0, 60.0, 120.0, 2000.0])),
                    derating_factor=0.5 + 0.5 * draw(unit),
                    temp_coeff=-0.01 * draw(unit))
        battery = BatterySpec(capacity_wh=50.0 + 1450.0 * draw(unit),
                              charge_efficiency=0.5 + 0.5 * draw(unit),
                              flight_reserve=0.02 + 0.2 * draw(unit))
        nodes.append(AccessNode(node_id=nid, position=Position(0.0, 0.0, 50.0),
                                airframe=airframe, pv=pv, battery=battery))
        active = draw(st.booleans())
        cells.append(CellConfig(nid, active, draw(st.sampled_from([28.0, 34.0, 40.0]))
                                if active else None))
        for _ in range(draw(st.integers(0, 6)) if active else 0):
            users[len(users)] = (nid, 1, 1)
    n_days = draw(st.integers(1, 2))
    dates = tuple(datetime.date(2022, 6, 21 + d) for d in range(n_days))
    scenario = Scenario(nodes=tuple(nodes), dates=dates)
    network = NetworkConfig(cells=tuple(cells),
                            assignment=Assignment(users=users, node_loads={}),
                            covered_count=len(users), total_power_w=0.0)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_steps = n_days * MINUTES_PER_DAY
    ghi = rng.uniform(0.0, 1200.0, n_steps)
    ghi[rng.random(n_steps) < draw(st.floats(0.0, 1.0))] = 0.0
    temp = rng.uniform(-25.0, 45.0, n_steps)
    temp[rng.random(n_steps) < 0.05] = 0.0
    return scenario, WeatherSeries(ghi, temp), network


@settings(max_examples=20, deadline=None)
@given(scenarios(), st.booleans())
def test_array_recurrence_matches_scalar_step(case, with_res):
    scenario, series, network = case
    result = run_network(scenario, series, seed=0, network=network)[with_res]
    ledger, totals = reference_run(scenario, series, network, with_res)
    assert list(result.ledger) == list(LEDGER_COLUMNS)
    for name in LEDGER_COLUMNS:
        assert_bits_equal(result.ledger[name], ledger[name], name)
    for name in DAY_TOTALS:
        assert_bits_equal(getattr(result, name), totals[name], name)
