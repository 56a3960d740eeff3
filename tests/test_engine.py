"""Tests for the array stepper, full runs, and metric aggregation."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from conftest import one_station_day

from solarran import engine
from solarran.design import greedy_design, network_config
from solarran.energy import (BatterySpec, ParameterError, PvSpec, mimo_power,
                             ris_power, station_power_w, uav_hover_power)
from solarran.engine import (PairResult, SimulationError, compute_metrics,
                             run_network, run_pair, verify_conservation)
from solarran.scenario import (WeatherError, WeatherSeries, place_users,
                               scenario_from_dict, synth_study_series)

ARM_FREE = ("t", "node_id", "consumed_wh", "hover_wh", "mimo_wh", "ris_wh")

SMALL_CONFIG = {
    "area": {"width_m": 1500.0, "height_m": 1500.0},
    "users": {"count": 20},
    "nodes": {"layout": [
        {"id": 0, "x": 375.0, "y": 375.0},
        {"id": 1, "x": 1125.0, "y": 375.0},
        {"id": 2, "x": 375.0, "y": 1125.0},
        {"id": 3, "x": 1125.0, "y": 1125.0},
    ]},
}


def designed(scenario, seed):
    """The network run_pair would design for this scenario and seed."""
    return greedy_design(scenario.nodes, place_users(scenario, seed),
                         scenario.radio, scenario.dl_rate_mbps,
                         scenario.ul_rate_mbps)


@pytest.fixture(scope="module")
def small_scenario():
    return scenario_from_dict(SMALL_CONFIG)


@pytest.fixture(scope="module")
def small_pair(small_scenario):
    series = synth_study_series(small_scenario, seed=11)
    return run_pair(small_scenario, series, 11)


class TestStep:
    """One station stepped through one day."""

    def test_night_inactive_cell(self, small_scenario):
        node = small_scenario.nodes[0]
        led = one_station_day(node, 0.0, 5.0).ledgers[1]
        expected = (uav_hover_power(node.airframe) + node.mimo.sleep_power
                    + ris_power(node.ris)) / 60.0
        assert led["consumed_wh"][0, 0, 0] == pytest.approx(expected, rel=1e-12)
        assert not led["harvested_wh"].any()
        assert led["mimo_wh"][0, 0, 0] == pytest.approx(node.mimo.sleep_power / 60.0)
        assert led["soc_wh"][0, 0, 0] < node.battery.usable_capacity_wh

    def test_without_res_harvest_is_zero(self, small_scenario):
        pair = one_station_day(small_scenario.nodes[0], 800.0, 20.0, 40.0, 3)
        assert not pair.ledgers[0]["harvested_wh"].any()
        assert (pair.ledgers[1]["harvested_wh"] > 0.0).all()

    def test_constant_draw_day_sums_exactly(self, small_scenario):
        node = small_scenario.nodes[0]
        power_w = (uav_hover_power(node.airframe)
                   + mimo_power(node.mimo, True, 2, 34.0) + ris_power(node.ris))
        pair = one_station_day(node, 0.0, 5.0, 34.0, 2)
        assert pair.consumed_wh[0, 0] == pytest.approx(24.0 * power_w, rel=1e-9)
        assert pair.swaps[0, 0, 0] == math.floor(
            24.0 * power_w / node.battery.usable_capacity_wh)


class TestRunSimulation:
    def test_deterministic(self, small_scenario):
        series = synth_study_series(small_scenario, seed=3)
        a, b = (run_network(small_scenario, series, 3,
                            network=designed(small_scenario, 3))
                for _ in range(2))
        assert np.array_equal(a.consumed_wh, b.consumed_wh)
        assert np.array_equal(a.swaps, b.swaps)
        for led_a, led_b in zip(a.ledgers, b.ledgers):
            for col in led_a:
                assert np.array_equal(led_a[col], led_b[col])
        assert a.network.to_dict() == b.network.to_dict()

    def test_shape_and_flags(self, small_pair):
        assert small_pair.consumed_wh.shape == (4, 4)
        assert small_pair.swaps.shape == (2, 4, 4)
        assert small_pair.ledgers[0]["t"].shape == (4, 1440, 4)
        assert not small_pair.harvested_wh[0].any()
        assert small_pair.harvested_wh[1].sum() > 0

    def test_per_day_arrays_own_their_data(self, small_pair):
        # a view would keep its whole per-minute source alive with the result
        n = len(small_pair.node_ids)
        assert small_pair.consumed_wh.base is None
        for name in ("harvested_wh", "pv_used_wh", "pv_wasted_wh", "swaps",
                     "peak_pv_w"):
            per_day = getattr(small_pair, name)
            assert per_day.shape == (2, 4, n), name
            assert per_day.base is None, name

    def test_arm_independent_columns_are_views(self, small_pair):
        # one value per station (per minute for t) behind each column, not
        # a (day, minute, station) copy: the repeated axes have stride 0
        n = len(small_pair.node_ids)
        for ledger in small_pair.ledgers:
            for name in ARM_FREE:
                column = ledger[name]
                assert column.shape == (4, 1440, n), name
                assert not column.flags.writeable, name
                repeated = (2,) if name == "t" else (0, 1)
                assert [column.strides[a] for a in repeated] == [0] * len(repeated), name

    def test_panel_output_is_held_once(self, small_pair):
        # every station shares the panel: the with-solar harvest column
        # holds one value per minute, repeated over the stations
        column = small_pair.ledgers[1]["harvested_wh"]
        assert not column.flags.writeable
        assert column.strides[2] == 0

    @pytest.mark.parametrize("config,n_nodes", [({}, 9), ({
        "nodes": {"layout": [{"id": i, "x": 250.0 + 400.0 * (i % 7),
                              "y": 250.0 + 400.0 * (i // 7)} for i in range(49)]},
    }, 49)], ids=["default", "49_stations"])
    def test_panel_evaluated_once(self, monkeypatch, config, n_nodes):
        calls = []
        pv_power = engine.pv_power

        def counted(*args):
            calls.append(args)
            return pv_power(*args)

        monkeypatch.setattr(engine, "pv_power", counted)
        scenario = scenario_from_dict(config)
        network = network_config(scenario.nodes, {}, {})  # every cell asleep
        pair = run_network(scenario, synth_study_series(scenario, seed=3), 3,
                           network=network)
        assert len(pair.node_ids) == n_nodes
        assert len(calls) == 1

    def test_no_solar_repeats_are_views(self, small_pair):
        # the no-solar day is stepped once: its state of charge repeats over
        # the days, and its harvest, panel flows and draw over every minute
        no_solar = small_pair.ledgers[0]
        assert no_solar["soc_wh"].strides[0] == 0
        assert [no_solar[name].strides[:2] for name in (
            "harvested_wh", "pv_used_wh", "pv_wasted_wh", "drawn_wh")] == [(0, 0)] * 4

    def test_weather_gap_refused(self, small_scenario):
        series = synth_study_series(small_scenario, seed=3)
        broken = WeatherSeries(np.delete(series.ghi_wm2, 3000),
                               np.delete(series.temp_c, 3000))
        with pytest.raises(WeatherError, match="5759 minutes; 4 days need 5760"):
            run_network(small_scenario, broken, 3,
                        network=designed(small_scenario, 3))

    def test_daily_swaps_match_closed_form_without_res(self, small_pair):
        # constant per-day draw per node, fresh pack each day
        cap = BatterySpec().usable_capacity_wh
        for day in range(4):
            for i in range(len(small_pair.node_ids)):
                e = small_pair.consumed_wh[day, i]
                assert small_pair.swaps[0, day, i] == math.floor(e / cap)

    def test_pv_reduces_or_keeps_swaps(self, small_pair):
        no_res, with_res = small_pair.swaps
        assert (with_res <= no_res).all()
        assert small_pair.pv_used_wh[1].sum() > 0
        # summer day (index 1) must see a strict improvement on some node
        assert with_res[1].sum() < no_res[1].sum()

    def test_conservation(self, small_pair):
        assert (small_pair.usable_capacity_wh
                == BatterySpec().usable_capacity_wh).all()
        verify_conservation(small_pair)

    def test_consumption_independent_of_weather_without_res(self, small_pair):
        for day in range(1, 4):
            assert np.allclose(small_pair.consumed_wh[day],
                               small_pair.consumed_wh[0], rtol=0, atol=1e-9)

    def test_consumption_is_station_power_per_minute(self, small_scenario,
                                                     small_pair):
        cells = {c.node_id: c for c in small_pair.network.cells}
        served = Counter(nid for nid, _, _ in small_pair.network.users.values())
        per_step = small_pair.ledgers[0]["consumed_wh"]
        nodes = sorted(small_scenario.nodes, key=lambda n: n.node_id)
        for i, node in enumerate(nodes):
            draw_w = sum(station_power_w(node, cells[node.node_id].tx_power_dbm,
                                         served[node.node_id]))
            # the engine scales each term by 1/60 before adding, so the
            # two sides are a few roundings apart
            assert per_step[..., i] == pytest.approx(draw_w / 60, rel=1e-15)

    def test_peak_harvest_bounded_by_panel_physics(self, small_scenario, small_pair):
        from solarran.energy import pv_power
        series = synth_study_series(small_scenario, seed=11)
        pv = small_scenario.nodes[0].pv
        physical_max = pv_power(pv, series.ghi_wm2, series.temp_c).max()
        assert small_pair.peak_pv_w[1].max() <= physical_max + 1e-9


class TestStepErrors:
    """run_network refuses a network or a minute that one battery cannot
    account for, naming the station."""

    def test_demand_above_capacity(self, small_scenario):
        # only node 2 serves; every station's battery holds more than a
        # sleeping station's one-minute draw and less than node 2's
        network = network_config(small_scenario.nodes, {2: 34.0},
                                 {0: (2, 1, 1), 1: (2, 1, 1)})
        sleeping_wh, active_wh = (sum(network.power_w[i]) / 60.0 for i in (0, 2))
        assert sleeping_wh < active_wh
        reserve = BatterySpec().flight_reserve
        battery = BatterySpec(
            capacity_wh=(sleeping_wh + active_wh) / 2 / (1.0 - reserve))
        assert sleeping_wh < battery.usable_capacity_wh < active_wh
        scenario = dataclasses.replace(small_scenario, nodes=tuple(
            dataclasses.replace(n, battery=battery) for n in small_scenario.nodes))
        series = synth_study_series(scenario, seed=3)
        with pytest.raises(ParameterError,
                           match=r"node_id=2: step demand .* one battery"):
            run_network(scenario, series, 3, network=network)

    @pytest.mark.parametrize("part,spec", [
        ("pv", PvSpec(rated_power=60.0)),
        ("battery", BatterySpec(capacity_wh=900.0)),
    ], ids=["mixed_panel", "mixed_battery"])
    def test_mixed_equipment_refused(self, small_scenario, part, spec):
        # nodes 1 and 3 differ from node 0; listed in reverse, the first in
        # node-id order is still the one named
        nodes = tuple(dataclasses.replace(n, **{part: spec})
                      if n.node_id in (1, 3) else n
                      for n in reversed(small_scenario.nodes))
        scenario = dataclasses.replace(small_scenario, nodes=nodes)
        series = synth_study_series(scenario, seed=3)
        with pytest.raises(ValueError, match=r"node_id=1's panel or battery "
                                             r"differs from node_id=0's"):
            run_network(scenario, series, 3, network=designed(small_scenario, 3))


    @pytest.mark.parametrize("nodes", [
        lambda nodes: nodes[:3],
        lambda nodes: tuple(dataclasses.replace(n, node_id=n.node_id + 10)
                            for n in nodes),
    ], ids=["fewer", "other_ids"])
    def test_network_of_other_stations_refused(self, small_scenario, nodes):
        network = designed(small_scenario, 3)
        scenario = dataclasses.replace(small_scenario,
                                       nodes=nodes(small_scenario.nodes))
        series = synth_study_series(scenario, seed=3)
        with pytest.raises(ValueError,
                           match=r"network designed for node ids \[0, 1, 2, 3\]"):
            run_network(scenario, series, 3, network=network)


def _with_total(pair, name, index, delta):
    """pair with delta added to one entry of a day-total array."""
    totals = getattr(pair, name).copy()
    totals[index] += delta
    return dataclasses.replace(pair, **{name: totals})


class TestVerifyConservation:
    @pytest.mark.parametrize("column,value,message", [
        ("pv_used_wh", 0.5, "conservation"),
        ("soc_wh", -1.0, "negative or NaN state of charge"),
        ("soc_wh", 10_000.0, "exceeds usable capacity"),
        ("soc_wh", float("nan"), "NaN state of charge"),
        ("swaps", -1, "swap counter decreased"),
    ])
    def test_violations_raise(self, small_pair, column, value, message):
        no_solar, with_solar = small_pair.ledgers
        tampered = with_solar[column].copy()
        tampered[0, 25, 0] = value  # with solar, minute 25, station 0
        bad = dataclasses.replace(
            small_pair, ledgers=(no_solar, {**with_solar, column: tampered}))
        with pytest.raises(SimulationError, match=f"^with solar: .*{message}"):
            verify_conservation(bad)

    def test_day_totals_must_match_ledger(self, small_pair):
        bad = dataclasses.replace(small_pair,
                                  consumed_wh=small_pair.consumed_wh + 1.0)
        with pytest.raises(SimulationError,
                           match="^without solar: day 0: consumed_wh day totals"):
            verify_conservation(bad)

    @pytest.mark.parametrize("name,value", [
        ("harvested_wh", math.inf), ("pv_wasted_wh", -math.inf),
        ("pv_used_wh", math.nan), ("peak_pv_w", math.inf)])
    def test_non_finite_day_totals_refused(self, small_pair, name, value):
        bad = _with_total(small_pair, name, (1, 2, 3), value)
        with pytest.raises(SimulationError,
                           match=f"^with solar: day 2, node_id=3: {name} is "
                                 f"{value}, not finite"):
            verify_conservation(bad)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_swaps_without_solar_must_match_closed_form(self, small_pair,
                                                        delta):
        with pytest.raises(SimulationError,
                           match=r"^without solar: day 2, node_id=1: .* floor\(E/U\)"):
            verify_conservation(_with_total(small_pair, "swaps", (0, 2, 1),
                                            delta))

    def test_swaps_with_solar_are_not_held_to_closed_form(self, small_pair):
        # one more swap per station at each day's first minute, in the
        # day counts and in the ledger's cumulative column alike
        swaps = small_pair.swaps.copy()
        swaps[1] += 1
        no_solar, with_solar = small_pair.ledgers
        counter = with_solar["swaps"].copy()
        counter += with_solar["t"] // 1440 + 1
        verify_conservation(dataclasses.replace(
            small_pair, swaps=swaps,
            ledgers=(no_solar, {**with_solar, "swaps": counter})))

    def test_whole_multiple_swap_count_is_not_checked(self, small_pair):
        # E/U a whole number k: k or k - 1 swaps are both accepted, as in
        # criterion 4; a larger window keeps every SOC inside its bound
        e = small_pair.consumed_wh[0, 0]
        k = math.floor(e / small_pair.usable_capacity_wh[0])
        cap = small_pair.usable_capacity_wh.copy()
        cap[0] = e / k
        swaps = small_pair.swaps.copy()
        swaps[0, 0, 0], swaps[0, 1, 0] = k, k - 1
        # the ledger drops station 0's last swap of day 1 too
        no_solar, with_solar = small_pair.ledgers
        counter = no_solar["swaps"].copy()
        minutes = counter.reshape(-1, counter.shape[-1])  # a view of the copy
        last = 1440 + np.flatnonzero(np.diff(minutes[1439:2880, 0]))[-1]
        minutes[last:, 0] -= 1
        verify_conservation(dataclasses.replace(
            small_pair, usable_capacity_wh=cap, swaps=swaps,
            ledgers=({**no_solar, "swaps": counter}, with_solar)))

    @pytest.mark.parametrize("arm", [0, 1])
    def test_swaps_must_match_the_ledger_counter(self, small_pair, arm):
        cap = small_pair.usable_capacity_wh.copy()
        if arm == 0:  # E/U a whole number k: the closed form lets k - 1 pass
            cap[2] = small_pair.consumed_wh[3, 2] / small_pair.swaps[0, 3, 2]
        bad = _with_total(small_pair, "swaps", (arm, 3, 2), -1)
        with pytest.raises(SimulationError,
                           match=r"day 3, node_id=2: .* swaps column rose by"):
            verify_conservation(dataclasses.replace(bad, usable_capacity_wh=cap))

    def test_arec_must_match_the_ledger(self, small_pair):
        # 1e-6 Wh is within the sum tolerance but moves AREC by over 1e-9
        with pytest.raises(SimulationError,
                           match="^with solar: day 2: AREC from the ledger"):
            verify_conservation(_with_total(small_pair, "pv_used_wh", (1, 2, 0),
                                            1e-6))

    def test_per_station_capacity(self, small_pair):
        cap = BatterySpec().usable_capacity_wh
        n = len(small_pair.node_ids)
        verify_conservation(dataclasses.replace(
            small_pair, usable_capacity_wh=np.array([cap] * n)))
        with pytest.raises(SimulationError, match="exceeds usable capacity"):
            verify_conservation(dataclasses.replace(
                small_pair,
                usable_capacity_wh=np.array([cap] * (n - 1) + [cap / 2])))


def _fake_pair(seed, swaps_per_day, harvested=0.0, pv_used=0.0,
               consumed=100.0, swaps_with_res=None):
    """Minimal PairResult for metric-aggregation tests: 4 days, 1 node."""
    def arms(no_res, with_res, dtype=float):
        return np.stack([np.full((4, 1), no_res, dtype=dtype),
                         np.full((4, 1), with_res, dtype=dtype)])

    return PairResult(
        seed=seed, network=None, node_ids=(0,),
        usable_capacity_wh=np.array([BatterySpec().usable_capacity_wh]),
        consumed_wh=np.full((4, 1), consumed),
        harvested_wh=arms(0.0, harvested), pv_used_wh=arms(0.0, pv_used),
        pv_wasted_wh=arms(0.0, 0.0),
        swaps=arms(swaps_per_day, swaps_per_day if swaps_with_res is None
                   else swaps_with_res, dtype=np.int64),
        peak_pv_w=arms(0.0, 0.0), ledgers=())


class TestComputeMetrics:
    def test_swap_average_over_runs(self):
        pairs = [_fake_pair(s, swaps) for s, swaps in enumerate((9, 9, 9, 10))]
        metrics = compute_metrics(pairs)
        assert metrics.seasons["spring"].anuc_no_res == pytest.approx(9.25)
        assert metrics.mean.anuc_no_res == pytest.approx(9.25)

    def test_zero_harvest_means_zero_arec_and_equal_swaps(self):
        metrics = compute_metrics([_fake_pair(0, 9)])
        for name in metrics.season_names:
            assert metrics.seasons[name].arec_percent == 0.0
            assert (metrics.seasons[name].anuc_with_res
                    == metrics.seasons[name].anuc_no_res)

    def test_arec_identity_from_sums(self):
        metrics = compute_metrics([_fake_pair(0, 9, harvested=60.0,
                                              pv_used=57.0, swaps_with_res=8)])
        assert metrics.seasons["summer"].arec_percent == pytest.approx(57.0)
        assert metrics.seasons["summer"].anuc_with_res == 8.0
        run_season = metrics.per_run[0]["seasons"]["summer"]
        assert run_season["arec_percent"] == pytest.approx(
            100.0 * run_season["pv_used_wh"] / run_season["consumed_wh"])

    def test_one_season_per_day(self, small_scenario):
        with pytest.raises(ValueError, match="1 days for 4 seasons"):
            compute_metrics([one_station_day(small_scenario.nodes[0])])

    def test_metrics_against_real_pair(self, small_pair):
        metrics = compute_metrics([small_pair])
        for name in metrics.season_names:
            s = metrics.seasons[name]
            assert 0.0 <= s.arec_percent <= 100.0
            assert s.anuc_with_res <= s.anuc_no_res
        ordered = [metrics.seasons[n].total_harvest_wh
                   for n in ("summer", "spring", "autumn", "winter")]
        assert ordered == sorted(ordered, reverse=True)
