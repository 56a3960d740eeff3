"""Tests for the array stepper, full runs, and metric aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import one_station_day

from solarran.design import greedy_design, served_counts, station_power_w
from solarran.energy import (BatterySpec, mimo_power, ris_power,
                             uav_hover_power)
from solarran.engine import (RunResult, SimulationError, compute_metrics,
                             run_network, run_pair, verify_conservation)
from solarran.scenario import (WeatherError, WeatherSeries, place_users,
                               scenario_from_dict, synth_study_series)

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
        led = one_station_day(node, 0.0, 5.0)[True].ledger
        expected = (uav_hover_power(node.airframe) + node.mimo.sleep_power
                    + ris_power(node.ris)) / 60.0
        assert led["consumed_wh"][0] == pytest.approx(expected, rel=1e-12)
        assert not led["harvested_wh"].any()
        assert led["mimo_wh"][0] == pytest.approx(node.mimo.sleep_power / 60.0)
        assert led["soc_wh"][0] < node.battery.usable_capacity_wh

    def test_without_res_harvest_is_zero(self, small_scenario):
        no_res, with_res = one_station_day(small_scenario.nodes[0], 800.0,
                                           20.0, 40.0, 3)
        assert not no_res.ledger["harvested_wh"].any()
        assert (with_res.ledger["harvested_wh"] > 0.0).all()

    def test_constant_draw_day_sums_exactly(self, small_scenario):
        node = small_scenario.nodes[0]
        power_w = (uav_hover_power(node.airframe)
                   + mimo_power(node.mimo, True, 2, 34.0) + ris_power(node.ris))
        no_res = one_station_day(node, 0.0, 5.0, 34.0, 2)[False]
        assert no_res.consumed_wh[0, 0] == pytest.approx(24.0 * power_w, rel=1e-9)
        assert no_res.swaps[0, 0] == math.floor(
            24.0 * power_w / node.battery.usable_capacity_wh)


class TestRunSimulation:
    def test_deterministic(self, small_scenario):
        series = synth_study_series(small_scenario, seed=3)
        a = run_network(small_scenario, series, 3,
                        network=designed(small_scenario, 3))[True]
        b = run_network(small_scenario, series, 3,
                        network=designed(small_scenario, 3))[True]
        assert np.array_equal(a.consumed_wh, b.consumed_wh)
        assert np.array_equal(a.swaps, b.swaps)
        for col in a.ledger:
            assert np.array_equal(a.ledger[col], b.ledger[col])
        assert a.network.to_dict() == b.network.to_dict()

    def test_shape_and_flags(self, small_pair):
        no_res, with_res = small_pair
        assert no_res.consumed_wh.shape == (4, 4)
        assert len(no_res.ledger["t"]) == 5760 * 4
        assert not no_res.harvested_wh.any()
        assert with_res.harvested_wh.sum() > 0

    def test_per_day_arrays_own_their_data(self, small_pair):
        # a view would keep its whole per-minute source alive with the result
        for result in small_pair:
            for name in ("consumed_wh", "harvested_wh", "pv_used_wh",
                         "pv_wasted_wh", "drawn_wh", "swaps", "peak_pv_w"):
                per_day = getattr(result, name)
                assert per_day.shape == (4, len(result.node_ids)), name
                assert per_day.base is None, name

    def test_weather_gap_refused(self, small_scenario):
        series = synth_study_series(small_scenario, seed=3)
        broken = WeatherSeries(np.delete(series.ghi_wm2, 3000),
                               np.delete(series.temp_c, 3000))
        with pytest.raises(WeatherError, match="5759 minutes; 4 days need 5760"):
            run_network(small_scenario, broken, 3,
                        network=designed(small_scenario, 3))

    def test_daily_swaps_match_closed_form_without_res(self, small_pair):
        no_res, _ = small_pair
        # constant per-day draw per node, fresh pack each day
        cap = BatterySpec().usable_capacity_wh
        for day in range(4):
            for i in range(no_res.consumed_wh.shape[1]):
                e = no_res.consumed_wh[day, i]
                assert no_res.swaps[day, i] == math.floor(e / cap)

    def test_pv_reduces_or_keeps_swaps(self, small_pair):
        no_res, with_res = small_pair
        assert (with_res.swaps <= no_res.swaps).all()
        assert with_res.pv_used_wh.sum() > 0
        # summer day (index 1) must see a strict improvement on some node
        assert with_res.swaps[1].sum() < no_res.swaps[1].sum()

    def test_conservation(self, small_pair):
        for result in small_pair:
            assert (result.usable_capacity_wh
                    == BatterySpec().usable_capacity_wh).all()
            verify_conservation(result)

    def test_consumption_independent_of_weather_without_res(self, small_pair):
        no_res, _ = small_pair
        for day in range(1, 4):
            assert np.allclose(no_res.consumed_wh[day], no_res.consumed_wh[0],
                               rtol=0, atol=1e-9)

    def test_consumption_is_station_power_per_minute(self, small_scenario,
                                                     small_pair):
        for result in small_pair:
            cells = {c.node_id: c for c in result.network.cells}
            served = served_counts(result.network.assignment.users)
            per_step = result.ledger["consumed_wh"].reshape(
                -1, len(result.node_ids))
            nodes = sorted(small_scenario.nodes, key=lambda n: n.node_id)
            for i, node in enumerate(nodes):
                draw_w = sum(station_power_w(node, cells[node.node_id].tx_power_dbm,
                                             served.get(node.node_id, 0)))
                # the engine scales each term by 1/60 before adding, so the
                # two sides are a few roundings apart
                assert per_step[:, i] == pytest.approx(draw_w / 60, rel=1e-15)

    def test_peak_harvest_bounded_by_panel_physics(self, small_scenario, small_pair):
        from solarran.energy import pv_power
        _, with_res = small_pair
        series = synth_study_series(small_scenario, seed=11)
        pv = small_scenario.nodes[0].pv
        physical_max = pv_power(pv, series.ghi_wm2, series.temp_c).max()
        assert with_res.peak_pv_w.max() <= physical_max + 1e-9


class TestStepErrors:
    """run_network refuses a minute that one battery cannot account for,
    naming the minute and the station."""

    def test_negative_ghi(self, small_scenario):
        series = synth_study_series(small_scenario, seed=3)
        ghi = series.ghi_wm2.copy()
        ghi[2000] = -1.0
        series = WeatherSeries(ghi, series.temp_c)
        with pytest.raises(SimulationError, match=r"t=2000, node_id=0: ghi"):
            run_network(small_scenario, series, 3,
                        network=designed(small_scenario, 3))

    def test_demand_above_capacity(self, small_scenario):
        tiny = BatterySpec(capacity_wh=2.0)  # 1.9 Wh usable, under one minute of hover
        nodes = tuple(dataclasses.replace(n, battery=tiny) if n.node_id == 2 else n
                      for n in small_scenario.nodes)
        scenario = dataclasses.replace(small_scenario, nodes=nodes)
        series = synth_study_series(scenario, seed=3)
        with pytest.raises(SimulationError,
                           match=r"t=0, node_id=2: step demand .* one battery"):
            run_network(scenario, series, 3, network=designed(scenario, 3))


class TestVerifyConservation:
    def _tampered(self, result, column, index, value):
        ledger = {k: v.copy() for k, v in result.ledger.items()}
        ledger[column][index] = value
        return dataclasses.replace(result, ledger=ledger)

    @pytest.mark.parametrize("column,value,message", [
        ("pv_used_wh", 0.5, "conservation"),
        ("soc_wh", -1.0, "negative or NaN state of charge"),
        ("soc_wh", 10_000.0, "exceeds usable capacity"),
        ("soc_wh", float("nan"), "NaN state of charge"),
        ("swaps", -1, "swap counter decreased"),
    ])
    def test_violations_raise(self, small_pair, column, value, message):
        bad = self._tampered(small_pair[1], column, 100, value)
        with pytest.raises(SimulationError, match=message):
            verify_conservation(bad)

    def test_day_totals_must_match_ledger(self, small_pair):
        no_res = small_pair[0]
        bad = dataclasses.replace(no_res, consumed_wh=no_res.consumed_wh + 1.0)
        with pytest.raises(SimulationError, match="consumed_wh day totals"):
            verify_conservation(bad)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_swaps_without_solar_must_match_closed_form(self, small_pair,
                                                        delta):
        no_res = small_pair[0]
        swaps = no_res.swaps.copy()
        swaps[2, 1] += delta
        with pytest.raises(SimulationError,
                           match=r"day 2, node_id=1: .* floor\(E/U\)"):
            verify_conservation(dataclasses.replace(no_res, swaps=swaps))

    def test_swaps_with_solar_are_not_held_to_closed_form(self, small_pair):
        # one more swap per station at each day's first minute, in the
        # day counts and in the ledger's cumulative column alike
        with_res = small_pair[1]
        ledger = dict(with_res.ledger)
        ledger["swaps"] = ledger["swaps"] + ledger["t"] // 1440 + 1
        verify_conservation(dataclasses.replace(
            with_res, swaps=with_res.swaps + 1, ledger=ledger))

    def test_whole_multiple_swap_count_is_not_checked(self, small_pair):
        # E/U a whole number k: k or k - 1 swaps are both accepted, as in
        # criterion 4; a larger window keeps every SOC inside its bound
        no_res = small_pair[0]
        e = no_res.consumed_wh[0, 0]
        k = math.floor(e / no_res.usable_capacity_wh[0])
        cap = no_res.usable_capacity_wh.copy()
        cap[0] = e / k
        swaps = no_res.swaps.copy()
        swaps[0, 0], swaps[1, 0] = k, k - 1
        # the ledger drops station 0's last swap of day 1 too
        n = len(no_res.node_ids)
        counter = no_res.ledger["swaps"].reshape(-1, n).copy()
        last = 1440 + np.flatnonzero(np.diff(counter[1439:2880, 0]))[-1]
        counter[last:, 0] -= 1
        verify_conservation(dataclasses.replace(
            no_res, usable_capacity_wh=cap, swaps=swaps,
            ledger={**no_res.ledger, "swaps": counter.ravel()}))

    @pytest.mark.parametrize("arm", [0, 1])
    def test_swaps_must_match_the_ledger_counter(self, small_pair, arm):
        result = small_pair[arm]
        swaps = result.swaps.copy()
        swaps[3, 2] -= 1
        cap = result.usable_capacity_wh.copy()
        if arm == 0:  # E/U a whole number k: the closed form lets k - 1 pass
            cap[2] = result.consumed_wh[3, 2] / result.swaps[3, 2]
        with pytest.raises(SimulationError,
                           match=r"day 3, node_id=2: .* swaps column rose by"):
            verify_conservation(dataclasses.replace(
                result, swaps=swaps, usable_capacity_wh=cap))

    def test_arec_must_match_the_ledger(self, small_pair):
        # 1e-6 Wh is within the sum tolerance but moves AREC by over 1e-9
        pv_used = small_pair[1].pv_used_wh.copy()
        pv_used[2, 0] += 1e-6
        with pytest.raises(SimulationError, match="day 2: AREC from the ledger"):
            verify_conservation(dataclasses.replace(small_pair[1],
                                                    pv_used_wh=pv_used))

    def test_per_station_capacity(self, small_pair):
        cap = BatterySpec().usable_capacity_wh
        n = len(small_pair[1].node_ids)
        verify_conservation(dataclasses.replace(
            small_pair[1], usable_capacity_wh=np.array([cap] * n)))
        with pytest.raises(SimulationError, match="exceeds usable capacity"):
            verify_conservation(dataclasses.replace(
                small_pair[1],
                usable_capacity_wh=np.array([cap] * (n - 1) + [cap / 2])))


def _fake_result(seed, with_res, swaps_per_day, harvested=0.0, pv_used=0.0,
                 consumed=100.0):
    """Minimal RunResult for metric-aggregation tests: 4 days, 1 node."""
    days = 4
    shape = (days, 1)
    return RunResult(
        seed=seed, with_res=with_res, network=None,
        dates=("d0", "d1", "d2", "d3"), node_ids=(0,),
        usable_capacity_wh=np.array([BatterySpec().usable_capacity_wh]),
        consumed_wh=np.full(shape, consumed),
        harvested_wh=np.full(shape, harvested if with_res else 0.0),
        pv_used_wh=np.full(shape, pv_used if with_res else 0.0),
        pv_wasted_wh=np.zeros(shape),
        drawn_wh=np.full(shape, consumed - (pv_used if with_res else 0.0)),
        swaps=np.full(shape, swaps_per_day, dtype=np.int64),
        peak_pv_w=np.zeros(shape), ledger={})


class TestComputeMetrics:
    def test_swap_average_over_runs(self):
        pairs = [( _fake_result(s, False, swaps), _fake_result(s, True, swaps))
                 for s, swaps in enumerate((9, 9, 9, 10))]
        metrics = compute_metrics(pairs)
        assert metrics.seasons["spring"].anuc_no_res == pytest.approx(9.25)
        assert metrics.mean.anuc_no_res == pytest.approx(9.25)

    def test_zero_harvest_means_zero_arec_and_equal_swaps(self):
        pairs = [(_fake_result(0, False, 9), _fake_result(0, True, 9))]
        metrics = compute_metrics(pairs)
        for name in metrics.season_names:
            assert metrics.seasons[name].arec_percent == 0.0
            assert (metrics.seasons[name].anuc_with_res
                    == metrics.seasons[name].anuc_no_res)

    def test_arec_identity_from_sums(self):
        pairs = [(_fake_result(0, False, 9),
                  _fake_result(0, True, 8, harvested=60.0, pv_used=57.0))]
        metrics = compute_metrics(pairs)
        assert metrics.seasons["summer"].arec_percent == pytest.approx(57.0)
        run_season = metrics.per_run[0]["seasons"]["summer"]
        assert run_season["arec_percent"] == pytest.approx(
            100.0 * run_season["pv_used_wh"] / run_season["consumed_wh"])

    def test_mismatched_pairs_refused(self):
        with pytest.raises(ValueError, match="mismatched"):
            compute_metrics([(_fake_result(0, False, 9), _fake_result(1, True, 9))])
        with pytest.raises(ValueError, match="pair must be"):
            compute_metrics([(_fake_result(0, True, 9), _fake_result(0, False, 9))])

    def test_nonzero_harvest_on_baseline_refused(self):
        bad = _fake_result(0, False, 9)
        bad.harvested_wh[0, 0] = 5.0
        with pytest.raises(ValueError, match="nonzero harvest"):
            compute_metrics([(bad, _fake_result(0, True, 9))])

    def test_metrics_against_real_pair(self, small_pair):
        metrics = compute_metrics([small_pair])
        for name in metrics.season_names:
            s = metrics.seasons[name]
            assert 0.0 <= s.arec_percent <= 100.0
            assert s.anuc_with_res <= s.anuc_no_res
        ordered = [metrics.seasons[n].total_harvest_wh
                   for n in ("summer", "spring", "autumn", "winter")]
        assert ordered == sorted(ordered, reverse=True)
