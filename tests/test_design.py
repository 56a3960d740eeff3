"""Tests for the cell-activation heuristic and its exhaustive reference."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (candidate_links, check_assignment_valid,
                      check_local_minimality, make_node as node,
                      make_user as user)
from solarran import design
from solarran.design import (InstanceTooLargeError, _first_fit, _fit_rows,
                             brute_force_design, greedy_design,
                             network_config)
from solarran.energy import (Equipment, ris_power, station_power_w,
                             uav_hover_power)
from solarran.radio import MAX_TOTAL_PRBS, RadioParams
from solarran.scenario import (Scenario, default_node_grid, place_users,
                               scenario_from_dict)
from test_design_golden import dense_config

PARAMS = RadioParams()
EQUIPMENT = Equipment()


class TestEnumerateCandidates:
    def test_no_users_empty_table(self):
        assert candidate_links([node(0, 0, 0)], [], PARAMS, 100, 25) == {}

    def test_adjacent_user_feasible_at_every_level(self):
        links = candidate_links([node(0, 0, 0, 50)], [user(0, 0, 0)],
                                PARAMS, 100, 25)
        assert len(links) == 3
        rows = [links[(0, 0, lvl)] for lvl in PARAMS.power_levels_dbm]
        assert all(feasible for feasible, _, _ in rows)
        # SE cap engaged at every level, so the block demand is identical
        assert len({(dl, ul) for _, dl, ul in rows}) == 1

    def test_out_of_range_user_never_feasible(self):
        links = candidate_links([node(0, 0, 0, 50)], [user(0, 9000, 9000)],
                                PARAMS, 100, 25)
        assert not any(feasible for feasible, _, _ in links.values())


def full_first_fit(costs, capacity, taken):
    """First-fit over every position, with no early stop."""
    admitted, remaining = [], capacity
    for u, blocks in enumerate(costs):
        if not taken[u] and blocks <= remaining:
            admitted.append(u)
            remaining -= blocks
    return admitted


@st.composite
def scan_instances(draw):
    """A row of whole block costs (capacity + 1 marks an infeasible link, as
    in greedy_design), its capacity, the users already taken and users to
    take next."""
    capacity = draw(st.integers(0, 40))
    costs = draw(st.lists(st.integers(0, capacity + 1), max_size=30))
    flags = st.lists(st.booleans(), min_size=len(costs), max_size=len(costs))
    return costs, capacity, draw(flags), draw(flags)


class TestFirstFit:
    @settings(max_examples=300, deadline=None)
    @given(scan_instances())
    @example(([5, 5], 10, [False, False], [False, False]))
    def test_scan_is_a_full_first_fit_that_ignores_users_it_passed_over(
            self, instance):
        costs, capacity, taken, take_next = instance
        [row] = _fit_rows(np.array([costs], dtype=float), capacity)
        admitted = _first_fit(row, capacity, taken)
        assert admitted == full_first_fit(costs, capacity, taken)
        # the invariant greedy_design's cache rests on
        passed_over = [t or (drop and u not in admitted)
                       for u, (t, drop) in enumerate(zip(taken, take_next))]
        assert _first_fit(row, capacity, passed_over) == admitted

    def test_taking_an_admitted_user_can_admit_more(self):
        # an expensive early user fills the cell; once another cell takes
        # it, the cheap ones behind it fit, so such a row must be re-scored
        costs = [10, 1, 1, 1, 11]
        [row] = _fit_rows(np.array([costs], dtype=float), 10)
        assert row == ([0, 1, 2, 3], [10, 1, 1, 1], [1, 1, 1, 1])
        assert _first_fit(row, 10, [False] * 5) == [0]
        assert _first_fit(row, 10, [True] + [False] * 4) == [1, 2, 3]


@st.composite
def cost_blocks(draw):
    """A (rows, users) array of whole block costs, as greedy_design builds
    for a block of nodes (capacity + 1 marks an infeasible link), in float64
    or its narrowest dtype, and its capacity."""
    capacity = draw(st.integers(0, 40))
    n_users = draw(st.integers(0, 12))
    row = st.lists(st.integers(0, capacity + 1), min_size=n_users,
                   max_size=n_users)
    rows = draw(st.lists(row, max_size=6))
    dtype = draw(st.sampled_from([np.float64, np.min_scalar_type(capacity + 1)]))
    return np.array(rows, dtype=dtype).reshape(len(rows), n_users), capacity


@settings(max_examples=300, deadline=None)
@given(cost_blocks())
def test_fit_rows_are_each_rows_own(block):
    cost, capacity = block
    want = []
    for row in cost.tolist():
        fits = [u for u, c in enumerate(row) if c <= capacity]
        blocks = [int(row[u]) for u in fits]
        want.append((fits, blocks, [min(blocks[i:]) for i in range(len(blocks))]))
    assert _fit_rows(cost, capacity) == want


class TestGreedyDesign:
    def test_no_users_everything_sleeps(self):
        nodes = [node(0, 0, 0), node(1, 800, 0)]
        config = greedy_design(nodes, [], PARAMS, 100, 25)
        assert config.covered_count == 0
        assert not any(c.active for c in config.cells)
        expected = sum(uav_hover_power(EQUIPMENT.airframe) + ris_power(EQUIPMENT.ris)
                       + EQUIPMENT.mimo.sleep_power for n in nodes)
        assert config.total_power_w == pytest.approx(expected)

    def test_single_cell_trims_to_lowest_sufficient_level(self):
        # five users huddled under the station: feasible at 28 dBm, so the
        # trim pass must land there, in agreement with the exhaustive search
        nodes = [node(0, 0, 0)]
        users = [user(i, 10 * i, 5) for i in range(5)]
        config = greedy_design(nodes, users, PARAMS, 100, 25)
        assert config.covered_count == 5
        assert config.cells[0].active
        assert config.cells[0].tx_power_dbm == 28.0
        oracle = brute_force_design(nodes, users, PARAMS, 100, 25, EQUIPMENT)
        assert oracle.covered_count == 5
        assert config.total_power_w == pytest.approx(oracle.total_power_w)

    def test_two_clusters_two_nodes(self):
        nodes = [node(0, 0, 0), node(1, 2500, 0)]
        users = [user(0, 20, 0), user(1, -35, 10),
                 user(2, 2480, 5), user(3, 2530, -10)]
        config = greedy_design(nodes, users, PARAMS, 100, 25)
        assert config.covered_count == 4
        assert all(c.active for c in config.cells)
        by_node = {}
        for uid, (nid, _, _) in config.users.items():
            by_node.setdefault(nid, set()).add(uid)
        assert by_node == {0: {0, 1}, 1: {2, 3}}
        check_assignment_valid(config, nodes, users, PARAMS, 100, 25)

    def test_total_power_is_the_sum_of_station_power(self):
        sc = Scenario(user_count=5)
        config = greedy_design(sc.nodes, place_users(sc, 42), sc.radio,
                               sc.dl_rate_mbps, sc.ul_rate_mbps)
        assert {c.active for c in config.cells} == {True, False}
        served = Counter(nid for nid, _, _ in config.users.values())
        total = 0.0
        for cell, power_w in zip(config.cells, config.power_w, strict=True):
            hover, mimo, ris = station_power_w(sc.equipment, cell.tx_power_dbm,
                                               served[cell.node_id])
            assert power_w == (hover, mimo, ris)
            total += hover + ris
            total += mimo
        assert total == config.total_power_w

    def test_deterministic_byte_for_byte(self):
        nodes = [node(i, 700 * i, 300 * (i % 2)) for i in range(3)]
        users = [user(i, 150 * i, 100 + 40 * i) for i in range(8)]
        a = greedy_design(nodes, users, PARAMS, 100, 25)
        b = greedy_design(list(reversed(nodes)), list(reversed(users)),
                          PARAMS, 100, 25)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_feasible_and_locally_minimal_on_random_instances(self, data):
        n_nodes = data.draw(st.integers(1, 3))
        n_users = data.draw(st.integers(0, 8))
        nodes = [node(i,
                      data.draw(st.floats(0, 1500)),
                      data.draw(st.floats(0, 1500)))
                 for i in range(n_nodes)]
        users = [user(i,
                      data.draw(st.floats(0, 1500)),
                      data.draw(st.floats(0, 1500)))
                 for i in range(n_users)]
        dl = data.draw(st.sampled_from([25.0, 50.0, 100.0]))
        ul = data.draw(st.sampled_from([5.0, 25.0]))
        config = greedy_design(nodes, users, PARAMS, dl, ul)
        check_assignment_valid(config, nodes, users, PARAMS, dl, ul)
        check_local_minimality(config, nodes, users, PARAMS, dl, ul)

    def test_a_cell_whose_users_are_all_taken_sleeps(self):
        # either station alone covers all three users; once node 0 takes
        # them, every scan of node 1 admits nobody
        nodes = [node(0, 0, 0), node(1, 100, 0)]
        users = [user(i, 50, 10 * i) for i in range(3)]
        assert greedy_design(nodes[1:], users, PARAMS, 100, 25).covered_count == 3
        config = greedy_design(nodes, users, PARAMS, 100, 25)
        assert config.covered_count == 3
        assert [c.tx_power_dbm for c in config.cells] == [28.0, None]

    def test_users_out_of_reach_leave_every_cell_asleep(self):
        nodes = [node(0, 0, 0), node(1, 100, 0)]
        users = [user(i, 100_000, 10 * i) for i in range(3)]
        config = greedy_design(nodes, users, PARAMS, 100, 25)
        assert config.covered_count == 0
        assert not any(c.active for c in config.cells)

    # _first_fit calls of the golden designs' instances
    @pytest.mark.parametrize("config, seed, calls", [
        ("dense", 7, 2043), ("default", 42, 34), ("default", 43, 35)])
    def test_a_row_is_scanned_again_only_once_a_user_it_admitted_is_taken(
            self, monkeypatch, config, seed, calls):
        scans = []  # (row's id, taken as bytes, admitted) of each call

        def recording(row, capacity, taken):
            admitted = _first_fit(row, capacity, taken)
            scans.append((id(row), bytes(taken), admitted))
            return admitted

        monkeypatch.setattr(design, "_first_fit", recording)
        sc = scenario_from_dict(dense_config() if config == "dense" else {})
        greedy_design(sc.nodes, place_users(sc, seed), sc.radio,
                      sc.dl_rate_mbps, sc.ul_rate_mbps)
        last = {}
        for row, taken, admitted in scans:
            if row in last:
                assert any(taken[u] for u in last[row])
            last[row] = admitted
        assert len(scans) == calls


class TestNetworkConfig:
    def test_facts_follow_from_levels_and_users(self):
        nodes = [node(1, 800, 0), node(0, 0, 0)]
        config = network_config(nodes, {1: 34.0}, {5: (1, 3, 1), 2: (1, 2, 2)},
                                EQUIPMENT)
        assert [(c.node_id, c.active, c.tx_power_dbm)
                for c in config.cells] == [(0, False, None), (1, True, 34.0)]
        assert list(config.users) == [2, 5]
        assert config.covered_count == 2
        assert config.to_dict()["node_loads"] == {"1": 8}

    def test_user_of_a_sleeping_cell_refused(self):
        with pytest.raises(ValueError, match="user 3 is assigned to node 1, "
                                             "which has no active cell"):
            network_config([node(0, 0, 0), node(1, 800, 0)], {0: 28.0},
                           {3: (1, 2, 2)}, EQUIPMENT)

    def test_level_of_a_node_not_in_nodes_refused(self):
        with pytest.raises(ValueError, match="node 99 has a level but is not "
                                             "in nodes"):
            network_config(default_node_grid(), {99: 28.0}, {0: (99, 1, 1)},
                           EQUIPMENT)


class TestBruteForce:
    def test_zero_nodes(self):
        config = brute_force_design([], [user(0, 0, 0)], PARAMS, 100, 25, EQUIPMENT)
        assert config.covered_count == 0
        assert config.total_power_w == 0.0

    def test_single_feasible_configuration(self):
        nodes = [node(0, 0, 0)]
        users = [user(0, 5, 5)]
        config = brute_force_design(nodes, users, PARAMS, 100, 25, EQUIPMENT)
        assert config.covered_count == 1
        assert config.cells[0].active
        assert config.cells[0].tx_power_dbm == 28.0

    def test_capacity_forces_far_node(self):
        # tight block budget: each user consumes 18 blocks for 50 Mb/s at the
        # SE cap, so one 20-block cell holds only one user; covering both
        # requires the farther station
        params = RadioParams(total_prbs=20)
        nodes = [node(0, 0, 0, 50), node(1, 200, 0, 50)]
        users = [user(0, 2, 0), user(1, 8, 0)]
        config = brute_force_design(nodes, users, params, 50.0, 0.0, EQUIPMENT)
        assert config.covered_count == 2
        assert all(c.active for c in config.cells)

    def test_refuses_large_instances(self):
        nodes = [node(i, 100 * i, 0) for i in range(5)]
        with pytest.raises(InstanceTooLargeError):
            brute_force_design(nodes, [], PARAMS, 100, 25, EQUIPMENT)
        users = [user(i, 10 * i, 0) for i in range(11)]
        with pytest.raises(InstanceTooLargeError):
            brute_force_design([node(0, 0, 0)], users, PARAMS, 100, 25, EQUIPMENT)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_greedy_never_beats_oracle(self, data):
        params = RadioParams(total_prbs=data.draw(st.sampled_from(
            [40, 80, 255, 273, 65_535, MAX_TOTAL_PRBS])))
        n_nodes = data.draw(st.integers(1, 3))
        n_users = data.draw(st.integers(1, 6))
        nodes = [node(i, data.draw(st.floats(0, 1200)),
                      data.draw(st.floats(0, 1200))) for i in range(n_nodes)]
        users = [user(i, data.draw(st.floats(0, 1200)),
                      data.draw(st.floats(0, 1200))) for i in range(n_users)]
        greedy = greedy_design(nodes, users, params, 50.0, 10.0)
        oracle = brute_force_design(nodes, users, params, 50.0, 10.0, EQUIPMENT)
        assert greedy.covered_count <= oracle.covered_count
        if greedy.covered_count == oracle.covered_count:
            assert greedy.total_power_w >= oracle.total_power_w - 1e-9
