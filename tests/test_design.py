"""Tests for the cell-activation heuristic and its exhaustive reference."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from solarran.design import (InstanceTooLargeError, brute_force_design,
                             enumerate_candidates, greedy_design,
                             served_counts, station_power_w)
from solarran.energy import ris_power, uav_hover_power
from solarran.radio import Position, RadioParams
from solarran.scenario import AccessNode, Scenario, UserTerminal, place_users

PARAMS = RadioParams()


def node(nid, x, y, z=50.0):
    return AccessNode(node_id=nid, position=Position(x, y, z))


def user(uid, x, y, z=1.5):
    return UserTerminal(user_id=uid, position=Position(x, y, z))


def check_assignment_valid(config, nodes, users, params, dl, ul):
    """Assignment invariants: links feasible at the final level, loads within
    budget, one node per user."""
    table = enumerate_candidates(nodes, users, params, dl, ul)
    levels = {c.node_id: c.tx_power_dbm for c in config.cells if c.active}
    loads = {}
    for uid, (nid, prbs_dl, prbs_ul) in config.assignment.users.items():
        assert nid in levels, f"user {uid} assigned to inactive node {nid}"
        link = table[(nid, uid, levels[nid])]
        assert link.feasible
        assert (prbs_dl, prbs_ul) == (link.prbs_dl, link.prbs_ul)
        loads[nid] = loads.get(nid, 0) + prbs_dl + prbs_ul
    for nid, load in loads.items():
        assert load <= params.total_prbs
        assert config.assignment.node_loads[nid] == load
    assert config.covered_count == len(config.assignment.users)


class TestEnumerateCandidates:
    def test_no_users_empty_table(self):
        assert enumerate_candidates([node(0, 0, 0)], [], PARAMS, 100, 25) == {}

    def test_adjacent_user_feasible_at_every_level(self):
        table = enumerate_candidates([node(0, 0, 0, 50)], [user(0, 0, 0)],
                                     PARAMS, 100, 25)
        assert len(table) == 3
        rows = [table[(0, 0, lvl)] for lvl in PARAMS.power_levels_dbm]
        assert all(r.feasible for r in rows)
        # SE cap engaged at every level, so the block demand is identical
        assert len({(r.prbs_dl, r.prbs_ul) for r in rows}) == 1

    def test_out_of_range_user_never_feasible(self):
        table = enumerate_candidates([node(0, 0, 0, 50)], [user(0, 9000, 9000)],
                                     PARAMS, 100, 25)
        assert not any(r.feasible for r in table.values())


class TestGreedyDesign:
    def test_no_users_everything_sleeps(self):
        nodes = [node(0, 0, 0), node(1, 800, 0)]
        config = greedy_design(nodes, [], PARAMS, 100, 25)
        assert config.covered_count == 0
        assert not any(c.active for c in config.cells)
        expected = sum(uav_hover_power(n.airframe) + ris_power(n.ris)
                       + n.mimo.sleep_power for n in nodes)
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
        oracle = brute_force_design(nodes, users, PARAMS, 100, 25)
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
        for uid, (nid, _, _) in config.assignment.users.items():
            by_node.setdefault(nid, set()).add(uid)
        assert by_node == {0: {0, 1}, 1: {2, 3}}
        check_assignment_valid(config, nodes, users, PARAMS, 100, 25)

    def test_total_power_is_the_sum_of_station_power(self):
        sc = Scenario(user_count=5)
        config = greedy_design(sc.nodes, place_users(sc, 42), sc.radio,
                               sc.dl_rate_mbps, sc.ul_rate_mbps)
        assert {c.active for c in config.cells} == {True, False}
        served = served_counts(config.assignment.users)
        by_id = {n.node_id: n for n in sc.nodes}
        total = 0.0
        for cell in config.cells:
            hover, mimo, ris = station_power_w(by_id[cell.node_id],
                                               cell.tx_power_dbm,
                                               served.get(cell.node_id, 0))
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

        # local minimality
        table = enumerate_candidates(nodes, users, PARAMS, dl, ul)
        members = {}
        for uid, (nid, _, _) in config.assignment.users.items():
            members.setdefault(nid, []).append(uid)
        for cell in config.cells:
            if not cell.active:
                continue
            # deactivating loses that cell's users
            assert len(members[cell.node_id]) >= 1
            # one level down breaks feasibility for the same user set
            idx = PARAMS.power_levels_dbm.index(cell.tx_power_dbm)
            if idx == 0:
                continue
            lower = PARAMS.power_levels_dbm[idx - 1]
            links = [table[(cell.node_id, uid, lower)]
                     for uid in members[cell.node_id]]
            broken = (not all(l.feasible for l in links)
                      or sum(l.total_prbs for l in links) > PARAMS.total_prbs)
            assert broken, (f"node {cell.node_id} could run at {lower} dBm "
                            f"but was left at {cell.tx_power_dbm}")


class TestBruteForce:
    def test_zero_nodes(self):
        config = brute_force_design([], [user(0, 0, 0)], PARAMS, 100, 25)
        assert config.covered_count == 0
        assert config.total_power_w == 0.0

    def test_single_feasible_configuration(self):
        nodes = [node(0, 0, 0)]
        users = [user(0, 5, 5)]
        config = brute_force_design(nodes, users, PARAMS, 100, 25)
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
        config = brute_force_design(nodes, users, params, 50.0, 0.0)
        assert config.covered_count == 2
        assert all(c.active for c in config.cells)

    def test_refuses_large_instances(self):
        nodes = [node(i, 100 * i, 0) for i in range(5)]
        with pytest.raises(InstanceTooLargeError):
            brute_force_design(nodes, [], PARAMS, 100, 25)
        users = [user(i, 10 * i, 0) for i in range(11)]
        with pytest.raises(InstanceTooLargeError):
            brute_force_design([node(0, 0, 0)], users, PARAMS, 100, 25)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_greedy_never_beats_oracle(self, data):
        params = RadioParams(total_prbs=data.draw(st.sampled_from([40, 80, 273])))
        n_nodes = data.draw(st.integers(1, 3))
        n_users = data.draw(st.integers(1, 6))
        nodes = [node(i, data.draw(st.floats(0, 1200)),
                      data.draw(st.floats(0, 1200))) for i in range(n_nodes)]
        users = [user(i, data.draw(st.floats(0, 1200)),
                      data.draw(st.floats(0, 1200))) for i in range(n_users)]
        greedy = greedy_design(nodes, users, params, 50.0, 10.0)
        oracle = brute_force_design(nodes, users, params, 50.0, 10.0)
        assert greedy.covered_count <= oracle.covered_count
        if greedy.covered_count == oracle.covered_count:
            assert greedy.total_power_w >= oracle.total_power_w - 1e-9
