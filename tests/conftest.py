"""Shared helpers for building tiny design instances, checking assignment
validity and stepping one station through a day."""

import datetime

import numpy as np

from solarran.design import (Assignment, CellConfig, NetworkConfig,
                             enumerate_candidates)
from solarran.engine import run_network
from solarran.radio import Position
from solarran.scenario import (MINUTES_PER_DAY, AccessNode, Scenario,
                               UserTerminal, WeatherSeries)


def make_node(nid, x, y, z=50.0):
    return AccessNode(node_id=nid, position=Position(x, y, z))


def make_user(uid, x, y, z=1.5):
    return UserTerminal(user_id=uid, position=Position(x, y, z))


def one_station_day(node, ghi_wm2=0.0, temp_c=20.0, tx_power_dbm=None,
                    served=0):
    """The PairResult of run_network for one station over one day; the weather
    is per-minute arrays or one value for every minute, and tx_power_dbm is
    None for a sleeping cell."""
    weather = WeatherSeries(*(np.broadcast_to(v, MINUTES_PER_DAY)
                              for v in (ghi_wm2, temp_c)))
    network = NetworkConfig(
        cells=(CellConfig(node.node_id, tx_power_dbm is not None, tx_power_dbm),),
        assignment=Assignment(users={u: (node.node_id, 1, 1)
                                     for u in range(served)}, node_loads={}),
        covered_count=served, total_power_w=0.0)
    scenario = Scenario(nodes=(node,), dates=(datetime.date(2022, 6, 21),))
    return run_network(scenario, weather, seed=0, network=network)


def candidate_links(nodes, users, params, dl, ul):
    """The arrays of enumerate_candidates as a dict keyed (node_id, user_id,
    level_dbm) of (feasible, prbs_dl, prbs_ul), in the table's node, user
    and level order."""
    table = enumerate_candidates(nodes, users, params, dl, ul)
    return {(nid, uid, level): (bool(table.feasible[n, u, k]),
                                int(table.prbs_dl[n, u, k]),
                                int(table.prbs_ul[n, u, k]))
            for n, nid in enumerate(table.node_ids)
            for u, uid in enumerate(table.user_ids)
            for k, level in enumerate(params.power_levels_dbm)}


def check_assignment_valid(config, nodes, users, params, dl, ul):
    """Assignment invariants: links feasible at the final level, loads within
    budget, one node per user, consistent bookkeeping."""
    links = candidate_links(nodes, users, params, dl, ul)
    levels = {c.node_id: c.tx_power_dbm for c in config.cells if c.active}
    loads = {}
    for uid, (nid, prbs_dl, prbs_ul) in config.assignment.users.items():
        assert nid in levels, f"user {uid} assigned to inactive node {nid}"
        assert links[(nid, uid, levels[nid])] == (True, prbs_dl, prbs_ul)
        loads[nid] = loads.get(nid, 0) + prbs_dl + prbs_ul
    for nid, load in loads.items():
        assert load <= params.total_prbs
        assert config.assignment.node_loads[nid] == load
    assert config.covered_count == len(config.assignment.users)


def check_local_minimality(config, nodes, users, params, dl, ul):
    """No active cell can drop a level (or be switched off) without losing
    coverage or breaking feasibility."""
    links = candidate_links(nodes, users, params, dl, ul)
    members = {}
    for uid, (nid, _, _) in config.assignment.users.items():
        members.setdefault(nid, []).append(uid)
    for cell in config.cells:
        if not cell.active:
            continue
        assert len(members.get(cell.node_id, [])) >= 1, \
            f"active node {cell.node_id} serves nobody"
        idx = params.power_levels_dbm.index(cell.tx_power_dbm)
        if idx == 0:
            continue
        lower = params.power_levels_dbm[idx - 1]
        lowered = [links[(cell.node_id, uid, lower)]
                   for uid in members[cell.node_id]]
        broken = (not all(feasible for feasible, _, _ in lowered)
                  or sum(dl + ul for _, dl, ul in lowered) > params.total_prbs)
        assert broken, (f"node {cell.node_id} could run at {lower} dBm "
                        f"but was left at {cell.tx_power_dbm}")
