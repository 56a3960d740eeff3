"""Shared helpers for building tiny design instances, checking assignment
validity and stepping one station through a day."""

import datetime

import solarran  # noqa: F401 - before numpy, so that OpenBLAS starts no thread
import numpy as np

from solarran.design import network_config
from solarran.energy import Equipment
from solarran.engine import run_network
from solarran.radio import Position, link_table
from solarran.scenario import (MINUTES_PER_DAY, AccessNode, Scenario,
                               UserTerminal, WeatherSeries)


def make_node(nid, x, y, z=50.0):
    return AccessNode(node_id=nid, position=Position(x, y, z))


def make_user(uid, x, y, z=1.5):
    return UserTerminal(user_id=uid, position=Position(x, y, z))


def one_station_day(equipment=Equipment(), ghi_wm2=0.0, temp_c=20.0,
                    tx_power_dbm=None, served=0):
    """The PairResult of run_network for one station, node 0, with equipment
    over one day; the weather is per-minute arrays or one value for every
    minute, and tx_power_dbm is None for a sleeping cell."""
    weather = WeatherSeries(*(np.broadcast_to(v, MINUTES_PER_DAY)
                              for v in (ghi_wm2, temp_c)))
    node = make_node(0, 0.0, 0.0)
    levels = {} if tx_power_dbm is None else {node.node_id: tx_power_dbm}
    network = network_config((node,), levels, {u: (node.node_id, 1, 1)
                                               for u in range(served)},
                             equipment)
    scenario = Scenario(nodes=(node,), equipment=equipment,
                        dates=(datetime.date(2022, 6, 21),))
    return run_network(scenario, weather, seed=0, network=network)


def candidate_links(nodes, users, params, dl, ul):
    """The arrays of link_table as a dict keyed (node_id, user_id, level_dbm)
    of (feasible, prbs_dl, prbs_ul), nodes and users in ascending id order
    and levels in the radio's order."""
    nodes = sorted(nodes, key=lambda n: n.node_id)
    users = sorted(users, key=lambda u: u.user_id)
    feasible, prbs_dl, prbs_ul = link_table(
        [(n.position.x, n.position.y, n.position.z) for n in nodes],
        [(u.position.x, u.position.y, u.position.z) for u in users],
        params, dl, ul)
    return {(node.node_id, user.user_id, level): (bool(feasible[n, u, k]),
                                                  int(prbs_dl[n, u, k]),
                                                  int(prbs_ul[n, u, k]))
            for n, node in enumerate(nodes)
            for u, user in enumerate(users)
            for k, level in enumerate(params.power_levels_dbm)}


def check_assignment_valid(config, nodes, users, params, dl, ul):
    """Assignment invariants: links feasible at the final level, loads within
    budget, one node per user, loads as to_dict reports them."""
    links = candidate_links(nodes, users, params, dl, ul)
    levels = {c.node_id: c.tx_power_dbm for c in config.cells if c.active}
    loads = {}
    for uid, (nid, prbs_dl, prbs_ul) in config.users.items():
        assert nid in levels, f"user {uid} assigned to inactive node {nid}"
        assert links[(nid, uid, levels[nid])] == (True, prbs_dl, prbs_ul)
        loads[nid] = loads.get(nid, 0) + prbs_dl + prbs_ul
    for nid, load in loads.items():
        assert load <= params.total_prbs
    assert config.to_dict()["node_loads"] == {str(nid): loads[nid]
                                              for nid in sorted(loads)}


def check_local_minimality(config, nodes, users, params, dl, ul):
    """No active cell can drop a level (or be switched off) without losing
    coverage or breaking feasibility."""
    links = candidate_links(nodes, users, params, dl, ul)
    members = {}
    for uid, (nid, _, _) in config.users.items():
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
