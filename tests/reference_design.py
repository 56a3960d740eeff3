"""Test-only oracle: the loop greedy designer over a dict of scalar links.

This is the per-link, per-user greedy that design.greedy_design replaced
with array code. It builds its candidate table with the scalar
reference_radio.link_feasible, one (node, user, level) at a time, so it
shares no array code with the production designer; the equivalence tests
hold greedy_design to it NetworkConfig for NetworkConfig.
"""

from __future__ import annotations

from typing import Sequence

from reference_radio import link_feasible
from solarran.design import NetworkConfig, network_config
from solarran.energy import Equipment, mimo_power
from solarran.radio import RadioParams
from solarran.scenario import AccessNode, UserTerminal


def reference_candidates(nodes: Sequence[AccessNode],
                         users: Sequence[UserTerminal],
                         params: RadioParams,
                         dl_rate_mbps: float,
                         ul_rate_mbps: float
                         ) -> dict[tuple[int, int, float], tuple[bool, int, int]]:
    """Evaluate every (node, user, power level) link once with the scalar
    link budget: (feasible, prbs_dl, prbs_ul) keyed (node_id, user_id,
    level_dbm)."""
    table: dict[tuple[int, int, float], tuple[bool, int, int]] = {}
    for node in sorted(nodes, key=lambda n: n.node_id):
        for user in sorted(users, key=lambda u: u.user_id):
            for level in params.power_levels_dbm:
                table[(node.node_id, user.user_id, level)] = link_feasible(
                    node.position, user.position, level, params,
                    dl_rate_mbps, ul_rate_mbps)
    return table


def _admit_users(table, node_id: int, level: float, candidates: Sequence[int],
                 capacity: int) -> tuple[list[int], int]:
    """Greedily admit users (in the given id order) while blocks remain."""
    admitted = []
    remaining = capacity
    for uid in candidates:
        feasible, dl, ul = table[(node_id, uid, level)]
        if feasible and dl + ul <= remaining:
            admitted.append(uid)
            remaining -= dl + ul
    return admitted, capacity - remaining


def reference_greedy(nodes: Sequence[AccessNode], users: Sequence[UserTerminal],
                     params: RadioParams, dl_rate_mbps: float,
                     ul_rate_mbps: float,
                     equipment: Equipment = Equipment()) -> NetworkConfig:
    """Coverage-first greedy activation with a power-trim pass (see
    design.greedy_design for the rules), every station carrying
    equipment."""
    node_list = sorted(nodes, key=lambda n: n.node_id)
    table = reference_candidates(node_list, users, params, dl_rate_mbps, ul_rate_mbps)

    unassigned = sorted(u.user_id for u in users)
    active: dict[int, float] = {}
    assigned: dict[int, tuple[int, int, int]] = {}
    node_users: dict[int, list[int]] = {}

    while True:
        best_key = None
        best_pick = None
        for node in node_list:
            if node.node_id in active:
                continue
            for level in params.power_levels_dbm:
                admitted, _ = _admit_users(table, node.node_id, level,
                                           unassigned, params.total_prbs)
                if not admitted:
                    continue
                added_power = (mimo_power(equipment.mimo, level, len(admitted))
                               - equipment.mimo.sleep_power)
                key = (-len(admitted), added_power, node.node_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pick = (node.node_id, level, admitted)
        if best_pick is None:
            break
        node_id, level, admitted = best_pick
        active[node_id] = level
        node_users[node_id] = admitted
        for uid in admitted:
            _, dl, ul = table[(node_id, uid, level)]
            assigned[uid] = (node_id, dl, ul)
            unassigned.remove(uid)

    for node_id in sorted(active):
        members = node_users[node_id]
        for level in params.power_levels_dbm:
            links = [table[(node_id, uid, level)] for uid in members]
            if (all(feasible for feasible, _, _ in links)
                    and sum(dl + ul for _, dl, ul in links) <= params.total_prbs):
                active[node_id] = level
                for uid, (_, dl, ul) in zip(members, links):
                    assigned[uid] = (node_id, dl, ul)
                break

    return network_config(node_list, active, assigned, equipment)
