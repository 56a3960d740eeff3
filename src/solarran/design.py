"""Cell activation and power assignment.

Given fixed station positions and one snapshot of users, decide which cells
transmit and at which discrete power level so that as many users as
possible are served within each cell's resource-block budget, then shave
transmit power. greedy_design is the production heuristic;
brute_force_design is the exhaustive reference for small instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import mimo_power, ris_power, uav_hover_power
from .radio import RadioParams, link_feasible, link_table
from .scenario import AccessNode, UserTerminal


class InstanceTooLargeError(ValueError):
    """The exhaustive search would not finish in reasonable time."""


MAX_ORACLE_NODES = 4
MAX_ORACLE_USERS = 10


@dataclass(frozen=True)
class CandidateLink:
    feasible: bool
    prbs_dl: int
    prbs_ul: int

    @property
    def total_prbs(self) -> int:
        return self.prbs_dl + self.prbs_ul


@dataclass(frozen=True)
class CellConfig:
    node_id: int
    active: bool
    tx_power_dbm: Optional[float]  # None when inactive


@dataclass(frozen=True)
class Assignment:
    """user_id -> (node_id, prbs_dl, prbs_ul), plus per-node block totals."""

    users: dict[int, tuple[int, int, int]]
    node_loads: dict[int, int]

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class NetworkConfig:
    cells: tuple[CellConfig, ...]
    assignment: Assignment
    covered_count: int
    total_power_w: float

    def to_dict(self) -> dict:
        """Stable dictionary form; equal configs serialize byte-identically."""
        return {
            "cells": [{"node_id": c.node_id, "active": c.active,
                       "tx_power_dbm": c.tx_power_dbm}
                      for c in sorted(self.cells, key=lambda c: c.node_id)],
            "assignment": {str(uid): list(self.assignment.users[uid])
                           for uid in sorted(self.assignment.users)},
            "node_loads": {str(nid): self.assignment.node_loads[nid]
                           for nid in sorted(self.assignment.node_loads)},
            "covered_count": self.covered_count,
            "total_power_w": self.total_power_w,
        }


class CandidateTable(Mapping):
    """Every (node, user, power level) link of a network as arrays.

    feasible, prbs_dl and prbs_ul are shaped (nodes, users, levels), with
    nodes and users in ascending id order and levels in ladder order; the
    block counts are whole float64 numbers. As a mapping it is keyed
    (node_id, user_id, level_dbm), iterates in that ascending order, and
    builds each CandidateLink on access.
    """

    def __init__(self, node_ids: Sequence[int], user_ids: Sequence[int],
                 levels: Sequence[float], feasible: np.ndarray,
                 prbs_dl: np.ndarray, prbs_ul: np.ndarray):
        self.node_ids = tuple(node_ids)
        self.user_ids = tuple(user_ids)
        self.levels = tuple(levels)
        self.feasible = feasible
        self.prbs_dl = prbs_dl
        self.prbs_ul = prbs_ul
        self._node = {nid: i for i, nid in enumerate(self.node_ids)}
        self._user = {uid: j for j, uid in enumerate(self.user_ids)}
        self._level = {lvl: k for k, lvl in enumerate(self.levels)}

    def link(self, n: int, u: int, lvl: int) -> CandidateLink:
        """The link at array position (node n, user u, level lvl)."""
        return CandidateLink(bool(self.feasible[n, u, lvl]),
                             int(self.prbs_dl[n, u, lvl]),
                             int(self.prbs_ul[n, u, lvl]))

    def __getitem__(self, key: tuple[int, int, float]) -> CandidateLink:
        node_id, user_id, level = key
        try:
            return self.link(self._node[node_id], self._user[user_id],
                             self._level[level])
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self):
        return ((nid, uid, lvl) for nid in self.node_ids
                for uid in self.user_ids for lvl in self.levels)

    def __len__(self) -> int:
        return self.feasible.size


def enumerate_candidates(nodes: Sequence[AccessNode],
                         users: Sequence[UserTerminal],
                         params: RadioParams,
                         dl_rate_mbps: float,
                         ul_rate_mbps: float) -> CandidateTable:
    """Evaluate every (node, user, power level) link once, with
    radio.link_table; its boundary entries go through link_feasible."""
    node_list = sorted(nodes, key=lambda n: n.node_id)
    user_list = sorted(users, key=lambda u: u.user_id)
    feasible, prbs_dl, prbs_ul = link_table(
        [(n.position.x, n.position.y, n.position.z) for n in node_list],
        [(u.position.x, u.position.y, u.position.z) for u in user_list],
        params, dl_rate_mbps, ul_rate_mbps, fallback=link_feasible)
    return CandidateTable([n.node_id for n in node_list],
                          [u.user_id for u in user_list],
                          params.power_levels_dbm, feasible, prbs_dl, prbs_ul)


def station_power_w(node: AccessNode, tx_power_dbm: Optional[float],
                    served_users: int) -> tuple[float, float, float]:
    """Hover, transceiver and reflective-surface draw [W] of one station;
    tx_power_dbm is None for a sleeping cell, as in CellConfig."""
    active = tx_power_dbm is not None
    return (uav_hover_power(node.airframe),
            mimo_power(node.mimo, active, served_users,
                       tx_power_dbm if active else 0.0),
            ris_power(node.ris))


def served_counts(users: dict[int, tuple[int, int, int]]) -> dict[int, int]:
    """Users per serving node of an assignment map (user_id -> (node_id,
    prbs_dl, prbs_ul)); nodes serving nobody are absent."""
    served: dict[int, int] = {}
    for nid, _, _ in users.values():
        served[nid] = served.get(nid, 0) + 1
    return served


def _network_config(nodes: Sequence[AccessNode], active: dict[int, float],
                    users: dict[int, tuple[int, int, int]]) -> NetworkConfig:
    """The NetworkConfig of a design: active levels by node id and the
    assignment map; nodes must be in ascending id order."""
    served = served_counts(users)
    total_power = 0.0
    for node in nodes:
        hover, mimo, ris = station_power_w(node, active.get(node.node_id),
                                           served.get(node.node_id, 0))
        total_power += hover + ris  # this order keeps total_power_w's bits
        total_power += mimo
    loads: dict[int, int] = {}
    for nid, dl, ul in users.values():
        loads[nid] = loads.get(nid, 0) + dl + ul
    cells = tuple(CellConfig(node_id=n.node_id, active=n.node_id in active,
                             tx_power_dbm=active.get(n.node_id))
                  for n in nodes)
    return NetworkConfig(cells=cells,
                         assignment=Assignment(users=dict(sorted(users.items())),
                                               node_loads=dict(sorted(loads.items()))),
                         covered_count=len(users),
                         total_power_w=total_power)


def _admit_users(cost: np.ndarray, capacity: int) -> np.ndarray:
    """Positions of cost that a first-fit scan in order admits: each entry
    is taken if it still fits in the blocks left. A run of entries that
    all fit is taken at once from a running sum; an entry that does not
    fit now never fits later, so each run leaves fewer candidates."""
    candidates = (cost <= capacity).nonzero()[0]
    taken = []
    remaining = capacity
    while candidates.size:
        run = cost[candidates].cumsum()
        count = run.searchsorted(remaining, side="right")
        taken.append(candidates[:count])
        remaining -= run[count - 1]
        candidates = candidates[count:]
        candidates = candidates[cost[candidates] <= remaining]
    return np.concatenate(taken) if taken else candidates


def greedy_design(nodes: Sequence[AccessNode], users: Sequence[UserTerminal],
                  params: RadioParams, dl_rate_mbps: float,
                  ul_rate_mbps: float) -> NetworkConfig:
    """Coverage-first greedy activation with a power-trim pass.

    1. Every cell starts as a candidate at every power level (the ladder
       tops out at maximum power).
    2. Repeatedly activate the (cell, level) pair admitting the most
       still-unassigned users under the block budget; ties fall to the
       smaller power increment, then the lower node id. Users are scanned
       in ascending user_id. Stop when no activation adds coverage.
    3. For each active cell in ascending node id, drop to the lowest level
       at which all of its users stay individually feasible and their
       blocks still fit.

    Deterministic: identical inputs give an identical NetworkConfig.
    """
    node_list = sorted(nodes, key=lambda n: n.node_id)
    table = enumerate_candidates(node_list, users, params, dl_rate_mbps, ul_rate_mbps)
    capacity = params.total_prbs
    # Blocks per (node, level, user); an infeasible link costs more than a
    # whole cell, so "fits in the blocks left" also means "feasible".
    cost = np.ascontiguousarray(np.where(
        table.feasible, table.prbs_dl + table.prbs_ul, capacity + 1
    ).transpose(0, 2, 1))

    unassigned = np.ones(len(table.user_ids), dtype=bool)
    members: dict[int, np.ndarray] = {}  # active node position -> user positions

    while True:
        open_users = np.flatnonzero(unassigned)
        open_cost = cost.take(open_users, axis=2)
        best_key = None
        best_pick = None
        for n, node in enumerate(node_list):
            if n in members:
                continue
            for lvl, level in enumerate(params.power_levels_dbm):
                admitted = _admit_users(open_cost[n, lvl], capacity)
                if not admitted.size:
                    continue
                added_power = (mimo_power(node.mimo, True, admitted.size, level)
                               - node.mimo.sleep_power)
                key = (-admitted.size, added_power, node.node_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pick = (n, open_users[admitted])
        if best_pick is None:
            break
        n, admitted = best_pick
        members[n] = admitted
        unassigned[admitted] = False

    levels: dict[int, float] = {}
    assigned: dict[int, tuple[int, int, int]] = {}
    for n, users_of_n in members.items():
        # The level the cell was activated at passes, so a lowest one exists.
        load = cost[n][:, users_of_n].sum(axis=1)
        lvl = int(np.flatnonzero(load <= capacity)[0])
        node_id = table.node_ids[n]
        levels[node_id] = params.power_levels_dbm[lvl]
        for u in users_of_n.tolist():
            link = table.link(n, u, lvl)
            assigned[table.user_ids[u]] = (node_id, link.prbs_dl, link.prbs_ul)
    return _network_config(node_list, levels, assigned)


def brute_force_design(nodes: Sequence[AccessNode],
                       users: Sequence[UserTerminal], params: RadioParams,
                       dl_rate_mbps: float,
                       ul_rate_mbps: float) -> NetworkConfig:
    """Exhaustive reference: best coverage, then least power.

    Enumerates every on/off-and-level combination and, per combination,
    finds a maximum assignment by memoized search over users in id order.
    Refuses instances beyond 4 nodes or 10 users.
    """
    node_list = sorted(nodes, key=lambda n: n.node_id)
    user_list = sorted(users, key=lambda u: u.user_id)
    if len(node_list) > MAX_ORACLE_NODES or len(user_list) > MAX_ORACLE_USERS:
        raise InstanceTooLargeError(
            f"instance has {len(node_list)} nodes / {len(user_list)} users; "
            f"limits are {MAX_ORACLE_NODES} / {MAX_ORACLE_USERS}")

    table = enumerate_candidates(node_list, user_list, params,
                                 dl_rate_mbps, ul_rate_mbps)
    n_users = len(user_list)

    best = None
    for combo in itertools.product([None, *params.power_levels_dbm],
                                   repeat=len(node_list)):
        active = {node.node_id: level
                  for node, level in zip(node_list, combo) if level is not None}
        options = []  # per user: [(node_idx_in_active_order, node_id, cost, link)]
        active_ids = sorted(active)
        for user in user_list:
            opts = []
            for idx, nid in enumerate(active_ids):
                link = table[(nid, user.user_id, active[nid])]
                if link.feasible:
                    opts.append((idx, nid, link))
            options.append(opts)

        memo: dict[tuple[int, tuple[int, ...]], int] = {}

        def coverage(i: int, caps: tuple[int, ...]) -> int:
            if i == n_users:
                return 0
            key = (i, caps)
            hit = memo.get(key)
            if hit is not None:
                return hit
            best_here = coverage(i + 1, caps)
            for idx, _, link in options[i]:
                cost = link.total_prbs
                if caps[idx] >= cost:
                    new_caps = caps[:idx] + (caps[idx] - cost,) + caps[idx + 1:]
                    got = 1 + coverage(i + 1, new_caps)
                    if got > best_here:
                        best_here = got
                        if best_here == n_users - i:
                            break
            memo[key] = best_here
            return best_here

        caps = tuple(params.total_prbs for _ in active_ids)

        # Reconstruct one maximum assignment, preferring lower node ids.
        assignment: dict[int, tuple[int, int, int]] = {}
        cur = caps
        for i, user in enumerate(user_list):
            target = coverage(i, cur)
            placed = False
            for idx, nid, link in options[i]:
                cost = link.total_prbs
                if cur[idx] >= cost:
                    new_caps = cur[:idx] + (cur[idx] - cost,) + cur[idx + 1:]
                    if 1 + coverage(i + 1, new_caps) == target:
                        assignment[user.user_id] = (nid, link.prbs_dl, link.prbs_ul)
                        cur = new_caps
                        placed = True
                        break
            if not placed:
                assert coverage(i + 1, cur) == target

        config = _network_config(node_list, active, assignment)
        if best is None or ((config.covered_count, -config.total_power_w)
                            > (best.covered_count, -best.total_power_w)):
            best = config
    return best
