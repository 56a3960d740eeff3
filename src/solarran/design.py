"""Cell activation and power assignment.

Given fixed station positions and one snapshot of users, decide which cells
transmit and at which discrete power level so that as many users as
possible are served within each cell's resource-block budget, then shave
transmit power. greedy_design is the production heuristic;
brute_force_design is the exhaustive reference for small instances.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Every (node, user, power level) link of a network as arrays.

    feasible, prbs_dl and prbs_ul are shaped (nodes, users, levels), with
    nodes and users in the ascending id order of node_ids and user_ids and
    levels in the order of the radio's power_levels_dbm; the block counts
    are whole float64 numbers.
    """

    node_ids: tuple[int, ...]
    user_ids: tuple[int, ...]
    feasible: np.ndarray
    prbs_dl: np.ndarray
    prbs_ul: np.ndarray


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
    return CandidateTable(tuple(n.node_id for n in node_list),
                          tuple(u.user_id for u in user_list),
                          feasible, prbs_dl, prbs_ul)


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


def _fit_row(cost: np.ndarray, capacity: int) -> tuple[list[int], list[int], list[int]]:
    """The first-fit data of one (node, level) row of block costs: the
    ascending positions of the users whose cost fits an empty cell, their
    costs as whole ints, and the suffix minimum of those costs."""
    fits = (cost <= capacity).nonzero()[0]
    blocks = cost[fits].astype(np.int64)
    least = np.minimum.accumulate(blocks[::-1])[::-1]
    return fits.tolist(), blocks.tolist(), least.tolist()


def _first_fit(row: tuple[list[int], list[int], list[int]], capacity: int,
              taken: list[bool]) -> list[int]:
    """Positions that a first-fit scan of a _fit_row row admits: in order,
    each user not yet taken is admitted if its cost fits in the blocks
    left. The scan stops once the blocks left are fewer than every later
    cost.

    A user that does not fit is passed over without changing the blocks
    left, so taking users the scan did not admit never changes its result.
    """
    admitted = []
    remaining = capacity
    for u, blocks, least in zip(*row):
        if remaining < least:
            break
        if blocks <= remaining and not taken[u]:
            admitted.append(u)
            remaining -= blocks
    return admitted


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

    Each (cell, level) candidate keeps its first-fit result between
    rounds, and an activation re-scores only the candidates that had
    admitted one of the users it takes. That is exact: the scan passes
    over a user that does not fit without changing the blocks left, so
    taking users a candidate did not admit leaves its result unchanged.

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

    levels_dbm = params.power_levels_dbm
    rows = [(n, lvl) for n in range(len(node_list)) for lvl in range(len(levels_dbm))]
    fit_rows = [_fit_row(cost[n, lvl], capacity) for n, lvl in rows]
    # scored[r] is row r's (key, admitted), or None once it must be re-scored
    scored: list[Optional[tuple]] = [None] * len(rows)
    admits = np.zeros((len(rows), len(table.user_ids)), dtype=bool)
    taken = [False] * len(table.user_ids)
    members: dict[int, np.ndarray] = {}  # active node position -> user positions

    while True:
        best = None
        for r, (n, lvl) in enumerate(rows):
            if n in members:
                continue
            if scored[r] is None:
                admitted = _first_fit(fit_rows[r], capacity, taken)
                key = None
                if admitted:
                    node = node_list[n]
                    added_power = (mimo_power(node.mimo, True, len(admitted),
                                              levels_dbm[lvl])
                                   - node.mimo.sleep_power)
                    key = (-len(admitted), added_power, node.node_id)
                    admits[r, admitted] = True
                scored[r] = (key, admitted)
            key, admitted = scored[r]
            if key is not None and (best is None or key < best[0]):
                best = (key, n, admitted)
        if best is None:
            break
        _, n, admitted = best
        members[n] = np.array(admitted)
        for u in admitted:
            taken[u] = True
        stale = admits[:, admitted].any(axis=1)
        admits[stale] = False
        for r in stale.nonzero()[0].tolist():
            scored[r] = None

    levels: dict[int, float] = {}
    assigned: dict[int, tuple[int, int, int]] = {}
    for n, users_of_n in members.items():
        # The level the cell was activated at passes, so a lowest one exists.
        load = cost[n][:, users_of_n].sum(axis=1)
        lvl = int(np.flatnonzero(load <= capacity)[0])
        node_id = table.node_ids[n]
        levels[node_id] = params.power_levels_dbm[lvl]
        for u, dl, ul in zip(users_of_n.tolist(),
                             table.prbs_dl[n, users_of_n, lvl].tolist(),
                             table.prbs_ul[n, users_of_n, lvl].tolist()):
            assigned[table.user_ids[u]] = (node_id, int(dl), int(ul))
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
    levels = params.power_levels_dbm
    feasible = table.feasible.tolist()
    # whole block counts; an infeasible link's, which may be huge, read 0
    prbs_dl, prbs_ul = (np.where(table.feasible, prbs, 0).astype(int).tolist()
                        for prbs in (table.prbs_dl, table.prbs_ul))

    best = None
    for combo in itertools.product([None, *range(len(levels))],
                                   repeat=len(node_list)):
        on = [(n, k) for n, k in enumerate(combo) if k is not None]
        active = {table.node_ids[n]: levels[k] for n, k in on}
        # per user: [(index in on, node_id, blocks, prbs_dl, prbs_ul)]
        options = [[(idx, table.node_ids[n], prbs_dl[n][u][k] + prbs_ul[n][u][k],
                     prbs_dl[n][u][k], prbs_ul[n][u][k])
                    for idx, (n, k) in enumerate(on) if feasible[n][u][k]]
                   for u in range(n_users)]

        memo: dict[tuple[int, tuple[int, ...]], int] = {}

        def coverage(i: int, caps: tuple[int, ...]) -> int:
            if i == n_users:
                return 0
            key = (i, caps)
            hit = memo.get(key)
            if hit is not None:
                return hit
            best_here = coverage(i + 1, caps)
            for idx, _, cost, _, _ in options[i]:
                if caps[idx] >= cost:
                    new_caps = caps[:idx] + (caps[idx] - cost,) + caps[idx + 1:]
                    got = 1 + coverage(i + 1, new_caps)
                    if got > best_here:
                        best_here = got
                        if best_here == n_users - i:
                            break
            memo[key] = best_here
            return best_here

        caps = tuple(params.total_prbs for _ in on)

        # Reconstruct one maximum assignment, preferring lower node ids.
        assignment: dict[int, tuple[int, int, int]] = {}
        cur = caps
        for i, user in enumerate(user_list):
            target = coverage(i, cur)
            for idx, nid, cost, dl, ul in options[i]:
                if cur[idx] >= cost:
                    new_caps = cur[:idx] + (cur[idx] - cost,) + cur[idx + 1:]
                    if 1 + coverage(i + 1, new_caps) == target:
                        assignment[user.user_id] = (nid, dl, ul)
                        cur = new_caps
                        break
            else:
                assert coverage(i + 1, cur) == target

        config = _network_config(node_list, active, assignment)
        if best is None or ((config.covered_count, -config.total_power_w)
                            > (best.covered_count, -best.total_power_w)):
            best = config
    return best
