"""Cell activation and power assignment.

Given fixed station positions and one snapshot of users, decide which cells
transmit and at which discrete power level so that as many users as
possible are served within each cell's resource-block budget, then shave
transmit power. greedy_design is the production heuristic;
brute_force_design is the exhaustive reference for small instances.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import Equipment, mimo_power, station_power_w
from .radio import RadioParams, checked_xyz, link_table
from .scenario import AccessNode, UserTerminal


class InstanceTooLargeError(ValueError):
    """The exhaustive search would not finish in reasonable time."""


MAX_ORACLE_NODES = 4
MAX_ORACLE_USERS = 10
# (node, user) pairs whose links greedy_design evaluates at once, rounded
# down to whole nodes (one at least): the default 9-node/100-user network is
# one block, the dense 49/1000 one seven blocks of at most 8 nodes. There the
# greedy's traced peak reads 2.5 MiB at 4,096 pairs, 2.6 at 8,192, 3.0 at
# 16,384 and 5.0 in one block, its time the same within noise.
DESIGN_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class CellConfig:
    node_id: int
    tx_power_dbm: Optional[float]  # None when the cell sleeps

    @property
    def active(self) -> bool:
        return self.tx_power_dbm is not None


@dataclass(frozen=True)
class NetworkConfig:
    """A designed network, as network_config builds it: the cells in
    ascending node id order, the assignment map user_id -> (node_id,
    prbs_dl, prbs_ul) in ascending user id order, and each station's
    station_power_w draw [W], (hover, transceiver, reflective surface), in
    the cells' order."""

    cells: tuple[CellConfig, ...]
    users: dict[int, tuple[int, int, int]]
    power_w: tuple[tuple[float, float, float], ...]

    @property
    def covered_count(self) -> int:
        return len(self.users)

    @property
    def total_power_w(self) -> float:
        total = 0.0
        for hover, mimo, ris in self.power_w:
            total += hover + ris  # this order keeps total_power_w's bits
            total += mimo
        return total

    def to_dict(self) -> dict:
        """Stable dictionary form; equal configs serialize byte-identically."""
        loads: dict[int, int] = {}
        for nid, dl, ul in self.users.values():
            loads[nid] = loads.get(nid, 0) + dl + ul
        return {
            "cells": [{"node_id": c.node_id, "active": c.active,
                       "tx_power_dbm": c.tx_power_dbm} for c in self.cells],
            "assignment": {str(uid): list(link) for uid, link in self.users.items()},
            "node_loads": {str(nid): loads[nid] for nid in sorted(loads)},
            "covered_count": self.covered_count,
            "total_power_w": self.total_power_w,
        }


def network_config(nodes: Sequence[AccessNode], levels: dict[int, float],
                   users: dict[int, tuple[int, int, int]],
                   equipment: Equipment) -> NetworkConfig:
    """The NetworkConfig of a design: the transmit level of each active cell
    by node id, and the assignment map user_id -> (node_id, prbs_dl,
    prbs_ul), whose users each belong to an active cell."""
    node_list = sorted(nodes, key=lambda n: n.node_id)
    stray = set(levels) - {n.node_id for n in node_list}
    if stray:
        raise ValueError(f"node {min(stray)} has a level but is not in nodes")
    served: dict[int, int] = {}
    for uid, (nid, _, _) in users.items():
        if nid not in levels:
            raise ValueError(f"user {uid} is assigned to node {nid}, "
                             f"which has no active cell")
        served[nid] = served.get(nid, 0) + 1
    return NetworkConfig(
        cells=tuple(CellConfig(n.node_id, levels.get(n.node_id)) for n in node_list),
        users=dict(sorted(users.items())),
        power_w=tuple(station_power_w(equipment, levels.get(n.node_id),
                                      served.get(n.node_id, 0))
                      for n in node_list))


def _link_blocks(node_xyz, user_xyz, params: RadioParams, dl_rate_mbps: float,
                 ul_rate_mbps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every link of radio.link_table as two (nodes, levels, users) arrays of
    the narrowest unsigned dtype that holds total_prbs + 1: its blocks, and
    their downlink share. An infeasible link costs total_prbs + 1 blocks, more
    than a whole cell, so "fits an empty cell" also means "feasible", and its
    share is 0."""
    feasible, dl, cost = link_table(node_xyz, user_xyz, params, dl_rate_mbps,
                                    ul_rate_mbps)
    cost += dl
    cost[~feasible] = params.total_prbs + 1
    dl[~feasible] = 0
    dtype = np.min_scalar_type(params.total_prbs + 1)
    return tuple(a.transpose(0, 2, 1).astype(dtype, order="C") for a in (cost, dl))


def _fit_rows(cost: np.ndarray, capacity: int
              ) -> list[tuple[list[int], list[int], list[int]]]:
    """The first-fit data of each row of a (rows, users) array of block
    costs, one row per (node, level): the ascending positions of the users
    whose cost fits an empty cell, their costs as whole ints, and the
    suffix minimum of those costs."""
    fit = cost <= capacity
    at = np.flatnonzero(fit)
    row, fits = np.divmod(at, cost.shape[1])
    blocks = cost.ravel()[at].astype(np.int64)
    # one int object per user, which every row's positions share
    fits = np.arange(cost.shape[1], dtype=object)[fits]
    # Every row's suffix minima in one pass: lifting each row's costs above
    # those of all earlier rows keeps a later row's out of its minima.
    lift = row * (capacity + 1)
    least = np.minimum.accumulate((blocks + lift)[::-1])[::-1] - lift
    ends = np.cumsum(fit.sum(axis=1)).tolist()
    return [(fits[lo:hi].tolist(), blocks[lo:hi].tolist(), least[lo:hi].tolist())
            for lo, hi in zip([0, *ends], ends)]


def _first_fit(row: tuple[list[int], list[int], list[int]], capacity: int,
              taken: list[bool]) -> list[int]:
    """Positions that a first-fit scan of a _fit_rows row admits: in order,
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
                  ul_rate_mbps: float,
                  # a default, as perfbench/design_sweep.py passes the first five
                  equipment: Equipment = Equipment()) -> NetworkConfig:
    """Coverage-first greedy activation with a power-trim pass.

    1. Every cell starts as a candidate at every power level (the ladder
       tops out at maximum power).
    2. Repeatedly activate the (cell, level) pair admitting the most
       still-unassigned users under the block budget; ties fall to the
       smaller power increment, then the lower node id. Users are scanned
       in ascending user_id. Stop when no activation adds coverage.
    3. As each cell activates, drop it to the lowest level at which all of
       its users stay individually feasible and their blocks still fit.

    A (cell, level) row is scanned again only once a user its last scan
    admitted is taken, and never once it admits nobody. That is exact: a
    scan passes over a user that does not fit without changing the blocks
    left, so taking users it did not admit leaves its result unchanged.

    Every link is evaluated once, by _link_blocks, for one block of about
    DESIGN_BLOCK_PAIRS (node, user) pairs at a time: consecutive nodes and
    every user, both in id order. Of a block only the first-fit data of its
    (node, level) rows and each node's two narrow (levels, users) arrays of
    block costs and downlink shares are kept, so link_table's float64
    (nodes, users, levels) results are never held whole. The trim reads an
    active cell's costs at each level up to the one it was activated at.

    Deterministic: identical inputs give an identical NetworkConfig.
    """
    node_list = sorted(nodes, key=lambda n: n.node_id)
    user_list = sorted(users, key=lambda u: u.user_id)
    # checked whole, so that a refusal names a node's position in node_list
    node_xyz = checked_xyz([(n.position.x, n.position.y, n.position.z)
                            for n in node_list], "node")
    user_xyz = checked_xyz([(u.position.x, u.position.y, u.position.z)
                            for u in user_list], "user")
    capacity = params.total_prbs
    levels_dbm = params.power_levels_dbm
    mimo = equipment.mimo
    fit_rows = []  # _fit_rows data of each (node, level) row, node-major
    costs, shares = [], []  # each node's (levels, users) _link_blocks arrays
    block = max(DESIGN_BLOCK_PAIRS // max(len(user_list), 1), 1)
    for lo in range(0, len(node_list), block):
        cost, dl = _link_blocks(node_xyz[lo:lo + block], user_xyz, params,
                                dl_rate_mbps, ul_rate_mbps)
        fit_rows += _fit_rows(cost.reshape(len(cost) * len(levels_dbm),
                                           len(user_list)), capacity)
        costs += list(cost)
        shares += list(dl)

    n_levels = len(levels_dbm)
    taken = [False] * len(user_list)

    def scan(r: int) -> tuple[tuple, list[int]]:
        """Row r's key and the user positions its first-fit scan admits."""
        n, lvl = divmod(r, n_levels)
        admitted = _first_fit(fit_rows[r], capacity, taken)
        added = mimo_power(mimo, levels_dbm[lvl], len(admitted)) - mimo.sleep_power
        return (-len(admitted), added, node_list[n].node_id), admitted

    levels: dict[int, float] = {}
    assigned: dict[int, tuple[int, int, int]] = {}
    # the scans of the rows of sleeping cells that admit someone, in row order
    scans: dict[int, tuple[tuple, list[int]]] = {}
    stale = range(len(fit_rows))
    while True:
        for r in stale:
            scans[r] = scan(r)
            if not scans[r][1]:
                del scans[r]
        if not scans:
            break
        r = min(scans, key=lambda row: scans[row][0])  # a tie: the lower row
        admitted = scans[r][1]
        # The activation level fits, so the trim stops there at the latest; an
        # infeasible link costs more than a cell, so a fitting level is feasible.
        n, top = divmod(r, n_levels)
        blocks = costs[n][:top + 1, admitted].tolist()
        lvl = next(k for k, row in enumerate(blocks) if sum(row) <= capacity)
        node_id = node_list[n].node_id
        levels[node_id] = levels_dbm[lvl]
        for u, cost, dl in zip(admitted, blocks[lvl],
                               shares[n][lvl, admitted].tolist()):
            taken[u] = True
            assigned[user_list[u].user_id] = (node_id, dl, cost - dl)
        for k in range(n * n_levels, (n + 1) * n_levels):
            scans.pop(k, None)
        newly = set(admitted)
        stale = [k for k, (_, was) in scans.items() if not newly.isdisjoint(was)]
    return network_config(node_list, levels, assigned, equipment)


def brute_force_design(nodes: Sequence[AccessNode],
                       users: Sequence[UserTerminal], params: RadioParams,
                       dl_rate_mbps: float, ul_rate_mbps: float,
                       equipment: Equipment) -> NetworkConfig:
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

    costs, shares = (a.tolist() for a in _link_blocks(
        [(n.position.x, n.position.y, n.position.z) for n in node_list],
        [(u.position.x, u.position.y, u.position.z) for u in user_list],
        params, dl_rate_mbps, ul_rate_mbps))
    node_ids = [n.node_id for n in node_list]
    n_users = len(user_list)
    levels = params.power_levels_dbm

    best = None
    for combo in itertools.product([None, *range(len(levels))],
                                   repeat=len(node_list)):
        on = [(n, k) for n, k in enumerate(combo) if k is not None]
        active = {node_ids[n]: levels[k] for n, k in on}
        # per user: [(index in on, node_id, blocks, prbs_dl, prbs_ul)]
        options = [[(idx, node_ids[n], costs[n][k][u], shares[n][k][u],
                     costs[n][k][u] - shares[n][k][u])
                    for idx, (n, k) in enumerate(on)
                    if costs[n][k][u] <= params.total_prbs]
                   for u in range(n_users)]

        @functools.cache
        def coverage(i: int, caps: tuple[int, ...]) -> int:
            if i == n_users:
                return 0
            best_here = coverage(i + 1, caps)
            for idx, _, cost, _, _ in options[i]:
                if caps[idx] >= cost:
                    new_caps = caps[:idx] + (caps[idx] - cost,) + caps[idx + 1:]
                    got = 1 + coverage(i + 1, new_caps)
                    if got > best_here:
                        best_here = got
                        if best_here == n_users - i:
                            break
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

        config = network_config(node_list, active, assignment, equipment)
        if best is None or ((config.covered_count, -config.total_power_w)
                            > (best.covered_count, -best.total_power_w)):
            best = config
    return best
