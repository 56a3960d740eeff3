"""Cell activation and power assignment.

Given fixed station positions and one snapshot of users, decide which cells
transmit and at which discrete power level so that as many users as
possible are served within each cell's resource-block budget, then shave
transmit power. greedy_design is the production heuristic;
brute_force_design is the exhaustive reference for small instances.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import mimo_power, station_power_w
from .radio import RadioParams, checked_xyz, link_table
from .scenario import AccessNode, UserTerminal


class InstanceTooLargeError(ValueError):
    """The exhaustive search would not finish in reasonable time."""


MAX_ORACLE_NODES = 4
MAX_ORACLE_USERS = 10
# (node, user) pairs whose links greedy_design evaluates at once, rounded
# down to whole nodes (one at least): the default 9-node/100-user network is
# one block, the dense 49/1000 one seven blocks of at most 8 nodes. There the
# greedy's traced peak reads 2.6 MiB at 4,096 pairs, 2.9 at 8,192, 3.9 at
# 16,384 and 7.9 in one block, its time the same within noise.
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


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Every (node, user, power level) link of a network as arrays.

    feasible, prbs_dl and prbs_ul are shaped (nodes, users, levels), with
    nodes and users in the ascending id order of node_ids and user_ids and
    levels in the order of the radio's power_levels_dbm; the block counts
    are whole float64 numbers. brute_force_design indexes one; greedy_design
    evaluates its links in node blocks and never holds a whole table.
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
    radio.link_table."""
    node_list = sorted(nodes, key=lambda n: n.node_id)
    user_list = sorted(users, key=lambda u: u.user_id)
    feasible, prbs_dl, prbs_ul = link_table(
        [(n.position.x, n.position.y, n.position.z) for n in node_list],
        [(u.position.x, u.position.y, u.position.z) for u in user_list],
        params, dl_rate_mbps, ul_rate_mbps)
    return CandidateTable(tuple(n.node_id for n in node_list),
                          tuple(u.user_id for u in user_list),
                          feasible, prbs_dl, prbs_ul)


def network_config(nodes: Sequence[AccessNode], levels: dict[int, float],
                   users: dict[int, tuple[int, int, int]]) -> NetworkConfig:
    """The NetworkConfig of a design: the transmit level of each active cell
    by node id, and the assignment map user_id -> (node_id, prbs_dl,
    prbs_ul), whose users each belong to an active cell."""
    served: dict[int, int] = {}
    for uid, (nid, _, _) in users.items():
        if nid not in levels:
            raise ValueError(f"user {uid} is assigned to node {nid}, "
                             f"which has no active cell")
        served[nid] = served.get(nid, 0) + 1
    node_list = sorted(nodes, key=lambda n: n.node_id)
    return NetworkConfig(
        cells=tuple(CellConfig(n.node_id, levels.get(n.node_id)) for n in node_list),
        users=dict(sorted(users.items())),
        power_w=tuple(station_power_w(n, levels.get(n.node_id),
                                      served.get(n.node_id, 0))
                      for n in node_list))


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

    Every link is evaluated once, by radio.link_table, for one block of
    about DESIGN_BLOCK_PAIRS (node, user) pairs at a time: consecutive
    nodes and every user, both in id order. Of a block's float64 results
    the first-fit data of its (node, level) rows and the downlink share of
    each fitting user's blocks are kept, as lists of ints, so the whole
    (nodes, users, levels) table is never held.

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
    fit_rows = []  # _fit_rows data of each (node, level) row, node-major
    dl_rows = []  # each row's downlink blocks of the users that fit
    block = max(DESIGN_BLOCK_PAIRS // max(len(user_list), 1), 1)
    for lo in range(0, len(node_list), block):
        hi = min(lo + block, len(node_list))
        feasible, dl, ul = link_table(node_xyz[lo:hi], user_xyz, params,
                                      dl_rate_mbps, ul_rate_mbps)
        # Blocks per (node, level) row and user, rows in fit_rows' order; an
        # infeasible link costs more than a whole cell, so "fits in the
        # blocks left" also means "feasible".
        shape = ((hi - lo) * len(levels_dbm), len(user_list))
        cost = np.where(feasible, dl + ul, capacity + 1)
        cost = cost.transpose(0, 2, 1).reshape(shape)
        block_rows = _fit_rows(cost, capacity)
        fit_rows += block_rows
        shares = np.take(dl.transpose(0, 2, 1), np.flatnonzero(cost <= capacity))
        shares = shares.astype(np.int64).tolist()
        at = 0
        for fits, _, _ in block_rows:
            dl_rows.append(shares[at:at + len(fits)])
            at += len(fits)
        # freed before the next block's links are evaluated
        del feasible, dl, ul, cost, shares

    rows = [(n, lvl) for n in range(len(node_list)) for lvl in range(len(levels_dbm))]
    # scored[r] is row r's (key, admitted), or None once it must be re-scored
    scored: list[Optional[tuple]] = [None] * len(rows)
    admits = np.zeros((len(rows), len(user_list)), dtype=bool)
    taken = [False] * len(user_list)
    # active node position -> (level it was activated at, user positions)
    members: dict[int, tuple[int, list[int]]] = {}

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
                best = (key, r, admitted)
        if best is None:
            break
        _, r, admitted = best
        n, lvl = rows[r]
        members[n] = (lvl, admitted)
        for u in admitted:
            taken[u] = True
        stale = admits[:, admitted].any(axis=1)
        admits[stale] = False
        for r in stale.nonzero()[0].tolist():
            scored[r] = None

    levels: dict[int, float] = {}
    assigned: dict[int, tuple[int, int, int]] = {}
    for n, (top, admitted) in members.items():
        # The level the cell was activated at passes, so the trim stops there
        # at the latest. A user that does not fit a row is not in its fits.
        for lvl in range(top + 1):
            r = n * len(levels_dbm) + lvl
            fits, blocks, _ = fit_rows[r]
            at = [bisect_left(fits, u) for u in admitted]
            if (all(i < len(fits) and fits[i] == u for i, u in zip(at, admitted))
                    and sum(blocks[i] for i in at) <= capacity):
                break
        node_id = node_list[n].node_id
        levels[node_id] = levels_dbm[lvl]
        for u, i in zip(admitted, at):
            dl = dl_rows[r][i]
            assigned[user_list[u].user_id] = (node_id, dl, blocks[i] - dl)
    return network_config(node_list, levels, assigned)


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

        config = network_config(node_list, active, assignment)
        if best is None or ((config.covered_count, -config.total_power_w)
                            > (best.covered_count, -best.total_power_w)):
            best = config
    return best
