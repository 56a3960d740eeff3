"""The link budget: log-distance path loss, SNR, capped spectral
efficiency, and resource-block sizing for fixed-rate users.

link_table evaluates every (node, user, power level) link of a network
with numpy; the few links that lie near a boundary it recomputes with
`math`, in _scalar_link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Callable

import numpy as np

from .energy import Range, check_ranges

THERMAL_NOISE_DBM_PER_HZ = -174.0

# link_table hands an entry to the scalar link budget when a comparison or a
# ceil of it lies within this relative distance of its boundary. numpy's
# log10/log2/power differ from math's by a few ulp, about 1e-13 relative
# after propagation, so every other entry compares and rounds alike.
BOUNDARY_RTOL = 1e-9
# Below this spectral efficiency, log2(1 + y) loses the digits of y to the
# rounding of 1 + y, and the error of se is no longer relative to se. It is
# also the lowest se_cap.
SE_FLOOR = 1e-3
# Largest magnitude of a decibel input (a gain, loss, noise figure, SNR
# threshold or transmit power): 1000 dB, a ratio of 1e100, far beyond any
# link budget. Within these bounds every SNR lies between about -4700 and
# +1300 dB, so 10 ** (snr / 10), the spectral efficiency and, with the
# users' rate bound, every block count stay finite.
MAX_DB = 1000.0
# Highest transmit power [dBm]: a gigawatt, as energy.MAX_MIMO_POWER_W.
MAX_TX_POWER_DBM = 120.0
# Steepest path loss: measured exponents run from 2 (free space) to about
# 6 (inside buildings).
MAX_PATHLOSS_EXPONENT = 10.0
# Narrowest and widest carrier or resource block [Hz]: 1 kHz, below NR's
# 180 kHz block, to 1 THz, beyond any carrier. The narrowest bounds the
# noise floor from below, and so the SNR from above.
MIN_BANDWIDTH_HZ, MAX_BANDWIDTH_HZ = 1e3, 1e12
# Most resource blocks of a cell: a billion, far beyond NR's 275 a carrier,
# and exact as float64 and int64 block counts.
MAX_TOTAL_PRBS = 10**9
# Largest magnitude of a coordinate [m]: 10,000 km, far beyond any study,
# and small enough that squared node-user distances stay finite.
MAX_COORD_M = 1e7
COORD_M = Range(-MAX_COORD_M, MAX_COORD_M)
Decibels = Annotated[float, Range(-MAX_DB, MAX_DB)]


@dataclass(frozen=True)
class Position:
    x: float
    y: float
    z: float = 0.0


@dataclass(frozen=True)
class RadioParams:
    """Propagation and numerology defaults for the 3500 MHz carrier.

    reference_loss_at_1m_db is the free-space loss at 1 m for that carrier;
    beyond 1 m the loss grows with 10 * pathloss_exponent * log10(d).
    power_levels_dbm is the discrete transmit-power ladder the network
    designer may pick from; its highest entry is the transceiver maximum.
    A loss and a noise figure are never below 0 dB.
    """

    pathloss_exponent: Annotated[float, Range(2, MAX_PATHLOSS_EXPONENT)] = 2.9
    reference_loss_at_1m_db: Annotated[float, Range(0, MAX_DB)] = 43.3
    bandwidth_mhz: Annotated[float, Range(MIN_BANDWIDTH_HZ / 1e6,
                                          MAX_BANDWIDTH_HZ / 1e6)] = 100.0
    prb_bandwidth_khz: Annotated[float, Range(MIN_BANDWIDTH_HZ / 1e3,
                                              MAX_BANDWIDTH_HZ / 1e3)] = 360.0
    total_prbs: Annotated[int, Range(1, MAX_TOTAL_PRBS)] = 273
    noise_figure_db: Annotated[float, Range(0, MAX_DB)] = 9.0
    antenna_gain_dbi: Decibels = 8.0
    min_snr_db: Decibels = -6.0
    se_cap: Annotated[float, Range(SE_FLOOR)] = 7.8  # bit/s/Hz
    power_levels_dbm: Annotated[tuple[float, ...], Range(
        -MAX_DB, MAX_TX_POWER_DBM)] = (28.0, 34.0, 40.0)  # each entry

    def __post_init__(self):
        check_ranges(self)
        if len(self.power_levels_dbm) < 1:
            raise ValueError("power_levels_dbm must not be empty")
        if list(self.power_levels_dbm) != sorted(set(self.power_levels_dbm)):
            raise ValueError(f"power_levels_dbm must be strictly increasing, "
                             f"got {self.power_levels_dbm}")

    @property
    def noise_power_dbm(self) -> float:
        bandwidth_hz = self.bandwidth_mhz * 1e6
        return (THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz)
                + self.noise_figure_db)


def _scalar_link(a: Position, b: Position, tx_power_dbm: float,
                 params: RadioParams, dl_rate_mbps: float,
                 ul_rate_mbps: float) -> tuple[bool, int, int]:
    """One link of link_table with `math`: (feasible, downlink blocks,
    uplink blocks), both block counts 0 when the spectral efficiency is 0
    and a rate is not. Feasible iff the SNR clears min_snr_db (boundary
    inclusive) and both block counts fit within one cell's total_prbs."""
    d = max(1.0, math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2
                           + (a.z - b.z) ** 2))
    pl = (params.reference_loss_at_1m_db
          + 10.0 * params.pathloss_exponent * math.log10(d))
    snr_db = (tx_power_dbm + params.antenna_gain_dbi - pl
              - params.noise_power_dbm)
    se = min(params.se_cap, math.log2(1.0 + 10.0 ** (snr_db / 10.0)))
    blocks = []
    for rate in (dl_rate_mbps, ul_rate_mbps):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        blocks.append(0 if rate == 0 else None if se <= 0 else math.ceil(
            rate * 1e6 / (se * params.prb_bandwidth_khz * 1e3)))
    if None in blocks:
        return False, 0, 0
    prbs_dl, prbs_ul = blocks
    feasible = (snr_db >= params.min_snr_db
                and prbs_dl + prbs_ul <= params.total_prbs)
    return feasible, prbs_dl, prbs_ul


def checked_xyz(points, name: str) -> np.ndarray:
    """points as a (k, 3) float64 array. A coordinate outside COORD_M, NaN
    included, is refused with ValueError naming the point's position in
    points (as `name`) and its axis."""
    xyz = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    with np.errstate(invalid="ignore"):
        outside = np.argwhere(~(np.abs(xyz) <= MAX_COORD_M))
    if len(outside):
        i, axis = outside[0]
        COORD_M.check(f"{name} {i} {'xyz'[axis]}", float(xyz[i, axis]),
                      ValueError)
    return xyz


def link_table(node_xyz, user_xyz, params: RadioParams, dl_rate_mbps: float,
               ul_rate_mbps: float, *,
               fallback: Callable[..., tuple[bool, int, int]] = _scalar_link
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (node, user, power level) link of a network, one power level
    at a time.

    node_xyz and user_xyz are (nodes, 3) and (users, 3) coordinates; the
    results are shaped (nodes, users, levels), levels in the order of
    params.power_levels_dbm: feasibility, then downlink and uplink block
    counts as whole float64 numbers. Each entry equals _scalar_link's
    answer for that link. A coordinate outside COORD_M, NaN included, is
    refused with ValueError by checked_xyz. Entries near a boundary are
    recomputed by fallback (called like _scalar_link): an SNR within
    BOUNDARY_RTOL of min_snr_db, a ceil argument within BOUNDARY_RTOL of a
    whole number, a non-finite value, a spectral efficiency below SE_FLOOR,
    a negative rate.
    """
    node_xyz = checked_xyz(node_xyz, "node")
    user_xyz = checked_xyz(user_xyz, "user")
    levels = params.power_levels_dbm
    shape = (len(node_xyz), len(user_xyz), len(levels))
    feasible = np.empty(shape, dtype=bool)
    guard = np.empty(shape, dtype=bool)
    prbs_dl, prbs_ul = np.zeros(shape), np.zeros(shape)
    # The distance and the path loss are (nodes, users) arrays, and each
    # power level's link budget is worked out in a few (nodes, users)
    # slices, so nothing but the results is (nodes, users, levels). The
    # squares are summed in x, y, z order, as _scalar_link sums them.
    pl = np.zeros(shape[:2])
    for axis in range(3):
        sq = np.subtract.outer(node_xyz[:, axis], user_xyz[:, axis])
        sq *= sq
        pl += sq
    del sq
    np.sqrt(pl, out=pl)
    noise_dbm = params.noise_power_dbm
    snr_tol = BOUNDARY_RTOL * max(1.0, abs(params.min_snr_db))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.maximum(pl, 1.0, out=pl)
        np.log10(pl, out=pl)
        pl *= 10.0 * params.pathloss_exponent
        pl += params.reference_loss_at_1m_db
        for k, lifted_dbm in enumerate(np.asarray(levels)
                                       + params.antenna_gain_dbi):
            snr_db = lifted_dbm - pl
            snr_db -= noise_dbm
            raw_se = snr_db / 10.0
            np.power(10.0, raw_se, out=raw_se)
            raw_se += 1.0
            np.log2(raw_se, out=raw_se)
            se = np.minimum(params.se_cap, raw_se)
            near = ~np.isfinite(raw_se)
            del raw_se
            near |= np.abs(snr_db - params.min_snr_db) <= snr_tol
            for rate, prbs in ((dl_rate_mbps, prbs_dl), (ul_rate_mbps, prbs_ul)):
                if rate == 0:
                    continue
                x = se * params.prb_bandwidth_khz
                x *= 1e3
                np.divide(rate * 1e6, x, out=x)
                near |= ((rate < 0) | (se < SE_FLOOR) | ~np.isfinite(x)
                         | (np.abs(x - np.rint(x)) <= BOUNDARY_RTOL * x))
                np.ceil(x, out=prbs[..., k])
                del x
            del se
            feasible[..., k] = ((snr_db >= params.min_snr_db)
                                & (prbs_dl[..., k] + prbs_ul[..., k]
                                   <= params.total_prbs))
            guard[..., k] = near
            del snr_db, near
    for n, u, lvl in zip(*np.nonzero(guard)):
        feasible[n, u, lvl], prbs_dl[n, u, lvl], prbs_ul[n, u, lvl] = fallback(
            Position(*node_xyz[n].tolist()), Position(*user_xyz[u].tolist()),
            levels[lvl], params, dl_rate_mbps, ul_rate_mbps)
    return feasible, prbs_dl, prbs_ul
