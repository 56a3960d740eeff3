"""Test-only oracle: the scalar link-budget chain, one link at a time.

This is the `math` chain of path loss, SNR, capped spectral efficiency and
block sizing that radio.link_table replaced with array code. The tests hold
every entry of link_table to link_feasible with ==, and the loop greedy of
reference_design builds its candidate dict with it.
"""

from __future__ import annotations

import math
from typing import Optional

from solarran.radio import Position, RadioParams


def distance(a: Position, b: Position) -> float:
    return math.sqrt((a.x - b.x) ** 2
                     + (a.y - b.y) ** 2
                     + (a.z - b.z) ** 2)


def path_loss(a: Position, b: Position, params: RadioParams) -> float:
    """Log-distance path loss [dB]; distances below 1 m clamp to the
    reference loss. Symmetric in its endpoints."""
    d = max(1.0, distance(a, b))
    return (params.reference_loss_at_1m_db
            + 10.0 * params.pathloss_exponent * math.log10(d))


def snr(tx_power_dbm: float, pl_db: float, params: RadioParams) -> float:
    """Received SNR [dB] over the full bandwidth."""
    return (tx_power_dbm + params.antenna_gain_dbi - pl_db
            - params.noise_power_dbm)


def spectral_efficiency(snr_db: float, params: RadioParams) -> float:
    """Shannon spectral efficiency [bit/s/Hz], capped at the modulation
    ceiling se_cap. Positive for any finite SNR."""
    return min(params.se_cap, math.log2(1.0 + 10.0 ** (snr_db / 10.0)))


def required_prbs(rate_mbps: float, se: float,
                  params: RadioParams) -> Optional[int]:
    """Resource blocks needed to carry rate_mbps at spectral efficiency se.

    Returns None when se <= 0 (the link cannot carry any rate), which
    callers must treat as infeasible rather than as a block count.
    """
    if rate_mbps < 0:
        raise ValueError(f"rate must be >= 0, got {rate_mbps}")
    if rate_mbps == 0:
        return 0
    if se <= 0:
        return None
    prb_rate_bps = se * params.prb_bandwidth_khz * 1e3
    return math.ceil(rate_mbps * 1e6 / prb_rate_bps)


def link_feasible(node_pos: Position, user_pos: Position, tx_power_dbm: float,
                  params: RadioParams, dl_rate_mbps: float,
                  ul_rate_mbps: float) -> tuple[bool, int, int]:
    """Check whether one node can serve one user at the given power.

    Feasible iff the SNR clears min_snr_db (boundary inclusive) and the
    downlink plus uplink block demand fits within one cell's total_prbs.
    Returns (feasible, downlink blocks, uplink blocks); both block counts
    are 0 whenever they cannot be computed.
    """
    pl = path_loss(node_pos, user_pos, params)
    snr_db = snr(tx_power_dbm, pl, params)
    se = spectral_efficiency(snr_db, params)
    prbs_dl = required_prbs(dl_rate_mbps, se, params)
    prbs_ul = required_prbs(ul_rate_mbps, se, params)
    if prbs_dl is None or prbs_ul is None:
        return False, 0, 0
    feasible = (snr_db >= params.min_snr_db
                and prbs_dl + prbs_ul <= params.total_prbs)
    return feasible, prbs_dl, prbs_ul
