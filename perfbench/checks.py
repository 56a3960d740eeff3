"""Output checks, run by the benchmark outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct. They read only what the operation wrote, and recompute what they
compare from it with their own code, not solarran's.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from design_sweep import SNAPSHOTS

SEASONS = ("spring", "summer", "autumn", "winter")
MINUTES_PER_DAY = 1440
LEDGER_HEADER = ("t,node_id,consumed_wh,hover_wh,mimo_wh,ris_wh,harvested_wh,"
                 "pv_used_wh,pv_wasted_wh,drawn_wh,soc_wh,swaps")
TOL = 1e-9


def expected_study_files(runs: int) -> set[str]:
    names = {"metrics.json", "summary.csv"}
    names |= {f"ledger_{r}_{tag}.csv" for r in range(runs) for tag in ("pv", "nopv")}
    names |= {f"timeseries_{s}.csv" for s in SEASONS}
    return names


def file_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _read_ledger(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != LEDGER_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(LEDGER_HEADER.split(","))}


def ledger_problems(name: str, led: dict[str, np.ndarray],
                    usable_cap: dict[int, float]) -> list[str]:
    """Per-row conservation and SOC bounds; per-station time order and swap
    monotonicity."""
    problems = []
    gap = np.abs(led["consumed_wh"] - (led["drawn_wh"] + led["pv_used_wh"]))
    bad = np.flatnonzero(gap > TOL)
    if bad.size:
        problems.append(f"{name}: consumed != drawn + pv_used on line "
                        f"{bad[0] + 2} (gap {gap[bad[0]]:.3g})")
    node_ids = led["node_id"].astype(np.int64)
    unknown = set(np.unique(node_ids).tolist()) - set(usable_cap)
    if unknown:
        return problems + [f"{name}: unknown node ids {sorted(unknown)}"]
    cap = np.array([usable_cap[n] for n in node_ids.tolist()])
    bad = np.flatnonzero((led["soc_wh"] < -TOL) | (led["soc_wh"] > cap + TOL))
    if bad.size:
        problems.append(f"{name}: soc {led['soc_wh'][bad[0]]!r} outside "
                        f"[0, usable capacity] on line {bad[0] + 2}")
    for nid in usable_cap:
        rows = node_ids == nid
        if not np.all(np.diff(led["t"][rows]) > 0):
            problems.append(f"{name}: node {nid} rows are not in time order")
        if np.any(np.diff(led["swaps"][rows]) < 0):
            problems.append(f"{name}: swap count of node {nid} decreases")
    return problems


def ledger_arec(led: dict[str, np.ndarray]) -> list[float]:
    """Per-day 100 * sum(pv_used) / sum(consumed) from one ledger."""
    day = (led["t"] // MINUTES_PER_DAY).astype(np.int64)
    out = []
    for d in range(len(SEASONS)):
        rows = day == d
        consumed = led["consumed_wh"][rows].sum()
        out.append(100.0 * led["pv_used_wh"][rows].sum() / consumed
                   if consumed > 0 else 0.0)
    return out


def check_study(out_dir: Path, runs: int) -> list[str]:
    """A `solarran simulate` output directory holds one coherent study."""
    actual = {p.name for p in out_dir.iterdir()}
    expected = expected_study_files(runs)
    problems = [f"missing output {n}" for n in sorted(expected - actual)]
    problems += [f"unexpected output {n}" for n in sorted(actual - expected)]
    if problems:
        return problems
    try:
        doc = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        nodes = doc["config"]["nodes"]
        usable_cap = {int(n["node_id"]): float(n["battery"]["capacity_wh"])
                      * (1.0 - float(n["battery"]["flight_reserve"]))
                      for n in nodes}
        per_run = doc["metrics"]["per_run"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"metrics.json unreadable: {type(exc).__name__}: {exc}"]
    if len(per_run) != runs:
        problems.append(f"metrics.json has {len(per_run)} runs, expected {runs}")
        return problems
    for r in range(runs):
        ledgers = {}
        for tag in ("nopv", "pv"):
            name = f"ledger_{r}_{tag}.csv"
            try:
                ledgers[tag] = _read_ledger(out_dir / name)
            except ValueError as exc:
                problems.append(f"{name}: {exc}")
                continue
            problems += ledger_problems(name, ledgers[tag], usable_cap)
        if problems:
            continue
        for season, arec in zip(SEASONS, ledger_arec(ledgers["pv"])):
            try:
                reported = float(per_run[r]["seasons"][season]["arec_percent"])
            except (KeyError, TypeError, ValueError):
                problems.append(f"metrics.json run {r} lacks {season} arec_percent")
                continue
            if not math.isclose(arec, reported, rel_tol=TOL, abs_tol=TOL):
                problems.append(f"run {r} {season}: arec_percent {reported!r} in "
                                f"metrics.json, {arec!r} from the ledger")
    return problems


def _link(node, user, level, radio, dl_mbps, ul_mbps):
    """(feasible, prbs_dl, prbs_ul) with the same arithmetic as the paper's
    link budget: log-distance loss, SNR over the full band, capped Shannon
    efficiency, ceil of rate over block capacity."""
    d = max(1.0, math.sqrt((node[0] - user[0]) ** 2 + (node[1] - user[1]) ** 2
                           + (node[2] - user[2]) ** 2))
    pl = radio["reference_loss_at_1m_db"] + 10.0 * radio["pathloss_exponent"] * math.log10(d)
    noise = (-174.0 + 10.0 * math.log10(radio["bandwidth_mhz"] * 1e6)
             + radio["noise_figure_db"])
    snr_db = level + radio["antenna_gain_dbi"] - pl - noise
    se = min(radio["se_cap"], math.log2(1.0 + 10.0 ** (snr_db / 10.0)))

    def prbs(rate):
        if rate == 0:
            return 0
        if se <= 0:
            return None
        return math.ceil(rate * 1e6 / (se * radio["prb_bandwidth_khz"] * 1e3))

    dl, ul = prbs(dl_mbps), prbs(ul_mbps)
    if dl is None or ul is None:
        return False, 0, 0
    return snr_db >= radio["min_snr_db"] and dl + ul <= radio["total_prbs"], dl, ul


def check_designs(out_dir: Path) -> list[str]:
    """designs.json holds SNAPSHOTS plans, and each is sound: every assigned
    link is feasible at its cell's level with the block counts the plan
    states, loads fit total_prbs and match node_loads, and covered_count
    equals the number of assigned users."""
    actual = {p.name for p in out_dir.iterdir()}
    if actual != {"designs.json"}:
        return [f"expected only designs.json, found {sorted(actual)}"]
    try:
        doc = json.loads((out_dir / "designs.json").read_text(encoding="utf-8"))
        radio, dl_mbps, ul_mbps = doc["radio"], doc["dl_mbps"], doc["ul_mbps"]
        nodes = {int(n[0]): tuple(n[1:]) for n in doc["nodes"]}
        plans = doc["snapshots"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"designs.json unreadable: {type(exc).__name__}: {exc}"]
    if len(plans) != SNAPSHOTS:
        return [f"designs.json holds {len(plans)} snapshots, expected {SNAPSHOTS}"]
    problems = []
    for i, snap in enumerate(plans):
        try:
            problems += _plan_problems(f"snapshot {i}", snap, nodes, radio,
                                       dl_mbps, ul_mbps)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"snapshot {i} malformed: {type(exc).__name__}: {exc}")
    return problems


def _plan_problems(tag, snap, nodes, radio, dl_mbps, ul_mbps) -> list[str]:
    problems = []
    users = {int(u[0]): tuple(u[1:]) for u in snap["users"]}
    plan = snap["design"]
    levels = {c["node_id"]: c["tx_power_dbm"] for c in plan["cells"]
              if c["active"] and c["node_id"] in nodes}
    loads: dict[int, int] = {}
    for uid, (nid, pdl, pul) in plan["assignment"].items():
        uid = int(uid)
        if nid not in levels or uid not in users:
            problems.append(f"{tag}: user {uid} assigned to inactive or "
                            f"unknown node {nid}")
            continue
        feasible, dl, ul = _link(nodes[nid], users[uid], levels[nid],
                                 radio, dl_mbps, ul_mbps)
        if not feasible or (pdl, pul) != (dl, ul):
            problems.append(f"{tag}: link node {nid} -> user {uid} at "
                            f"{levels[nid]} dBm is ({feasible}, {dl}, {ul}), "
                            f"plan says ({pdl}, {pul})")
        loads[nid] = loads.get(nid, 0) + pdl + pul
    for nid, load in loads.items():
        if load > radio["total_prbs"]:
            problems.append(f"{tag}: node {nid} load {load} exceeds "
                            f"{radio['total_prbs']} blocks")
        if plan["node_loads"].get(str(nid)) != load:
            problems.append(f"{tag}: node {nid} load {load}, plan says "
                            f"{plan['node_loads'].get(str(nid))}")
    if plan["covered_count"] != len(plan["assignment"]):
        problems.append(f"{tag}: covered_count {plan['covered_count']} != "
                        f"{len(plan['assignment'])} assigned users")
    return problems
