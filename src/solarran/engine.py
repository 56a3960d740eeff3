"""Minute-stepped energy simulation and study metrics.

One run covers the four configured days (5760 one-minute steps by
default). ``run_pair`` places users from the run seed and designs the
network once; every step accounts each station's consumption, harvest,
battery draw, and swap events. Days are energetically independent; the
pack starts each day full while the swap counter keeps accumulating.

``run_network`` steps a pair's two runs as one block shaped (arms, days,
stations), one day's 1440 minutes at a time; the arm without the solar
feed is the same recurrence with zero charge. ``step`` is the scalar
reference for one station and one minute, which the tests hold the array
recurrence to bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .design import (NetworkConfig, greedy_design, served_counts,
                     station_power_w)
from .energy import (BatteryState, battery_step, mimo_power, pv_power,
                     ris_power, uav_hover_power)
from .scenario import (MINUTES_PER_DAY, AccessNode, Scenario, WeatherError,
                       WeatherSeries, place_users)

LEDGER_COLUMNS = ("t", "node_id", "consumed_wh", "hover_wh", "mimo_wh",
                  "ris_wh", "harvested_wh", "pv_used_wh", "pv_wasted_wh",
                  "drawn_wh", "soc_wh", "swaps")


class SimulationError(RuntimeError):
    """A step failed; the message carries the minute and node involved."""


@dataclass(frozen=True)
class StepLedgerEntry:
    """Energy flows of one node over one step, all in Wh."""

    node_id: int
    t: int
    consumed_wh: float
    hover_wh: float
    mimo_wh: float
    ris_wh: float
    harvested_wh: float
    pv_used_wh: float
    pv_wasted_wh: float
    drawn_from_battery_wh: float
    soc_after_wh: float
    swaps_so_far: int


@dataclass
class RunResult:
    """Per-day, per-node energy totals of one simulation run.

    Array shapes are (n_days, n_nodes); the full per-step ledger is kept as
    column arrays (row order: minute-major, then node id).
    usable_capacity_wh holds each station's usable battery window, in
    node_ids order, which bounds its state of charge.
    """

    seed: int
    with_res: bool
    network: NetworkConfig
    dates: tuple
    node_ids: tuple[int, ...]
    usable_capacity_wh: np.ndarray
    consumed_wh: np.ndarray
    harvested_wh: np.ndarray
    pv_used_wh: np.ndarray
    pv_wasted_wh: np.ndarray
    drawn_wh: np.ndarray
    swaps: np.ndarray
    peak_pv_w: np.ndarray
    ledger: dict[str, np.ndarray] = field(repr=False)


def step(node: AccessNode, state: BatteryState, active: bool,
         served_users: int, tx_power_dbm: float, ghi_wm2: float,
         temp_c: float, with_res: bool, t: int,
         dt_minutes: float = 1.0) -> tuple[BatteryState, StepLedgerEntry]:
    """Advance one node by one step of dt_minutes (the scalar reference).

    Consumption is hover plus transceiver plus reflective-surface power for
    the step duration; harvest is the panel output over the same window
    when the renewable feed is enabled, zero otherwise.
    """
    hours = dt_minutes / 60.0
    hover_wh = uav_hover_power(node.airframe) * hours
    mimo_wh = mimo_power(node.mimo, active, served_users, tx_power_dbm) * hours
    ris_wh = ris_power(node.ris) * hours
    consumed = hover_wh + mimo_wh + ris_wh
    if with_res:
        harvested = pv_power(node.pv, ghi_wm2, temp_c) * hours
    else:
        harvested = 0.0
    new_state, flows = battery_step(state, node.battery, consumed, harvested)
    entry = StepLedgerEntry(
        node_id=node.node_id, t=t, consumed_wh=consumed, hover_wh=hover_wh,
        mimo_wh=mimo_wh, ris_wh=ris_wh, harvested_wh=harvested,
        pv_used_wh=flows.pv_used_wh, pv_wasted_wh=flows.pv_wasted_wh,
        drawn_from_battery_wh=flows.drawn_from_battery_wh,
        soc_after_wh=new_state.soc_wh, swaps_so_far=new_state.swap_count)
    return new_state, entry


def _step_error(t: int, node_id: int, problem) -> SimulationError:
    return SimulationError(f"step failed at t={t}, node_id={node_id}: {problem}")


def run_pair(scenario: Scenario, weather: WeatherSeries,
             seed: int) -> tuple[RunResult, RunResult]:
    """One without-renewables and one with-renewables run sharing the same
    seed, user placement, network design, and weather.

    The only place where a study places users and designs a network.
    """
    users = place_users(scenario, seed)
    network = greedy_design(scenario.nodes, users, scenario.radio,
                            scenario.dl_rate_mbps, scenario.ul_rate_mbps)
    return run_network(scenario, weather, seed, network)


def run_network(scenario: Scenario, weather: WeatherSeries, seed: int,
                network: NetworkConfig) -> tuple[RunResult, RunResult]:
    """The without- and with-renewables runs of a designed network, stepped
    as one block shaped (arms, days, stations) over the minutes of a day.

    Deterministic given (scenario, weather, network); seed is only
    recorded. It reproduces a loop of the scalar ``step`` bit for bit:
    each station draws what station_power_w gives its cell, constant over
    the run; the panel output is computed for all minutes up front (zero
    in the arm without the solar feed); and since the step demand never
    exceeds the usable capacity a minute needs at most one swap.
    """
    n_days = len(scenario.dates)
    n_steps = n_days * MINUTES_PER_DAY
    if len(weather) != n_steps:
        raise WeatherError(f"weather series has {len(weather)} minutes; "
                           f"{n_days} days need {n_steps}")

    served = served_counts(network.assignment.users)
    cell_by_node = {c.node_id: c for c in network.cells}

    nodes = sorted(scenario.nodes, key=lambda n: n.node_id)
    node_ids = tuple(n.node_id for n in nodes)
    n_nodes = len(nodes)
    hours = 1.0 / 60.0

    draws = []
    for node in nodes:
        try:
            draws.append([w * hours for w in station_power_w(
                node, cell_by_node[node.node_id].tx_power_dbm,
                served.get(node.node_id, 0))])
        except ValueError as exc:
            raise _step_error(0, node.node_id, exc) from exc
    hover_wh, mimo_wh, ris_wh = np.array(draws, dtype=float).reshape(n_nodes, 3).T
    demand = hover_wh + mimo_wh + ris_wh
    cap = np.array([n.battery.usable_capacity_wh for n in nodes], dtype=float)
    bad = np.flatnonzero((demand < 0) | (demand > cap))
    if bad.size:
        i = bad[0]
        raise _step_error(0, node_ids[i],
                          f"step demand {demand[i]} Wh outside [0, {cap[i]}] Wh; "
                          "one battery cannot survive one step")

    shape = (2, n_days, MINUTES_PER_DAY, n_nodes)
    harvested = np.zeros(shape)
    bad = np.flatnonzero(weather.ghi_wm2 < 0)
    if bad.size and n_nodes:
        t = int(bad[0])
        raise _step_error(t, node_ids[0],
                          f"ghi must be >= 0, got {weather.ghi_wm2[t]}")
    for i, node in enumerate(nodes):
        harvested[1, ..., i] = (pv_power(
            node.pv, weather.ghi_wm2, weather.temp_c) * hours).reshape(
                n_days, MINUTES_PER_DAY)
    charge = harvested * np.array([n.battery.charge_efficiency for n in nodes],
                                  dtype=float)

    accepted = np.empty(shape)
    soc = np.empty(shape)
    swapped = np.empty(shape, dtype=bool)
    level = cap  # days are independent: a full pack every morning
    for m in range(MINUTES_PER_DAY):
        # fmin(charge, room) is min(charge, room) even when room is NaN
        acc = np.fmin(charge[:, :, m], cap - level, out=accepted[:, :, m])
        now = np.add(level, acc, out=soc[:, :, m])
        np.subtract(now, demand, out=now)
        swap = np.less(now, 0.0, out=swapped[:, :, m])
        np.add(now, cap, out=now, where=swap)
        level = now

    over = np.argwhere(soc[:, :, :-1] > cap + 1e-12)
    if len(over):
        arm, day, minute, i = over[0]
        raise _step_error(int(day * MINUTES_PER_DAY + minute + 1), node_ids[i],
                          f"soc {soc[arm, day, minute, i]} above usable "
                          f"capacity {cap[i]}")

    consumed = np.broadcast_to(demand, shape[1:])
    pv_used = np.where(consumed < accepted, consumed, accepted)
    drawn = consumed - pv_used
    pv_wasted = charge - accepted

    def day_totals(per_step):
        # cumsum adds in minute order, as a running += would; a copy pins no buffer
        return np.cumsum(per_step, axis=1)[:, -1].copy()

    # the columns that do not depend on the arm are shared by its ledgers
    common = {
        "t": np.repeat(np.arange(n_steps, dtype=np.int64), n_nodes),
        "node_id": np.tile(np.array(node_ids, dtype=np.int64), n_steps),
        "consumed_wh": np.tile(demand, n_steps),
        "hover_wh": np.tile(hover_wh, n_steps),
        "mimo_wh": np.tile(mimo_wh, n_steps),
        "ris_wh": np.tile(ris_wh, n_steps),
    }
    results = []
    for a, with_res in enumerate((False, True)):
        ledger = {**common,
                  "harvested_wh": harvested[a].ravel(),
                  "pv_used_wh": pv_used[a].ravel(),
                  "pv_wasted_wh": pv_wasted[a].ravel(),
                  "drawn_wh": drawn[a].ravel(),
                  "soc_wh": soc[a].ravel(),
                  "swaps": np.cumsum(swapped[a].reshape(n_steps, n_nodes),
                                     axis=0, dtype=np.int64).ravel()}
        results.append(RunResult(
            seed=seed, with_res=with_res, network=network,
            dates=tuple(scenario.dates), node_ids=node_ids,
            usable_capacity_wh=cap, consumed_wh=day_totals(consumed),
            harvested_wh=day_totals(harvested[a]),
            pv_used_wh=day_totals(pv_used[a]),
            pv_wasted_wh=day_totals(pv_wasted[a]),
            drawn_wh=day_totals(drawn[a]),
            swaps=swapped[a].sum(axis=1, dtype=np.int64),
            peak_pv_w=(harvested[a] * 60.0).max(axis=1),
            ledger=ledger))
    return tuple(results)


@dataclass(frozen=True)
class SeasonStats:
    total_harvest_wh: float
    peak_harvest_w: float
    arec_percent: float
    anuc_no_res: float
    anuc_with_res: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StudyMetrics:
    """The study's headline numbers.

    total_harvest_wh: harvested energy per station per day, averaged over
    runs and stations. peak_harvest_w: highest instantaneous panel output.
    arec_percent: share of consumption offset by harvested energy,
    100 * sum(pv_used) / sum(consumed), averaged over runs.
    anuc_*: battery swaps per station per day, averaged over runs and
    stations, without and with the solar feed. ``mean`` is the arithmetic
    mean of the four season rows.
    """

    season_names: tuple[str, ...]
    seasons: dict[str, SeasonStats]
    mean: SeasonStats
    per_run: list[dict]

    def to_dict(self) -> dict:
        return {**asdict(self), "season_names": list(self.season_names)}


def compute_metrics(pairs: Sequence[tuple[RunResult, RunResult]],
                    season_names: Sequence[str] = ("spring", "summer",
                                                   "autumn", "winter")
                    ) -> StudyMetrics:
    """Aggregate paired runs into per-season and mean statistics.

    Each pair must hold (without-renewables, with-renewables) runs sharing
    the same seed and dates; anything else is refused.
    """
    if not pairs:
        raise ValueError("no run pairs supplied")
    for no_res, with_res in pairs:
        if no_res.with_res or not with_res.with_res:
            raise ValueError("each pair must be (without-RES, with-RES)")
        if no_res.seed != with_res.seed or no_res.dates != with_res.dates:
            raise ValueError(
                f"mismatched pair: seeds {no_res.seed}/{with_res.seed}, "
                f"dates {no_res.dates}/{with_res.dates}")
        if no_res.harvested_wh.any():
            raise ValueError("without-RES member reports nonzero harvest")
    n_days = len(pairs[0][0].dates)
    if len(season_names) != n_days:
        raise ValueError(f"{len(season_names)} season names for {n_days} days")

    seasons: dict[str, SeasonStats] = {}
    per_run: list[dict] = [
        {"run": r, "seed": pair[0].seed, "seasons": {}}
        for r, pair in enumerate(pairs)]

    for day, name in enumerate(season_names):
        harvest_means = []
        arecs = []
        anuc_no = []
        anuc_with = []
        peak = 0.0
        for r, (no_res, with_res) in enumerate(pairs):
            harvest_means.append(float(np.mean(with_res.harvested_wh[day])))
            consumed = float(np.sum(with_res.consumed_wh[day]))
            used = float(np.sum(with_res.pv_used_wh[day]))
            arec = 100.0 * used / consumed if consumed > 0 else 0.0
            arecs.append(arec)
            anuc_no.append(float(np.mean(no_res.swaps[day])))
            anuc_with.append(float(np.mean(with_res.swaps[day])))
            peak = max(peak, float(np.max(with_res.peak_pv_w[day])))
            per_run[r]["seasons"][name] = {
                "consumed_wh": consumed,
                "harvested_wh": float(np.sum(with_res.harvested_wh[day])),
                "pv_used_wh": used,
                "pv_wasted_wh": float(np.sum(with_res.pv_wasted_wh[day])),
                "arec_percent": arec,
                "anuc_no_res": float(np.mean(no_res.swaps[day])),
                "anuc_with_res": float(np.mean(with_res.swaps[day])),
            }
        seasons[name] = SeasonStats(
            total_harvest_wh=float(np.mean(harvest_means)),
            peak_harvest_w=peak,
            arec_percent=float(np.mean(arecs)),
            anuc_no_res=float(np.mean(anuc_no)),
            anuc_with_res=float(np.mean(anuc_with)))

    mean = SeasonStats(**{f.name: float(np.mean([getattr(s, f.name)
                                                  for s in seasons.values()]))
                          for f in fields(SeasonStats)})
    return StudyMetrics(season_names=tuple(season_names), seasons=seasons,
                        mean=mean, per_run=per_run)


def verify_conservation(result: RunResult, tol: float = 1e-9) -> None:
    """Check the per-step and per-run accounting identities of a ledger.

    Raises SimulationError on the first violated identity: per step,
    consumed == drawn + pv_used and 0 <= soc <= the station's usable
    capacity; per run, the swap counter never decreases and the day totals
    match the ledger.
    The checks are written so that a NaN fails them.
    """
    led = result.ledger
    n_nodes = len(result.node_ids)
    gap = np.abs(led["consumed_wh"] - (led["drawn_wh"] + led["pv_used_wh"]))
    if not gap.max() <= tol:
        raise SimulationError(f"per-step conservation violated by {gap.max()}")
    soc = led["soc_wh"].reshape(-1, n_nodes)
    if not (soc >= -tol).all():
        raise SimulationError("negative or NaN state of charge")
    over = soc - result.usable_capacity_wh
    if not over.max() <= tol:
        raise SimulationError(
            f"state of charge exceeds usable capacity by {over.max()}")
    swaps = led["swaps"].reshape(-1, n_nodes)
    if not (np.diff(swaps, axis=0) >= 0).all():
        raise SimulationError("swap counter decreased")
    for name, totals in (("consumed_wh", result.consumed_wh),
                         ("pv_used_wh", result.pv_used_wh)):
        gap = abs(float(led[name].sum()) - float(totals.sum()))
        if not gap <= tol * len(led[name]):
            raise SimulationError(f"{name} day totals differ from the ledger by {gap}")
