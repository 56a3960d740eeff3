"""Minute-stepped energy simulation and study metrics.

One run covers the four configured days (5760 one-minute steps by
default). ``run_pair`` places users from the run seed and designs the
network once; every step accounts each station's consumption, harvest,
battery draw, and swap events. Days are energetically independent; the
pack starts each day full while the swap counter keeps accumulating.

``run_network`` steps a pair's two runs, the arms, as one block of 1 + days
rows, one day's 1440 minutes at a time. Row 0 is the arm without the solar
feed, the same recurrence with zero charge, whose days are the same bits
and are stepped once; rows 1.. are the days with it. The tests hold it bit
for bit to a scalar reference stepped per station and minute
(tests/reference_engine.py).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .design import NetworkConfig, greedy_design
from .energy import ParameterError, pv_power
from .scenario import (MINUTES_PER_DAY, SEASONS, Scenario, WeatherError,
                       WeatherSeries, place_users)

LEDGER_COLUMNS = ("t", "node_id", "consumed_wh", "hover_wh", "mimo_wh",
                  "ris_wh", "harvested_wh", "pv_used_wh", "pv_wasted_wh",
                  "drawn_wh", "soc_wh", "swaps")
ARMS = ("without solar", "with solar")  # a PairResult's leading axis
# verify_conservation's bound on per-step and per-day accounting gaps [Wh]
CONSERVATION_TOL_WH = 1e-9


class SimulationError(RuntimeError):
    """A step failed; the message carries the minute and node involved."""


@dataclass
class PairResult:
    """A run pair: one placement, design and weather, stepped without
    (arm 0) and with (arm 1) the solar feed.

    Day totals are shaped (arms, days, stations), but for the shared
    consumed_wh, (days, stations); stations are in node_ids order. ledgers
    holds one dict per arm, mapping each LEDGER_COLUMNS name to a (day,
    minute, station) table.
    """

    seed: int
    network: NetworkConfig
    node_ids: tuple[int, ...]
    usable_capacity_wh: np.ndarray
    consumed_wh: np.ndarray
    harvested_wh: np.ndarray
    pv_used_wh: np.ndarray
    pv_wasted_wh: np.ndarray
    swaps: np.ndarray
    peak_pv_w: np.ndarray
    ledgers: tuple[dict[str, np.ndarray], ...] = field(repr=False)


def run_pair(scenario: Scenario, weather: WeatherSeries,
             seed: int) -> PairResult:
    """The without- and with-renewables runs sharing the same seed, user
    placement, network design, and weather.

    The only place where a study places users and designs a network.
    """
    users = place_users(scenario, seed)
    network = greedy_design(scenario.nodes, users, scenario.radio,
                            scenario.dl_rate_mbps, scenario.ul_rate_mbps)
    return run_network(scenario, weather, seed, network)


def run_network(scenario: Scenario, weather: WeatherSeries, seed: int,
                network: NetworkConfig) -> PairResult:
    """The without- and with-renewables runs of a designed network, stepped
    as one block of one day without and every day with the solar feed, by
    stations, over the minutes of a day.

    Deterministic given (scenario, weather, network); seed is only
    recorded. Each minute a pack first accepts its charge, up to the room
    left in the usable window, then pays the demand, and a fresh pack is
    swapped in when the charge goes negative. This reproduces a
    per-station, per-minute loop of the scalar reference in
    tests/reference_engine.py bit for bit: each station draws its
    network.power_w, constant over the run; the panel output is computed
    once for all minutes up front (zero in the arm without the solar feed);
    and since the step demand never exceeds the usable capacity a minute
    needs at most one swap. The network's cells must be the scenario's
    stations, which share one panel and one battery (else ValueError).

    Each arm's ledger columns are (day, minute, station) tables, the
    with-solar flows views of rows 1... Every repeat is a read-only
    broadcast view: the shared columns, and without solar a harvest of 0.0,
    the consumption as the draw and row 0's state of charge every day; its
    swap counter is row 0's plus the day index times row 0's count.
    """
    n_days = len(scenario.dates)
    n_steps = n_days * MINUTES_PER_DAY
    if len(weather) != n_steps:
        raise WeatherError(f"weather series has {len(weather)} minutes; "
                           f"{n_days} days need {n_steps}")

    nodes = sorted(scenario.nodes, key=lambda n: n.node_id)
    node_ids = tuple(n.node_id for n in nodes)
    if tuple(c.node_id for c in network.cells) != node_ids:
        raise ValueError(f"network designed for node ids "
                         f"{[c.node_id for c in network.cells]}, but the "
                         f"scenario's stations are {list(node_ids)}")
    pv, battery = nodes[0].pv, nodes[0].battery
    for node in nodes:
        if (node.pv, node.battery) != (pv, battery):
            raise ValueError(f"node_id={node.node_id}'s panel or battery differs"
                             f" from node_id={node_ids[0]}'s; stations share both")
    n_nodes = len(nodes)
    hours = 1.0 / 60.0

    hover_wh, mimo_wh, ris_wh = (np.array(network.power_w, dtype=float)
                                 .reshape(n_nodes, 3) * hours).T
    demand = hover_wh + mimo_wh + ris_wh
    cap = battery.usable_capacity_wh
    bad = np.flatnonzero((demand < 0) | (demand > cap))
    if bad.size:
        i = bad[0]
        raise ParameterError(f"node_id={node_ids[i]}: step demand {demand[i]} Wh "
                             f"outside [0, {cap}] Wh, the usable battery; one "
                             "battery cannot survive one step")

    # row 0 is the one day without solar, rows 1.. the days with it; the
    # panel output is the same at every station, so it is held once
    shape = (1 + n_days, MINUTES_PER_DAY, n_nodes)
    harvested = np.zeros((1 + n_days, MINUTES_PER_DAY, 1))
    harvested[1:] = (pv_power(pv, weather.ghi_wm2, weather.temp_c)
                     * hours).reshape(n_days, MINUTES_PER_DAY, 1)
    charge = harvested * battery.charge_efficiency

    accepted, soc = np.empty(shape), np.empty(shape)
    swapped = np.empty(shape, dtype=bool)
    level = cap  # days are independent: a full pack every morning
    for m in range(MINUTES_PER_DAY):
        # fmin(charge, room) is min(charge, room) even when room is NaN
        acc = np.fmin(charge[:, m], cap - level, out=accepted[:, m])
        now = np.add(level, acc, out=soc[:, m])
        np.subtract(now, demand, out=now)
        swap = np.less(now, 0.0, out=swapped[:, m])
        np.add(now, cap, out=now, where=swap)
        level = now

    over = np.argwhere(soc[:, :-1] > cap + 1e-12)
    if len(over):
        row, minute, i = over[0]
        t = max(row - 1, 0) * MINUTES_PER_DAY + minute + 1
        raise SimulationError(f"step failed at t={t}, node_id={node_ids[i]}: soc "
                              f"{soc[row, minute, i]} above usable capacity {cap}")

    pv_used = np.where(demand < accepted, demand, accepted)
    pv_wasted = charge - accepted
    arms = np.array([[0] * n_days, range(1, n_days + 1)])  # (arm, day) -> row

    def day_totals(per_step, rows=arms):
        # cumsum adds in minute order, as a running += would; indexing copies
        return np.cumsum(per_step, axis=1)[rows, -1]

    counter = np.cumsum(swapped, axis=1, dtype=np.int64)  # within each day
    swaps = counter[arms, -1]
    before = (np.cumsum(swaps, axis=1) - swaps)[:, :, None]  # on earlier days
    counter[1:] += before[1]

    table = (n_days, MINUTES_PER_DAY, n_nodes)
    shared = [np.broadcast_to(v, table) for v in (  # t, node_id, station power
        np.arange(n_steps, dtype=np.int64).reshape(n_days, MINUTES_PER_DAY, 1),
        np.array(node_ids, dtype=np.int64), demand, hover_wh, mimo_wh, ris_wh)]
    zero = np.broadcast_to(0.0, table)
    # each arm's own columns: the flows, soc_wh and swaps
    own = ((zero, zero, zero, shared[2], np.broadcast_to(soc[0], table),
            counter[0] + before[0]),
           (np.broadcast_to(harvested[1:], table), pv_used[1:], pv_wasted[1:],
            demand - pv_used[1:], soc[1:], counter[1:]))
    return PairResult(
        seed=seed, network=network, node_ids=node_ids, swaps=swaps,
        usable_capacity_wh=np.full(n_nodes, cap),
        consumed_wh=day_totals(np.broadcast_to(demand, shape)[:1], arms[0]),
        harvested_wh=np.repeat(day_totals(harvested), n_nodes, axis=2),
        pv_used_wh=day_totals(pv_used), pv_wasted_wh=day_totals(pv_wasted),
        peak_pv_w=np.repeat((harvested * 60.0).max(axis=1)[arms], n_nodes, axis=2),
        ledgers=tuple(dict(zip(LEDGER_COLUMNS, (*shared, *arm))) for arm in own))


@dataclass(frozen=True)
class SeasonStats:
    total_harvest_wh: float
    peak_harvest_w: float
    arec_percent: float
    anuc_no_res: float
    anuc_with_res: float


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


def compute_metrics(pairs: Sequence[PairResult]) -> StudyMetrics:
    """Aggregate run pairs into per-season and mean statistics; the pairs'
    days are the SEASONS in order."""
    if not pairs:
        raise ValueError("no run pairs supplied")
    n_days = len(pairs[0].consumed_wh)
    if n_days != len(SEASONS):
        raise ValueError(f"{n_days} days for {len(SEASONS)} seasons")

    seasons: dict[str, SeasonStats] = {}
    per_run: list[dict] = [{"run": r, "seed": pair.seed, "seasons": {}}
                           for r, pair in enumerate(pairs)]

    for day, name in enumerate(SEASONS):
        harvest_means = []
        peak = 0.0
        for run, pair in zip(per_run, pairs):
            harvest_means.append(float(np.mean(pair.harvested_wh[1, day])))
            peak = max(peak, float(np.max(pair.peak_pv_w[1, day])))
            consumed = float(np.sum(pair.consumed_wh[day]))
            used = float(np.sum(pair.pv_used_wh[1, day]))
            run["seasons"][name] = {
                "consumed_wh": consumed,
                "harvested_wh": float(np.sum(pair.harvested_wh[1, day])),
                "pv_used_wh": used,
                "pv_wasted_wh": float(np.sum(pair.pv_wasted_wh[1, day])),
                "arec_percent": 100.0 * used / consumed if consumed > 0 else 0.0,
                "anuc_no_res": float(np.mean(pair.swaps[0, day])),
                "anuc_with_res": float(np.mean(pair.swaps[1, day])),
            }
        rows = [run["seasons"][name] for run in per_run]
        seasons[name] = SeasonStats(
            total_harvest_wh=float(np.mean(harvest_means)),
            peak_harvest_w=peak,
            **{key: float(np.mean([row[key] for row in rows]))
               for key in ("arec_percent", "anuc_no_res", "anuc_with_res")})

    mean = SeasonStats(**{f.name: float(np.mean([getattr(s, f.name)
                                                  for s in seasons.values()]))
                          for f in fields(SeasonStats)})
    return StudyMetrics(season_names=SEASONS, seasons=seasons, mean=mean,
                        per_run=per_run)


def _check_days(gap: np.ndarray, limit: float, what: str) -> None:
    bad = np.flatnonzero(~(gap <= limit))  # a NaN gap is bad too
    if len(bad):
        raise SimulationError(f"day {bad[0]}: {what} by {gap[bad[0]]}")


def _check_stations(bad: np.ndarray, node_ids, describe) -> None:
    """Raise for the first (day, station) where bad holds, with the text
    describe(day, station index) gives."""
    where = np.argwhere(bad)
    if len(where):
        day, i = where[0]
        raise SimulationError(f"day {day}, node_id={node_ids[i]}: "
                              f"{describe(day, i)}")


def verify_conservation(pair: PairResult) -> None:
    """Check the accounting identities of both arms of a pair.

    Raises SimulationError on the first violated identity, naming the arm:
    every day total and peak is finite; per step, consumed == drawn +
    pv_used and 0 <= soc <= the station's usable capacity; per day, the
    consumed and pv_used totals match the ledger's sums and so does the
    AREC computed from them; without solar, each station's swaps on each
    day are floor(E/U) for its day's consumption E and usable capacity U;
    every station's swaps on each day equal the rise of the ledger's
    never-decreasing swap counter over that day. The checks are written so
    that a NaN fails them.
    """
    for arm, name in enumerate(ARMS):
        try:
            _verify_arm(pair, arm)
        except SimulationError as exc:
            raise SimulationError(f"{name}: {exc}") from None


def _verify_arm(pair: PairResult, arm: int) -> None:
    tol = CONSERVATION_TOL_WH
    led = pair.ledgers[arm]
    totals = {"consumed_wh": pair.consumed_wh,
              **{name: getattr(pair, name)[arm] for name in (
                  "harvested_wh", "pv_used_wh", "pv_wasted_wh", "peak_pv_w")}}
    for name, per_day in totals.items():
        _check_stations(~np.isfinite(per_day), pair.node_ids,
                        lambda d, i: f"{name} is {per_day[d, i]}, not finite")
    gap = np.abs(led["consumed_wh"] - (led["drawn_wh"] + led["pv_used_wh"]))
    if not gap.max() <= tol:
        raise SimulationError(f"per-step conservation violated by {gap.max()}")
    if not (led["soc_wh"] >= -tol).all():
        raise SimulationError("negative or NaN state of charge")
    over = (led["soc_wh"] - pair.usable_capacity_wh).max()
    if not over <= tol:
        raise SimulationError(f"state of charge exceeds usable capacity by {over}")
    if not (np.diff(led["swaps"].reshape(-1, len(pair.node_ids)), axis=0)
            >= 0).all():
        raise SimulationError("swap counter decreased")
    sums = {}  # per day: (from the ledger, from the day totals)
    for name in ("consumed_wh", "pv_used_wh"):
        sums[name] = led[name].sum(axis=(1, 2)), totals[name].sum(axis=1)
        _check_days(np.abs(sums[name][0] - sums[name][1]),
                    tol * led[name][0].size,
                    f"{name} day totals differ from the ledger")
    # AREC as compute_metrics reports it: 100 * pv_used / consumed, else 0
    arec = [100.0 * used / np.where(consumed > 0, consumed, np.inf)
            for used, consumed in zip(sums["pv_used_wh"], sums["consumed_wh"])]
    _check_days(np.abs(arec[0] - arec[1]), 1e-9,
                "AREC from the ledger differs from the day totals' AREC")
    swaps = pair.swaps[arm]
    if arm == 0:
        # constant load, no charge: floor(E/U) swaps a day, except where E/U
        # sits within 1e-6 of a whole number and the count is knife-edge
        ratio = pair.consumed_wh / pair.usable_capacity_wh
        knife_edge = np.abs(ratio - np.round(ratio)) < 1e-6
        _check_stations((swaps != np.floor(ratio)) & ~knife_edge, pair.node_ids,
                        lambda d, i: f"{swaps[d, i]} swaps without solar, closed "
                                     f"form floor(E/U) gives {np.floor(ratio[d, i]):.0f}")
    # each day's count is the rise of the ledger's cumulative swaps column
    rises = np.diff(led["swaps"][:, -1], axis=0, prepend=0)
    _check_stations(swaps != rises, pair.node_ids, lambda d, i: (
        f"{swaps[d, i]} swaps, but the ledger's swaps column rose by "
        f"{rises[d, i]}"))
