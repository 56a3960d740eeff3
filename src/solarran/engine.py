"""Minute-stepped energy simulation and study metrics.

One run covers the four configured days (5760 one-minute steps by
default). ``run_pair`` places users from the run seed and designs the
network once; every step accounts each station's consumption, harvest,
battery draw, and swap events. Days are energetically independent; the
pack starts each day full while the swap counter keeps accumulating.

``run_network`` steps a pair's two runs, the arms, as one block shaped
(arms, days, stations), one day's 1440 minutes at a time; the arm without
the solar feed is the same recurrence with zero charge. It returns one
PairResult, whose ledgers keep the block's (arms, minutes, stations) shape.
The tests hold it bit for bit to a scalar reference stepped per station
and minute (tests/reference_engine.py).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .design import (NetworkConfig, greedy_design, served_counts,
                     station_power_w)
from .energy import pv_power
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
    maps each LEDGER_COLUMNS name to an (arms, minutes, stations) block.
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
    ledgers: dict[str, np.ndarray] = field(repr=False)

    def ledger(self, arm: int) -> dict[str, np.ndarray]:
        """One arm's ledger: each column as a (minute, station) table."""
        return {name: column[arm] for name, column in self.ledgers.items()}


def _step_error(t: int, node_id: int, problem) -> SimulationError:
    return SimulationError(f"step failed at t={t}, node_id={node_id}: {problem}")


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
    as one block shaped (arms, days, stations) over the minutes of a day.

    Deterministic given (scenario, weather, network); seed is only
    recorded. Each minute a pack first accepts its charge, up to the room
    left in the usable window, then pays the demand, and a fresh pack is
    swapped in when the charge goes negative. This reproduces a
    per-station, per-minute loop of the scalar reference in
    tests/reference_engine.py bit for bit: each station draws what
    station_power_w gives its cell, constant over the run; the panel output
    is computed for all minutes up front (zero in the arm without the solar
    feed); and since the step demand never exceeds the usable capacity a
    minute needs at most one swap.

    The ledger's flows are the stepped blocks reshaped to (arms, minutes,
    stations); the arm-independent columns are read-only broadcast views.
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
    pv_wasted = charge - accepted

    def day_totals(per_step):
        # cumsum adds in minute order, as a running += would; a copy pins no buffer
        return np.cumsum(per_step, axis=-2)[..., -1, :].copy()

    table = (2, n_steps, n_nodes)
    return PairResult(
        seed=seed, network=network, node_ids=node_ids, usable_capacity_wh=cap,
        consumed_wh=day_totals(consumed), harvested_wh=day_totals(harvested),
        pv_used_wh=day_totals(pv_used), pv_wasted_wh=day_totals(pv_wasted),
        swaps=swapped.sum(axis=2, dtype=np.int64),
        peak_pv_w=(harvested * 60.0).max(axis=2),
        ledgers=dict(zip(LEDGER_COLUMNS, (  # t, node_id, power, flows, swaps
            np.broadcast_to(np.arange(n_steps, dtype=np.int64)[:, None], table),
            np.broadcast_to(np.array(node_ids, dtype=np.int64), table),
            *(np.broadcast_to(v, table)
              for v in (demand, hover_wh, mimo_wh, ris_wh)),
            *(v.reshape(table) for v in (harvested, pv_used, pv_wasted,
                                         consumed - pv_used, soc)),
            np.cumsum(swapped.reshape(table), axis=1, dtype=np.int64)))))


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
    led = pair.ledger(arm)
    n_days = len(pair.consumed_wh)
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
    if not (np.diff(led["swaps"], axis=0) >= 0).all():
        raise SimulationError("swap counter decreased")
    sums = {}  # per day: (from the ledger, from the day totals)
    for name in ("consumed_wh", "pv_used_wh"):
        per_day = led[name].reshape(n_days, MINUTES_PER_DAY, -1)
        sums[name] = per_day.sum(axis=(1, 2)), totals[name].sum(axis=1)
        _check_days(np.abs(sums[name][0] - sums[name][1]),
                    tol * per_day[0].size,
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
    rises = np.diff(led["swaps"].reshape(n_days, MINUTES_PER_DAY, -1)[:, -1],
                    axis=0, prepend=0)
    _check_stations(swaps != rises, pair.node_ids, lambda d, i: (
        f"{swaps[d, i]} swaps, but the ledger's swaps column rose by "
        f"{rises[d, i]}"))
