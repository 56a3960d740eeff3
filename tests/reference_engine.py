"""Test-only oracles, in floats: one station's battery over one minute, and
the study metrics as a season-by-run loop.

reference_step is the scalar recurrence that engine.run_network computes
over arrays shaped (arms, days, stations). Stepped once per station and
minute, it is the reference the equivalence tests hold run_network to bit
for bit. reference_metrics is the loop that engine.compute_metrics computes
from (day, run) arrays, held to it bit for bit the same way. No production
code calls either.
"""

import numpy as np

from solarran.scenario import SEASONS


def reference_step(soc_wh, swaps, usable_wh, charge_efficiency, demand_wh,
                   harvested_wh):
    """Charge first, then discharge: accept min(harvested * efficiency,
    usable - soc), subtract the demand, and swap in a fresh pack each time
    the charge goes negative, carrying the deficit over.

    pv_used is the part of the demand met by the charge accepted this
    minute, so demand == drawn + pv_used exactly; pv_wasted is the charge
    the full pack refused, counted after efficiency.
    Returns (soc_wh, swaps, pv_used_wh, pv_wasted_wh, drawn_wh).
    """
    charge = harvested_wh * charge_efficiency
    accepted = min(charge, usable_wh - soc_wh)
    pv_used = min(accepted, demand_wh)
    soc_wh = soc_wh + accepted - demand_wh
    while soc_wh < 0:
        swaps += 1
        soc_wh += usable_wh
    return soc_wh, swaps, pv_used, charge - accepted, demand_wh - pv_used


def reference_metrics(pairs):
    """StudyMetrics.to_dict() of compute_metrics(pairs), one season and run
    at a time: per run, each season's station sums and means as Python
    floats; per season, the run means and the highest peak, at least 0.0;
    and the mean of the four season rows."""
    per_run = [{"run": r, "seed": p.seed, "seasons": {}}
               for r, p in enumerate(pairs)]
    seasons = {}
    for day, name in enumerate(SEASONS):
        harvest_means, peak = [], 0.0
        for run, p in zip(per_run, pairs):
            harvest_means.append(float(np.mean(p.harvested_wh[1, day])))
            peak = max(peak, float(np.max(p.peak_pv_w[1, day])))
            consumed = float(np.sum(p.consumed_wh[day]))
            used = float(np.sum(p.pv_used_wh[1, day]))
            run["seasons"][name] = {
                "consumed_wh": consumed,
                "harvested_wh": float(np.sum(p.harvested_wh[1, day])),
                "pv_used_wh": used,
                "pv_wasted_wh": float(np.sum(p.pv_wasted_wh[1, day])),
                "arec_percent": 100.0 * used / consumed if consumed > 0 else 0.0,
                "anuc_no_res": float(np.mean(p.swaps[0, day])),
                "anuc_with_res": float(np.mean(p.swaps[1, day])),
            }
        rows = [run["seasons"][name] for run in per_run]
        seasons[name] = {
            "total_harvest_wh": float(np.mean(harvest_means)),
            "peak_harvest_w": peak,
            **{key: float(np.mean([row[key] for row in rows]))
               for key in ("arec_percent", "anuc_no_res", "anuc_with_res")}}
    mean = {key: float(np.mean([s[key] for s in seasons.values()]))
            for key in seasons[SEASONS[0]]}
    return {"season_names": list(SEASONS), "seasons": seasons, "mean": mean,
            "per_run": per_run}
