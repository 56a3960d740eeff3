"""Test-only oracle: one station's battery over one minute, in floats.

This is the scalar recurrence that engine.run_network computes over arrays
shaped (arms, days, stations). Stepped once per station and minute, it is
the reference the equivalence tests hold run_network to bit for bit; no
production code calls it.
"""


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
