"""Design the cell plan for several user snapshots of one network.

The `design_sweep` workload's operation: it places users and runs the
greedy designer once for each of SNAPSHOTS snapshots (seeds seed,
seed + 1, ...), nothing else, then writes the plans and the inputs they
were designed for to <out>/designs.json so the benchmark can check them
outside the timed region.

    PYTHONPATH=src python3 perfbench/design_sweep.py \
        --config dense.json --seed 7 --out plans/
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

SNAPSHOTS = 3


def run(config: str, seed: int, out: str) -> None:
    # Imported here, so that the benchmark's parent process and its checker
    # can read SNAPSHOTS without importing the program under test.
    from solarran import design, scenario

    sc = scenario.load_config(config)
    plans = []
    for snap_seed in range(seed, seed + SNAPSHOTS):
        users = scenario.place_users(sc, snap_seed)
        net = design.greedy_design(sc.nodes, users, sc.radio,
                                   sc.dl_rate_mbps, sc.ul_rate_mbps)
        plans.append({"seed": snap_seed,
                      "users": [[u.user_id, u.position.x, u.position.y,
                                 u.position.z] for u in users],
                      "design": net.to_dict()})
    doc = {"radio": dataclasses.asdict(sc.radio),
           "dl_mbps": sc.dl_rate_mbps, "ul_mbps": sc.ul_rate_mbps,
           "nodes": [[n.node_id, n.position.x, n.position.y, n.position.z]
                     for n in sc.nodes],
           "snapshots": plans}
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "designs.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run(args.config, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
