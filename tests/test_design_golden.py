"""Golden network designs: fixed inputs must keep producing the same plan.

The hashes pin json.dumps(greedy_design(...).to_dict()) for the dense
49-station/1000-user network and for the default scenario, so any change
to the link budget or the greedy designer that alters one user's cell,
one block count or one bit of total_power_w fails here. A design sees only
the links the greedy picks; the link-table golden pins every entry of the
dense network's table, the infeasible and the boundary-guarded ones too.
The brute-force golden pins the exhaustive oracle's plans the same way.
"""

import hashlib
import json
import random
import tracemalloc

import pytest

import solarran
from solarran.cli import _load_instance
from solarran.design import brute_force_design, greedy_design
from solarran.energy import Equipment
from solarran.radio import MAX_TOTAL_PRBS, Position, RadioParams, link_table
from solarran.scenario import (AccessNode, UserTerminal, place_users,
                               scenario_from_dict)


def dense_config() -> dict:
    """49 stations on a 7x7 grid of cell centres over the default 3 km
    square, 1000 users at 20/5 Mbps."""
    side, width = 7, 3000.0
    layout = [{"id": j * side + i,
               "x": width * (2 * i + 1) / (2 * side),
               "y": width * (2 * j + 1) / (2 * side)}
              for j in range(side) for i in range(side)]
    return {"users": {"count": 1000, "dl_mbps": 20.0, "ul_mbps": 5.0},
            "nodes": {"layout": layout}}


GOLDEN_DESIGNS = [
    ("dense", 7, "a64ee7abf017a3656fa39d94e6d92d0bb4212e7d672d8fdc2e2af5a811aa288b"),
    ("default", 42, "fff9c33af33d500e36dfda2f3f1241350fd28a035e4ff9d12fd3899de0c8b062"),
    ("default", 43, "162d608138eb5d2e927b478355687dd886268e9fe362983811ab9907f1211362"),
    ("default", 44, "4066284ecc80f20067a79cdbef39746ba941b1d63a30a1799585bd69c81ac5af"),
]


@pytest.mark.parametrize("config, seed, digest", GOLDEN_DESIGNS,
                         ids=[f"{c}-{s}" for c, s, _ in GOLDEN_DESIGNS])
def test_golden_design(config, seed, digest):
    sc = scenario_from_dict(dense_config() if config == "dense" else {})
    net = greedy_design(sc.nodes, place_users(sc, seed), sc.radio,
                        sc.dl_rate_mbps, sc.ul_rate_mbps)
    got = hashlib.sha256(json.dumps(net.to_dict()).encode()).hexdigest()
    assert got == digest


# (seed, nodes, users, total_prbs, dl_mbps, ul_mbps) of the seeded oracle
# instances: tight budgets that leave users out, and budgets whose
# total_prbs + 1 needs 8, 16 and 32 bits.
ORACLE_INSTANCES = [(1, 2, 6, 40, 50.0, 10.0), (2, 3, 8, 80, 25.0, 5.0),
                    (3, 4, 10, 273, 50.0, 10.0), (4, 4, 10, 20, 10.0, 2.5),
                    (5, 4, 10, 255, 100.0, 25.0),
                    (6, 3, 9, 65_535, 100.0, 0.0),
                    (7, 4, 8, MAX_TOTAL_PRBS, 50.0, 10.0)]
GOLDEN_BRUTE_FORCE = "5f544f6554f912b0f23ff93089db0f00cdcf5cd028218a01272782cfffb3914e"


def oracle_instances():
    """brute_force_design's arguments for the bundled oracle instance, then
    for each of ORACLE_INSTANCES: nodes and users at uniform spots of a
    1.2 km square."""
    nodes, users, sc = _load_instance(solarran.example_oracle_instance_path())
    yield nodes, users, sc.radio, sc.dl_rate_mbps, sc.ul_rate_mbps, sc.equipment
    for seed, n_nodes, n_users, total_prbs, dl, ul in ORACLE_INSTANCES:
        rng = random.Random(seed)
        nodes = [AccessNode(node_id=i, position=Position(
            rng.uniform(0, 1200), rng.uniform(0, 1200), 50.0))
            for i in range(n_nodes)]
        users = [UserTerminal(user_id=i, position=Position(
            rng.uniform(0, 1200), rng.uniform(0, 1200), 1.5))
            for i in range(n_users)]
        yield nodes, users, RadioParams(total_prbs=total_prbs), dl, ul, Equipment()


def test_golden_brute_force_design():
    plans = [brute_force_design(*args).to_dict() for args in oracle_instances()]
    got = hashlib.sha256(json.dumps(plans).encode()).hexdigest()
    assert got == GOLDEN_BRUTE_FORCE


def dense_link_inputs(seed: int) -> tuple:
    """link_table's arguments for the dense network and one user snapshot,
    nodes and users in id order, as the designers pass them."""
    sc = scenario_from_dict(dense_config())
    nodes = sorted(sc.nodes, key=lambda n: n.node_id)
    users = sorted(place_users(sc, seed), key=lambda u: u.user_id)
    return ([(n.position.x, n.position.y, n.position.z) for n in nodes],
            [(u.position.x, u.position.y, u.position.z) for u in users],
            sc.radio, sc.dl_rate_mbps, sc.ul_rate_mbps)


GOLDEN_LINK_TABLE = "0fbd2b04087d167344a2b0c1f8c35ef1e82068b01acfaeccd3e13b4410dface5"


def test_golden_link_table():
    h = hashlib.sha256()
    for a in link_table(*dense_link_inputs(7)):
        assert a.flags.c_contiguous
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == GOLDEN_LINK_TABLE


def test_link_table_memory_is_bounded():
    # link_table works one power level at a time, so beyond its three
    # results it holds only a few (nodes, users) slices
    args = dense_link_inputs(7)
    tracemalloc.start()
    try:
        tables = link_table(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = sum(a.nbytes for a in tables)
    assert peak <= 3 * result_bytes, (peak, result_bytes)


def test_greedy_design_memory_is_bounded():
    # greedy_design evaluates links a block of nodes at a time and keeps
    # only narrow integer block costs and downlink shares and each (node,
    # level) row's first-fit data, never the whole float64 table
    result_bytes = sum(a.nbytes for a in link_table(*dense_link_inputs(7)))
    sc = scenario_from_dict(dense_config())
    args = (sc.nodes, place_users(sc, 7), sc.radio, sc.dl_rate_mbps,
            sc.ul_rate_mbps)
    tracemalloc.start()
    try:
        greedy_design(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * result_bytes, (peak, result_bytes)
