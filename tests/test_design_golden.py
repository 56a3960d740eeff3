"""Golden network designs: fixed inputs must keep producing the same plan.

The hashes pin json.dumps(greedy_design(...).to_dict()) for the dense
49-station/1000-user network and for the default scenario, so any change
to the link budget or the greedy designer that alters one user's cell,
one block count or one bit of total_power_w fails here. A design sees only
the links the greedy picks; the link-table golden pins every entry of the
dense network's table, the infeasible and the boundary-guarded ones too.
"""

import hashlib
import json
import tracemalloc

import pytest

from solarran.design import greedy_design
from solarran.radio import link_table
from solarran.scenario import place_users, scenario_from_dict


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


def dense_link_inputs(seed: int) -> tuple:
    """link_table's arguments for the dense network and one user snapshot,
    nodes and users in id order as design.enumerate_candidates passes them."""
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
    # only compact block counts and each (node, level) row's first-fit data,
    # never the whole table
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
