"""The array link table and the array greedy against their scalar references.

radio.link_table must give, for every (node, user, level), exactly what the
scalar link_feasible gives; greedy_design must build exactly the
NetworkConfig of the loop greedy in reference_design. No tolerance is
allowed: block counts and total_power_w compare with ==.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import candidate_links
from reference_design import reference_candidates, reference_greedy
from solarran.design import greedy_design
from solarran.radio import Position, RadioParams, link_feasible, link_table
from solarran.scenario import (AccessNode, Scenario, UserTerminal,
                               place_users, scenario_from_dict)

PARAMS = RadioParams()
COORD = st.floats(0, 3000) | st.floats(-1e5, 1e5)


def block_rate_mbps(params: RadioParams, blocks: int) -> float:
    """A rate that fills exactly `blocks` blocks at the SE cap, so the ceil
    of a colocated user's block demand sits on a whole number."""
    return params.se_cap * params.prb_bandwidth_khz * 1e-3 * blocks


def snr_edge_m(params: RadioParams, level: float) -> float:
    """The distance at which a link at `level` has SNR min_snr_db."""
    loss = (level + params.antenna_gain_dbi - params.noise_power_dbm
            - params.min_snr_db)
    return 10.0 ** ((loss - params.reference_loss_at_1m_db)
                    / (10.0 * params.pathloss_exponent))


@st.composite
def radio_params(draw):
    return RadioParams(
        pathloss_exponent=draw(st.sampled_from([2.0, 2.9, 3.5])),
        total_prbs=draw(st.sampled_from([20, 40, 80, 273])),
        min_snr_db=draw(st.sampled_from([-6.0, 0.0, 3.7])),
        se_cap=draw(st.sampled_from([4.4, 7.8])))


@st.composite
def link_instances(draw):
    """Nodes and users, some users colocated with a node (SE cap) or at a
    node's SNR edge, and rates that include zero and whole-block rates."""
    params = draw(radio_params())
    nodes = [(draw(COORD), draw(COORD), draw(st.floats(1, 200)))
             for _ in range(draw(st.integers(0, 4)))]
    users = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["free", "colocated", "edge"]) if nodes
                    else st.just("free"))
        if kind == "free":
            users.append((draw(COORD), draw(COORD), draw(st.floats(0, 3))))
            continue
        x, y, z = draw(st.sampled_from(nodes))
        if kind == "colocated":
            users.append((x, y, z))
        else:
            level = draw(st.sampled_from(params.power_levels_dbm))
            users.append((x + snr_edge_m(params, level), y, z))
    rate = (st.just(0.0) | st.sampled_from([5.0, 20.0, 25.0, 100.0])
            | st.integers(1, 40).map(lambda k: block_rate_mbps(params, k))
            | st.floats(0.01, 300.0))
    return nodes, users, params, draw(rate), draw(rate)


@settings(max_examples=300, deadline=None)
@given(link_instances())
def test_link_table_matches_link_feasible(instance):
    nodes, users, params, dl, ul = instance
    feasible, prbs_dl, prbs_ul = link_table(nodes, users, params, dl, ul)
    shape = (len(nodes), len(users), len(params.power_levels_dbm))
    assert feasible.shape == prbs_dl.shape == prbs_ul.shape == shape
    for n, node in enumerate(nodes):
        for u, user in enumerate(users):
            for lvl, level in enumerate(params.power_levels_dbm):
                want = link_feasible(Position(*node), Position(*user), level,
                                     params, dl, ul)
                got = (bool(feasible[n, u, lvl]), int(prbs_dl[n, u, lvl]),
                       int(prbs_ul[n, u, lvl]))
                assert got == want, (n, u, level)
                assert (prbs_dl[n, u, lvl], prbs_ul[n, u, lvl]) == want[1:]


def test_whole_block_demand_goes_to_the_scalar_path():
    # colocated: the SE cap holds at every level, and the ceil arguments sit
    # one ulp above 12 and 3 blocks, where numpy and math could round apart
    calls = []

    def fallback(*args):
        calls.append(args[2])
        return link_feasible(*args)

    dl, ul = block_rate_mbps(PARAMS, 12), block_rate_mbps(PARAMS, 3)
    feasible, prbs_dl, prbs_ul = link_table([(0.0, 0.0, 50.0)], [(0.0, 0.0, 50.0)],
                                            PARAMS, dl, ul, fallback=fallback)
    assert calls == list(PARAMS.power_levels_dbm)
    want = link_feasible(Position(0, 0, 50), Position(0, 0, 50), 40.0, PARAMS, dl, ul)
    assert want == (True, 13, 4)
    assert (bool(feasible[0, 0, 2]), int(prbs_dl[0, 0, 2]), int(prbs_ul[0, 0, 2])) == want


def test_snr_edge_goes_to_the_scalar_path():
    calls = []

    def fallback(*args):
        calls.append(args[2])
        return link_feasible(*args)

    edge = snr_edge_m(PARAMS, 34.0)
    link_table([(0.0, 0.0, 0.0)], [(edge, 0.0, 0.0)], PARAMS, 20.0, 5.0,
               fallback=fallback)
    assert calls == [34.0]


def test_ordinary_links_stay_on_the_array_path():
    calls = []
    sc = Scenario()
    users = place_users(sc, 42)
    link_table([(n.position.x, n.position.y, n.position.z) for n in sc.nodes],
               [(u.position.x, u.position.y, u.position.z) for u in users],
               sc.radio, sc.dl_rate_mbps, sc.ul_rate_mbps,
               fallback=lambda *args: calls.append(args) or link_feasible(*args))
    assert calls == []


def test_negative_rate_refused_like_the_scalar_path():
    with pytest.raises(ValueError) as scalar:
        link_feasible(Position(0, 0, 50), Position(10, 0, 0), 28.0, PARAMS, -1.0, 5.0)
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        link_table([(0.0, 0.0, 50.0)], [(10.0, 0.0, 0.0)], PARAMS, -1.0, 5.0)


def test_candidate_table_is_the_scalar_dict():
    sc = Scenario(user_count=20)
    users = place_users(sc, 3)
    links = candidate_links(sc.nodes, users, sc.radio, 100.0, 25.0)
    reference = reference_candidates(sc.nodes, users, sc.radio, 100.0, 25.0)
    assert list(links.items()) == list(reference.items())


@st.composite
def design_instances(draw):
    """Small networks with unique but scattered ids, tight to generous block
    budgets, zero rates, stacked users, and a shuffled input order."""
    params = RadioParams(total_prbs=draw(st.sampled_from([20, 40, 80, 273])))
    node_ids = draw(st.lists(st.integers(0, 99), max_size=5, unique=True))
    user_ids = draw(st.lists(st.integers(0, 999), max_size=12, unique=True))
    spot = st.tuples(st.floats(0, 1500), st.floats(0, 1500))
    nodes = [AccessNode(node_id=i, position=Position(*draw(spot), 50.0))
             for i in node_ids]
    spots = draw(st.lists(spot, min_size=1, max_size=4))
    users = [UserTerminal(user_id=i, position=Position(*draw(st.sampled_from(spots)
                                                               | spot), 1.5))
             for i in user_ids]
    rate = st.sampled_from([0.0, 5.0, 10.0, 25.0, 50.0, 100.0])
    shuffler = draw(st.randoms(use_true_random=False))
    return nodes, users, params, draw(rate), draw(rate), shuffler


@settings(max_examples=300, deadline=None)
@given(design_instances())
def test_greedy_matches_the_loop_reference(instance):
    nodes, users, params, dl, ul, shuffler = instance
    want = reference_greedy(nodes, users, params, dl, ul)
    nodes, users = list(nodes), list(users)
    shuffler.shuffle(nodes)
    shuffler.shuffle(users)
    assert greedy_design(nodes, users, params, dl, ul) == want


def test_greedy_matches_the_loop_reference_on_default_seeds():
    sc = Scenario()
    for seed in range(42, 52):
        users = place_users(sc, seed)
        args = (sc.nodes, users, sc.radio, sc.dl_rate_mbps, sc.ul_rate_mbps)
        assert greedy_design(*args) == reference_greedy(*args), seed


def test_greedy_matches_the_loop_reference_on_a_crowded_cell():
    # 60 users under one station at 10/2.5 Mb/s: far more demand than a
    # 273-block cell holds, so the first-fit scan runs past many overflows
    rng = random.Random(5)
    nodes = [AccessNode(node_id=0, position=Position(0.0, 0.0, 50.0)),
             AccessNode(node_id=1, position=Position(900.0, 0.0, 50.0))]
    users = [UserTerminal(user_id=i, position=Position(
        rng.uniform(-800, 1700), rng.uniform(-400, 400), 1.5)) for i in range(60)]
    want = reference_greedy(nodes, users, PARAMS, 10.0, 2.5)
    got = greedy_design(nodes, users, PARAMS, 10.0, 2.5)
    assert got == want
    assert 0 < got.covered_count < len(users)
    assert math.isfinite(got.total_power_w)



@pytest.mark.parametrize("seed, user_count",
                         [(1, 200), (2, 225), (3, 250), (4, 275), (5, 300)])
def test_greedy_matches_the_loop_reference_on_a_mid_size_grid(seed, user_count):
    # 16 stations at the cell centres of a 4x4 grid over the default 3 km
    # square: cells that overlap and fill up, so there are many rounds and
    # activations that take users other (cell, level) candidates admitted
    layout = [{"id": 4 * j + i, "x": 375.0 + 750.0 * i, "y": 375.0 + 750.0 * j}
              for j in range(4) for i in range(4)]
    sc = scenario_from_dict({"users": {"count": user_count, "dl_mbps": 20.0,
                                       "ul_mbps": 5.0},
                             "nodes": {"layout": layout}})
    args = (sc.nodes, place_users(sc, seed), sc.radio, sc.dl_rate_mbps,
            sc.ul_rate_mbps)
    want = reference_greedy(*args)
    assert greedy_design(*args) == want
    assert sum(c.active for c in want.cells) >= 8
