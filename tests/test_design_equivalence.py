"""The array link table and the array greedy against their scalar references.

radio.link_table must give, for every (node, user, level), exactly what the
scalar link_feasible of reference_radio gives; greedy_design must build
exactly the NetworkConfig of the loop greedy in reference_design. No
tolerance is allowed: block counts and total_power_w compare with ==.
"""

import contextlib
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import candidate_links
from reference_design import reference_candidates, reference_greedy
from reference_radio import link_feasible
from solarran import design
from solarran.design import greedy_design
from solarran.radio import Position, RadioParams, link_table
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


def assert_default_fallback_matches(node, user, params, dl, ul):
    """link_table's own boundary recompute, its default fallback, gives
    link_feasible's answer at every level of one link."""
    feasible, prbs_dl, prbs_ul = link_table([node], [user], params, dl, ul)
    for lvl, level in enumerate(params.power_levels_dbm):
        want = link_feasible(Position(*node), Position(*user), level, params,
                             dl, ul)
        assert (bool(feasible[0, 0, lvl]), int(prbs_dl[0, 0, lvl]),
                int(prbs_ul[0, 0, lvl])) == want, level


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
    assert_default_fallback_matches((0.0, 0.0, 50.0), (0.0, 0.0, 50.0), PARAMS, dl, ul)


def test_snr_edge_goes_to_the_scalar_path():
    calls = []

    def fallback(*args):
        calls.append(args[2])
        return link_feasible(*args)

    edge = snr_edge_m(PARAMS, 34.0)
    link_table([(0.0, 0.0, 0.0)], [(edge, 0.0, 0.0)], PARAMS, 20.0, 5.0,
               fallback=fallback)
    assert calls == [34.0]
    assert_default_fallback_matches((0.0, 0.0, 0.0), (edge, 0.0, 0.0), PARAMS, 20.0, 5.0)


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


def xyz(points) -> np.ndarray:
    """The (k, 3) coordinates of nodes or users, in the given order."""
    return np.array([(p.position.x, p.position.y, p.position.z)
                     for p in points]).reshape(-1, 3)


@contextlib.contextmanager
def links_evaluated_once(nodes, users, block_pairs=design.DESIGN_BLOCK_PAIRS):
    """Run greedy_design inside with design.DESIGN_BLOCK_PAIRS set to
    block_pairs; on exit, require that its link_table calls took every user
    and consecutive blocks of nodes, both in id order, that together hold
    each node exactly once."""
    calls = []

    def counting_link_table(node_xyz, user_xyz, *args, **kwargs):
        calls.append((np.array(node_xyz).reshape(-1, 3),
                      np.array(user_xyz).reshape(-1, 3)))
        return link_table(node_xyz, user_xyz, *args, **kwargs)

    with mock.patch.object(design, "link_table", counting_link_table), \
            mock.patch.object(design, "DESIGN_BLOCK_PAIRS", block_pairs):
        yield
    per_block = max(block_pairs // max(len(users), 1), 1)
    assert all(0 < len(node_xyz) <= per_block for node_xyz, _ in calls)
    for _, user_xyz in calls:
        np.testing.assert_array_equal(
            user_xyz, xyz(sorted(users, key=lambda u: u.user_id)))
    np.testing.assert_array_equal(
        np.concatenate([node_xyz for node_xyz, _ in calls] or [np.empty((0, 3))]),
        xyz(sorted(nodes, key=lambda n: n.node_id)))


def check_greedy_matches(instance, block_pairs):
    nodes, users, params, dl, ul, shuffler = instance
    want = reference_greedy(nodes, users, params, dl, ul)
    nodes, users = list(nodes), list(users)
    shuffler.shuffle(nodes)
    shuffler.shuffle(users)
    with links_evaluated_once(nodes, users, block_pairs):
        assert greedy_design(nodes, users, params, dl, ul) == want


@settings(max_examples=300, deadline=None)
@given(design_instances())
def test_greedy_matches_the_loop_reference(instance):
    check_greedy_matches(instance, design.DESIGN_BLOCK_PAIRS)


@settings(max_examples=300, deadline=None)
@given(design_instances())
def test_greedy_matches_the_loop_reference_in_one_node_blocks(instance):
    # every instance with two or more nodes spans as many blocks
    check_greedy_matches(instance, 1)


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



MID_SIZE_GRIDS = pytest.mark.parametrize(
    "seed, user_count", [(1, 200), (2, 225), (3, 250), (4, 275), (5, 300)])


def mid_size_grid_args(seed: int, user_count: int) -> tuple:
    """greedy_design's arguments for 16 stations at the cell centres of a
    4x4 grid over the default 3 km square: cells that overlap and fill up,
    so there are many rounds and activations that take users other (cell,
    level) candidates admitted."""
    layout = [{"id": 4 * j + i, "x": 375.0 + 750.0 * i, "y": 375.0 + 750.0 * j}
              for j in range(4) for i in range(4)]
    sc = scenario_from_dict({"users": {"count": user_count, "dl_mbps": 20.0,
                                       "ul_mbps": 5.0},
                             "nodes": {"layout": layout}})
    return (sc.nodes, place_users(sc, seed), sc.radio, sc.dl_rate_mbps,
            sc.ul_rate_mbps)


@MID_SIZE_GRIDS
def test_greedy_matches_the_loop_reference_on_a_mid_size_grid(seed, user_count):
    args = mid_size_grid_args(seed, user_count)
    want = reference_greedy(*args)
    with links_evaluated_once(*args[:2]):
        assert greedy_design(*args) == want
    assert sum(c.active for c in want.cells) >= 8


@MID_SIZE_GRIDS
def test_greedy_matches_the_loop_reference_on_a_mid_size_grid_in_one_node_blocks(
        seed, user_count):
    args = mid_size_grid_args(seed, user_count)
    want = reference_greedy(*args)
    with links_evaluated_once(*args[:2], block_pairs=1):
        assert greedy_design(*args) == want
