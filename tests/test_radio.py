"""Tests for the link-budget chain: the scalar reference that
radio.link_table is held to, and the radio parameters' checks."""

import pytest
from hypothesis import given, strategies as st

from reference_radio import (link_feasible, path_loss, required_prbs, snr,
                             spectral_efficiency)
from solarran.radio import Position, RadioParams

PARAMS = RadioParams()


class TestPathLoss:
    def test_reference_at_one_meter(self):
        assert path_loss(Position(0, 0, 0), Position(1, 0, 0), PARAMS) == pytest.approx(43.3)

    def test_clamped_below_one_meter(self):
        assert path_loss(Position(0, 0, 0), Position(0.2, 0, 0), PARAMS) == pytest.approx(43.3)

    def test_ten_meters(self):
        assert path_loss(Position(0, 0, 0), Position(10, 0, 0), PARAMS) == pytest.approx(72.3)

    def test_doubling_distance_adds_fixed_db(self):
        p1 = path_loss(Position(0, 0, 0), Position(50, 0, 0), PARAMS)
        p2 = path_loss(Position(0, 0, 0), Position(100, 0, 0), PARAMS)
        assert p2 - p1 == pytest.approx(8.729869874255455, rel=1e-12)

    @given(x=st.floats(-5000, 5000), y=st.floats(-5000, 5000),
           z=st.floats(0, 200))
    def test_symmetric(self, x, y, z):
        a, b = Position(x, y, z), Position(100.0, -30.0, 50.0)
        assert path_loss(a, b, PARAMS) == path_loss(b, a, PARAMS)

    @given(d1=st.floats(1.0, 10000.0), d2=st.floats(1.0, 10000.0))
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        origin = Position(0, 0, 0)
        assert (path_loss(origin, Position(lo, 0, 0), PARAMS)
                <= path_loss(origin, Position(hi, 0, 0), PARAMS))


class TestSnr:
    def test_hand_value(self):
        # noise floor: -174 + 80 + 9 = -85 dBm
        assert snr(40.0, 100.0, PARAMS) == pytest.approx(33.0)
        assert snr(28.0, 121.0, PARAMS) == pytest.approx(0.0)

    def test_linear_in_path_loss(self):
        assert snr(30.0, 110.0, PARAMS) - snr(30.0, 120.0, PARAMS) == pytest.approx(10.0)


class TestSpectralEfficiency:
    def test_zero_db_is_one_bit(self):
        assert spectral_efficiency(0.0, PARAMS) == pytest.approx(1.0)

    def test_cap_engages(self):
        assert spectral_efficiency(30.0, PARAMS) == 7.8

    def test_mid_range(self):
        assert spectral_efficiency(10.0, PARAMS) == pytest.approx(
            3.4594316186372973, rel=1e-12)

    def test_positive_at_min_snr(self):
        assert spectral_efficiency(PARAMS.min_snr_db, PARAMS) > 0


class TestRequiredPrbs:
    def test_zero_rate(self):
        assert required_prbs(0.0, 5.0, PARAMS) == 0

    def test_hand_value(self):
        assert required_prbs(100.0, 5.0, PARAMS) == 56

    def test_exact_single_block(self):
        # rate equal to one block's capacity
        se = 5.0
        rate_mbps = se * PARAMS.prb_bandwidth_khz * 1e3 / 1e6
        assert required_prbs(rate_mbps, se, PARAMS) == 1

    def test_unusable_link_is_marked(self):
        assert required_prbs(10.0, 0.0, PARAMS) is None
        assert required_prbs(10.0, -1.0, PARAMS) is None

    @given(rate=st.floats(1.0, 500.0), se1=st.floats(0.1, 7.8),
           se2=st.floats(0.1, 7.8))
    def test_monotone_in_se(self, rate, se1, se2):
        lo, hi = sorted((se1, se2))
        assert required_prbs(rate, hi, PARAMS) <= required_prbs(rate, lo, PARAMS)

    @given(r1=st.floats(0.0, 500.0), r2=st.floats(0.0, 500.0))
    def test_monotone_in_rate(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert required_prbs(lo, 4.0, PARAMS) <= required_prbs(hi, 4.0, PARAMS)


class TestLinkFeasible:
    def test_colocated_best_case(self):
        node = Position(0, 0, 50)
        user = Position(0, 0, 1.5)
        feasible, dl, ul = link_feasible(node, user, PARAMS.power_levels_dbm[-1],
                                         PARAMS, 100.0, 25.0)
        assert feasible
        # SE cap engaged: 36 + 9 blocks
        assert (dl, ul) == (36, 9)

    def test_below_min_snr_infeasible(self):
        node = Position(0, 0, 50)
        user = Position(10000.0, 0, 1.5)
        feasible, _, _ = link_feasible(node, user, PARAMS.power_levels_dbm[-1],
                                       PARAMS, 1.0, 0.0)
        assert not feasible

    def test_boundary_snr_inclusive(self):
        # craft a path loss that lands the SNR exactly on the threshold
        assert snr(40.0, 139.0, PARAMS) == -6.0
        se = spectral_efficiency(-6.0, PARAMS)
        # keep demand small enough that the block budget is not the binding
        # constraint at threshold SNR
        assert required_prbs(25.0, se, PARAMS) <= PARAMS.total_prbs
        d = 10.0 ** ((139.0 - PARAMS.reference_loss_at_1m_db)
                     / (10.0 * PARAMS.pathloss_exponent))
        node, user = Position(0, 0, 0), Position(d * (1 - 1e-12), 0, 0)
        feasible, _, _ = link_feasible(node, user, 40.0, PARAMS, 25.0, 0.0)
        assert feasible

    def test_prb_budget_gates_feasibility(self):
        # near-threshold SNR cannot carry the full default demand
        d = 1990.0
        node, user = Position(0, 0, 0), Position(d, 0, 0)
        feasible, dl, ul = link_feasible(node, user, 40.0, PARAMS, 100.0, 25.0)
        assert not feasible
        assert dl + ul > PARAMS.total_prbs

    @given(d=st.floats(1.0, 3000.0), seed_rate=st.floats(5.0, 120.0))
    def test_monotone_in_tx_power(self, d, seed_rate):
        node, user = Position(0, 0, 50), Position(d, 0, 1.5)
        feas = [link_feasible(node, user, p, PARAMS, seed_rate, seed_rate / 4)[0]
                for p in PARAMS.power_levels_dbm]
        # once feasible, stays feasible at every higher level
        for lower, higher in zip(feas, feas[1:]):
            assert higher or not lower


def test_power_ladder_validation():
    with pytest.raises(ValueError):
        RadioParams(power_levels_dbm=(40.0, 34.0))
    with pytest.raises(ValueError):
        RadioParams(pathloss_exponent=1.5)
    with pytest.raises(ValueError):
        RadioParams(total_prbs=0)
