"""Unit and property tests for the per-station power and battery models."""

import math

import numpy as np
import pytest
from conftest import one_station_day
from hypothesis import example, given, strategies as st
from reference_engine import reference_step

from solarran.energy import (BatterySpec, Equipment, MimoSpec, ParameterError,
                             PvSpec, Range, RisSpec, UavAirframe, mimo_power,
                             pv_power, ris_power, uav_hover_power)
from solarran.scenario import WeatherSeries

# Frozen reference values, evaluated by hand with an independent calculator.
HOVER_REF_AIRFRAME = UavAirframe(total_mass=2.0, rotor_count=4, rotor_radius=0.2,
                                 air_density=1.225, drive_efficiency=0.7,
                                 tether_efficiency=0.95)
HOVER_REF_DRAWN_W = 117.70269089292798
HOVER_REF_PRE_TETHER_W = 111.81755634828157


class TestHoverPower:
    def test_zero_mass_zero_power(self):
        assert uav_hover_power(UavAirframe(total_mass=0.0)) == 0.0

    def test_reference_point(self):
        assert uav_hover_power(HOVER_REF_AIRFRAME) == pytest.approx(
            HOVER_REF_DRAWN_W, rel=1e-12)

    def test_doubling_disk_area_divides_by_sqrt2(self):
        base = uav_hover_power(HOVER_REF_AIRFRAME)
        doubled = uav_hover_power(UavAirframe(
            total_mass=2.0, rotor_count=8, rotor_radius=0.2,
            air_density=1.225, drive_efficiency=0.7, tether_efficiency=0.95))
        assert doubled == pytest.approx(base / math.sqrt(2.0), rel=1e-12)
        # same check on the pre-tether figure
        assert base * 0.95 == pytest.approx(HOVER_REF_PRE_TETHER_W, rel=1e-12)
        assert doubled * 0.95 == pytest.approx(
            HOVER_REF_PRE_TETHER_W / math.sqrt(2.0), rel=1e-12)

    @given(m1=st.floats(0.1, 50.0), m2=st.floats(0.1, 50.0))
    def test_mass_scaling_exponent(self, m1, m2):
        p1 = uav_hover_power(UavAirframe(total_mass=m1))
        p2 = uav_hover_power(UavAirframe(total_mass=m2))
        assert p2 / p1 == pytest.approx((m2 / m1) ** 1.5, rel=1e-9)

    @given(r1=st.floats(0.05, 2.0), r2=st.floats(0.05, 2.0))
    def test_area_scaling_exponent(self, r1, r2):
        p1 = uav_hover_power(UavAirframe(rotor_radius=r1))
        p2 = uav_hover_power(UavAirframe(rotor_radius=r2))
        area_ratio = (r2 / r1) ** 2
        assert p2 / p1 == pytest.approx(area_ratio ** -0.5, rel=1e-9)

    def test_invalid_airframes_rejected(self):
        with pytest.raises(ParameterError):
            UavAirframe(rotor_radius=0.0)
        with pytest.raises(ParameterError):
            UavAirframe(rotor_count=0)
        with pytest.raises(ParameterError):
            UavAirframe(total_mass=-1.0)
        with pytest.raises(ParameterError):
            UavAirframe(drive_efficiency=0.0)


class TestRange:
    @pytest.mark.parametrize("bounds, text", [
        (Range(0), ">= 0"), (Range(0, lo_open=True), "> 0"),
        (Range(0, 1, lo_open=True), "in (0, 1]"),
        (Range(0, 1, hi_open=True), "in [0, 1)"),
        (Range(0, 1, lo_open=True, hi_open=True), "in (0, 1)"),
        (Range(-0.01, 0), "in [-0.01, 0]"), (Range(0, 1e9), "in [0, 1000000000]"),
        (Range(1, 1_000_000), "in [1, 1000000]"),
        (Range(0, 1e7, lo_open=True), "in (0, 10000000]"),
        # an int end prints every digit, a float end 15 significant ones
        (Range(-2**63, 2**63 - 1), "in [-9223372036854775808, 9223372036854775807]"),
        (Range(0.1, 2.0**63), "in [0.1, 9.22337203685478e+18]")])
    def test_text(self, bounds, text):
        assert str(bounds) == text

    @pytest.mark.parametrize("value", [0.0, 1.0, math.nan, -math.inf])
    def test_open_ends_and_nan_are_refused(self, value):
        with pytest.raises(ParameterError, match=r"^x must be in \(0, 1\), got "):
            Range(0, 1, lo_open=True, hi_open=True).check("x", value)


class TestMimoPower:
    def test_inactive_is_sleep_power(self):
        spec = MimoSpec()
        assert mimo_power(spec, None, 0) == 5.0
        assert mimo_power(spec, None, 10) == spec.sleep_power

    def test_no_users_no_radiated(self):
        spec = MimoSpec(fixed_power=20.0, per_antenna_circuit_power=1.5,
                        antenna_count=64)
        assert mimo_power(spec, -math.inf, 0) == pytest.approx(116.0)

    def test_loaded_cell(self):
        spec = MimoSpec(fixed_power=20.0, per_antenna_circuit_power=1.5,
                        antenna_count=64, per_user_processing_power=0.3,
                        pa_efficiency=0.3)
        # 20 + 96 + 3 + 10/0.3
        assert mimo_power(spec, 40.0, 10) == pytest.approx(
            152.33333333333334, rel=1e-12)

    def test_strictly_increasing_in_users_and_power(self):
        spec = MimoSpec()
        assert mimo_power(spec, 30.0, 5) > mimo_power(spec, 30.0, 4)
        assert mimo_power(spec, 34.0, 5) > mimo_power(spec, 28.0, 5)

    def test_pure(self):
        spec = MimoSpec()
        assert mimo_power(spec, 34.0, 7) == mimo_power(spec, 34.0, 7)


class TestRisPower:
    def test_no_elements(self):
        assert ris_power(RisSpec(element_count=0)) == 0.0

    def test_default_table(self):
        assert ris_power(RisSpec(element_count=16, phase_bits=6)) == pytest.approx(0.1248)
        assert ris_power(RisSpec(element_count=16, phase_bits=3)) == pytest.approx(0.024)

    def test_unknown_resolution_rejected(self):
        with pytest.raises(ParameterError):
            RisSpec(phase_bits=7)

    def test_pure(self):
        spec = RisSpec()
        assert ris_power(spec) == ris_power(spec)


def pv_watts(spec: PvSpec, ghi: float, ambient: float) -> float:
    """pv_power of a series of one minute."""
    (watts,) = pv_power(spec, WeatherSeries([ghi], [ambient]))
    return watts


class TestCellTemperature:
    def test_no_irradiance_equals_ambient(self):
        # the cell warms by GHI * (NOCT - 20) / 800, so as GHI vanishes the
        # output per W/m2 tends, whatever the NOCT, to that of a cell at the
        # ambient 13.5 degC: 120 * 0.9 / 1000 * (1 + 0.0035 * 11.5)
        for noct in (45.0, 99.0):
            assert pv_watts(PvSpec(noct=noct), 1e-6, 13.5) / 1e-6 == pytest.approx(
                0.112347, rel=1e-8)


class TestPvPower:
    def test_dark_panel_is_off(self):
        assert pv_watts(PvSpec(), 0.0, 25.0) == 0.0
        assert pv_watts(PvSpec(noct=99.0), 0.0, 13.5) == 0.0

    def test_stc_identity_exact(self):
        # ambient chosen so the cell sits exactly at 25 degC under 1000 W/m2
        spec = PvSpec(rated_power=120.0, derating_factor=0.9, noct=45.0)
        assert pv_watts(spec, 1000.0, -6.25) == 108.0

    def test_cell_at_stc_temperature(self):
        # the cell warms by GHI * (NOCT - 20) / 800 over ambient: at 800 W/m2
        # by 25 degC, at 400 W/m2 and NOCT 44 by 12 degC, so both cells sit
        # at 25 degC and only irradiance scales the derated rating
        assert pv_watts(PvSpec(noct=45.0), 800.0, 0.0) == 108.0 * (800.0 / 1000.0)
        assert pv_watts(PvSpec(noct=44.0), 400.0, 13.0) == 108.0 * (400.0 / 1000.0)

    def test_hand_value(self):
        spec = PvSpec(rated_power=120.0, derating_factor=0.9,
                      temp_coeff=-0.0035, noct=45.0)
        assert pv_watts(spec, 800.0, 20.0) == pytest.approx(80.352, rel=1e-12)
        # a cell at 22 degC gains 0.35% per degree below 25
        assert pv_watts(PvSpec(noct=44.0), 400.0, 10.0) == pytest.approx(
            43.6536, rel=1e-12)

    @given(g1=st.floats(0.0, 1200.0), g2=st.floats(0.0, 1200.0),
           ambient=st.floats(-20.0, 40.0))
    def test_monotone_in_irradiance(self, g1, g2, ambient):
        lo, hi = pv_power(PvSpec(), WeatherSeries(sorted((g1, g2)), [ambient] * 2))
        assert lo <= hi

    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2000.0)),
                              st.floats(-100.0, 100.0)), min_size=1, max_size=40),
           st.sampled_from([-0.0035, -0.01]))
    @example([(0.0, 20.0), (800.0, 25.0), (2000.0, 100.0)], -0.01)
    def test_array_call_is_the_float_calls(self, weather, temp_coeff):
        # what the engine computes for a whole series equals the series of
        # each minute alone, bit for bit; hot cells floor the output to 0
        spec = PvSpec(temp_coeff=temp_coeff)
        per_minute = [pv_watts(spec, g, t) for g, t in weather]
        whole = pv_power(spec, WeatherSeries(*zip(*weather)))
        assert (whole.view(np.int64) == np.array(per_minute).view(np.int64)).all()


class TestBatteryStep:
    """The battery recurrence, on the scalar reference that run_network is
    held to bit for bit."""

    def test_idle_step_is_identity(self):
        spec = BatterySpec()
        assert reference_step(400.0, 2, spec.usable_capacity_wh,
                              spec.charge_efficiency, 0.0, 0.0) == (
                                  400.0, 2, 0.0, 0.0, 0.0)

    def test_swap_with_deficit_carryover(self):
        spec = BatterySpec()  # usable 724.85
        soc, swaps, _, _, drawn = reference_step(
            10.0, 0, spec.usable_capacity_wh, spec.charge_efficiency, 15.0, 0.0)
        assert swaps == 1
        assert soc == pytest.approx(719.85, abs=1e-12)
        assert drawn == 15.0

    def test_overflow_is_wasted_post_efficiency(self):
        spec = BatterySpec(capacity_wh=763.0, charge_efficiency=0.95)
        soc, _, pv_used, pv_wasted, _ = reference_step(
            720.0, 0, spec.usable_capacity_wh, spec.charge_efficiency, 0.0, 10.0)
        assert soc == pytest.approx(724.85, abs=1e-12)
        assert pv_wasted == pytest.approx(4.65, abs=1e-12)
        assert pv_used == 0.0

    def test_fresh_battery_starts_at_usable_cap(self):
        spec = BatterySpec(capacity_wh=763.0, flight_reserve=0.05)
        pair = one_station_day(Equipment(battery=spec))
        led = pair.ledgers[0]
        assert pair.usable_capacity_wh == pytest.approx(724.85)
        assert led["soc_wh"][0, 0, 0] == (
            pair.usable_capacity_wh - led["consumed_wh"][0, 0, 0])

    @given(soc_frac=st.floats(0.0, 1.0),
           demand=st.floats(0.0, 700.0),
           harvested=st.floats(0.0, 200.0))
    def test_conservation_and_bounds(self, soc_frac, demand, harvested):
        spec = BatterySpec()
        cap = spec.usable_capacity_wh
        soc = soc_frac * cap
        new_soc, swaps, pv_used, pv_wasted, drawn = reference_step(
            soc, 3, cap, spec.charge_efficiency, demand, harvested)

        accepted = min(harvested * spec.charge_efficiency, cap - soc)
        # energy balance of the pack itself
        assert new_soc - soc == pytest.approx(
            accepted - demand + (swaps - 3) * cap, abs=1e-9)
        # demand split is exact
        assert drawn + pv_used == pytest.approx(demand, abs=1e-9)
        # post-efficiency harvest split (used + stored + wasted)
        stored = accepted - pv_used
        assert pv_used + stored + pv_wasted == pytest.approx(
            harvested * spec.charge_efficiency, abs=1e-9)
        assert drawn >= 0
        assert pv_used >= 0
        assert pv_wasted >= -1e-12
        assert 0 <= new_soc <= cap + 1e-9
        assert swaps >= 3
