"""MTJ divider plus inverter read path: resistance model, transfer curves,
logic robustness and the non-disturbing-read bound."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincnn.core import MagnetParams
from spincnn.dynamics import analytic_critical_current
from spincnn.readpath import (InverterModel, MtjParams, divider_voltage,
                              inverter_out, logic_mz_boundary, mtj_resistance,
                              read_cell, read_current)

MTJ = MtjParams()
INV = InverterModel()


class TestMtjResistance:
    def test_parallel_endpoint(self):
        assert mtj_resistance(MTJ, 2e-9, 1.0) == pytest.approx(100e3, rel=1e-12)

    def test_antiparallel_endpoint(self):
        # TMR 160% => R_AP = 2.6 R_P
        assert mtj_resistance(MTJ, 2e-9, -1.0) == pytest.approx(260e3, rel=1e-12)

    def test_conductance_midpoint(self):
        # conductance average => R = 2 R_P (1+TMR)/(2+TMR)
        expected = 2 * 100e3 * 2.6 / 3.6
        assert mtj_resistance(MTJ, 2e-9, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_exponential_thickness_growth(self):
        r20 = mtj_resistance(MTJ, 2.0e-9, 1.0)
        r21 = mtj_resistance(MTJ, 2.1e-9, 1.0)
        assert r21 / r20 == pytest.approx(pytest.approx(1.6487, rel=1e-3))

    def test_validity_window(self):
        # the junction stack checks both thicknesses, naming each
        with pytest.raises(ValueError, match="t_ox_read = 5e-10 m outside"):
            MtjParams(t_ox_read=0.5e-9)
        with pytest.raises(ValueError, match="t_ox_ref = 3.5e-09 m outside"):
            MtjParams(t_ox_ref=3.5e-9)


class TestDivider:
    def test_parallel_half_split(self):
        # matched 2 nm junctions, mz = +1: equal-resistance divider
        assert divider_voltage(MTJ, 1.0) == pytest.approx(0.35, rel=1e-12)

    def test_antiparallel_voltage(self):
        assert divider_voltage(MTJ, -1.0) == pytest.approx(0.7 * 2.6 / 3.6,
                                                           rel=1e-12)

    def test_monotone_decreasing_in_mz(self):
        vs = [divider_voltage(MTJ, mz) for mz in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_bounds(self):
        for mz in (-1.0, 0.0, 1.0):
            assert 0.0 < divider_voltage(MTJ, mz) < MTJ.V_read


class TestInverter:
    def test_low_rail(self):
        assert inverter_out(INV, 0.0) >= 0.99 * INV.V_dd

    def test_high_rail(self):
        assert inverter_out(INV, INV.V_dd) <= 0.05 * INV.V_dd

    def test_threshold_midpoint(self):
        assert inverter_out(INV, INV.V_th) == pytest.approx(INV.V_dd / 2,
                                                            rel=1e-12)

    def test_outside_rails_rejected(self):
        with pytest.raises(ValueError):
            inverter_out(INV, -0.1)
        with pytest.raises(ValueError):
            inverter_out(INV, INV.V_dd + 0.1)

    def test_gain_floor_enforced(self):
        with pytest.raises(ValueError):
            InverterModel(gain=5.0)


class TestReadCell:
    @pytest.mark.parametrize("t_ox", [1.9e-9, 2.0e-9, 2.1e-9])
    def test_logic_invariant_across_matched_thickness(self, t_ox):
        mtj = MtjParams(t_ox_ref=t_ox, t_ox_read=t_ox)
        assert read_cell(mtj, INV, 1.0)[1] == 1
        assert read_cell(mtj, INV, -1.0)[1] == -1

    def test_analog_monotone_in_mz(self):
        analog = [read_cell(MTJ, INV, mz)[0]
                  for mz in [x / 10 for x in range(-10, 11)]]
        assert all(a <= b + 1e-12 for a, b in zip(analog, analog[1:]))

    @given(st.floats(60e3, 300e3), st.floats(0.8, 2.5),
           st.floats(0.1e-9, 0.4e-9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_for_random_valid_parameters(self, r_p, tmr, lam):
        mtj = MtjParams(R_P_at_2nm=r_p, TMR=tmr, lambda_ox=lam)
        inv = InverterModel(V_th=divider_voltage(mtj, 0.0))
        analog = [read_cell(mtj, inv, mz)[0]
                  for mz in [x / 5 for x in range(-5, 6)]]
        assert all(a <= b + 1e-12 for a, b in zip(analog, analog[1:]))

    def test_read_current_non_disturbing(self):
        i_read = max(read_current(MTJ, mz) for mz in (-1.0, 0.0, 1.0))
        assert i_read <= 3.5e-6 * (1 + 1e-12)  # 0.7 V / 200 kOhm exactly
        # below the critical charge current Is,c / beta
        assert i_read < analytic_critical_current(MagnetParams()) / 0.5

    def test_explicit_read_thickness_override(self):
        analog_thick = read_cell(replace(MTJ, t_ox_read=2.1e-9), INV, 0.5)[0]
        analog_ref = read_cell(MTJ, INV, 0.5)[0]
        assert analog_thick != analog_ref


def test_logic_boundary_at_mz_zero_by_default():
    # the default inverter threshold centers the logic decision at mz = 0
    assert logic_mz_boundary(MTJ, INV) == pytest.approx(0.0, abs=1e-12)


def test_logic_boundary_shifts_with_threshold():
    low = logic_mz_boundary(MTJ, InverterModel(V_th=0.38))
    high = logic_mz_boundary(MTJ, InverterModel(V_th=0.45))
    assert low > 0.0 > high
