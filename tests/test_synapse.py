"""Programmable 4-magnet synapse codec, quantizer and drive IV model."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincnn.synapse import (BRANCH_SIZES, DriveModel, SynapseConfig,
                             decode_config, drive_current, encode_weight,
                             quantize_weight, representable_weights,
                             unit_current)


class TestRepresentableWeights:
    def test_full_set(self):
        assert representable_weights() == [-8, -6, -4, -2, 0, 2, 4, 6, 8]

    def test_all_even_nine_elements(self):
        ws = representable_weights()
        assert len(ws) == 9
        assert all(w % 2 == 0 for w in ws)

    def test_extremes_from_uniform_signs(self):
        assert decode_config(SynapseConfig((1, 1, 1, 1))) == 8
        assert decode_config(SynapseConfig((-1, -1, -1, -1))) == -8

    def test_zero_config(self):
        assert decode_config(SynapseConfig((1, -1, -1, -1))) == 0


class TestCodec:
    @pytest.mark.parametrize("w", representable_weights())
    def test_roundtrip_identity(self, w):
        assert decode_config(encode_weight(w)) == w

    def test_canonical_picks(self):
        assert encode_weight(8).signs == (1, 1, 1, 1)
        assert encode_weight(-8).signs == (-1, -1, -1, -1)
        assert encode_weight(0).signs == (1, -1, -1, -1)
        assert encode_weight(4).signs == (1, 1, -1, -1)

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError, match="not representable"):
            encode_weight(3)

    def test_sign_negation_symmetry_all_16_configs(self):
        for signs in product((-1, 1), repeat=4):
            c = SynapseConfig(signs)
            n = SynapseConfig(tuple(-s for s in signs))
            assert decode_config(n) == -decode_config(c)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynapseConfig((1, 0, 1, 1))


class TestQuantizer:
    def test_small_value_to_zero(self):
        assert quantize_weight(0.3) == 0

    def test_nearest_above(self):
        assert quantize_weight(5.2) == 6

    def test_clamp_then_nearest(self):
        assert quantize_weight(9.7) == 8
        assert quantize_weight(-11.0) == -8

    def test_ties_round_away_from_zero(self):
        assert quantize_weight(1.0) == 2
        assert quantize_weight(-1.0) == -2
        assert quantize_weight(3.0) == 4

    @given(st.floats(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_bounded_error(self, w):
        q = quantize_weight(w)
        assert quantize_weight(q) == q
        assert abs(q - w) <= 1.0

    @given(st.one_of(st.floats(-1e300, 1e300), st.floats(-10, 10),
                     st.integers(-9, 9).map(float)))
    @example(1e300)
    @example(-1e17)
    @settings(max_examples=300, deadline=None)
    def test_nearest_level_ties_away_from_zero(self, w):
        # distances in exact arithmetic: in floats, w - 8 and w + 8 round
        # to the same value once |w| >~ 1e17
        want = min(representable_weights(),
                   key=lambda v: (abs(Fraction(v) - Fraction(w)), -abs(v)))
        assert quantize_weight(w) == want

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_weight(math.nan)

    def test_array_matches_scalar_rule(self):
        w = np.array([[0.3, 5.2, 9.7, -11.0], [1.0, -1.0, 3.0, -3.0]])
        q = quantize_weight(w)
        assert q.shape == w.shape
        assert q.tolist() == [[0, 6, 8, -8], [2, -2, 4, -4]]
        assert type(quantize_weight(1.0)) is int

    def test_array_with_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_weight(np.array([1.0, math.inf]))


class TestDriveModel:
    def test_anchor_currents_exact(self):
        d = DriveModel()
        assert unit_current(d, 10e-3) == pytest.approx(2.8e-6, rel=1e-12)
        assert unit_current(d, 1.0) == pytest.approx(75e-6, rel=1e-12)

    def test_on_at_one_volt(self):
        assert drive_current(DriveModel(V_drive=1.0)) == pytest.approx(75e-6)

    def test_size_linearity(self):
        a = drive_current(DriveModel(V_drive=0.3, size_multiplier=1))
        b = drive_current(DriveModel(V_drive=0.3, size_multiplier=3))
        assert b == pytest.approx(3 * a, rel=1e-12)

    def test_monotone_in_voltage(self):
        d = DriveModel()
        vs = [0.01, 0.05, 0.2, 0.5, 1.0]
        cs = [unit_current(d, v) for v in vs]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_log_log_interpolation(self):
        d = DriveModel()
        # straight line in log-log space between the two anchors
        v = math.sqrt(10e-3 * 1.0)
        expected = math.sqrt(2.8e-6 * 75e-6)
        assert unit_current(d, v) == pytest.approx(expected, rel=1e-12)

    def test_voltage_outside_span_rejected(self):
        with pytest.raises(ValueError, match="outside table span"):
            unit_current(DriveModel(), 2.0)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DriveModel(iv_table=((0.5, 2e-6), (0.01, 7e-5)))
        with pytest.raises(ValueError):
            DriveModel(iv_table=((0.01, 2.8e-6),))
        with pytest.raises(ValueError):
            DriveModel(size_multiplier=0)

    def test_branch_sizes(self):
        assert BRANCH_SIZES == (4, 2, 1, 1)
