"""Spin drift-diffusion transport: closed form vs finite-difference BVP,
spin injection, and the delivered current a cross template sums into a
neuron. The rest of the grid's drive is tested in test_network.py."""

import math

import numpy as np
import pytest

from spincnn.core import Pattern
from spincnn.network import CellModel, CnnGrid, net_currents, \
    noise_filter_templates
from spincnn.transport import (SIGMA_A_OVER_Q, ChannelParams,
                               injected_spin_current, numeric_transmission,
                               solve_drift_diffusion, spin_transmission)

CH = ChannelParams()


def transmission(L, l_sf):
    """Closed-form transmission of a channel of length L."""
    return spin_transmission(ChannelParams(L=L, l_sf=l_sf))


class TestClosedForm:
    def test_zero_length_channel(self):
        assert transmission(0.0, 420e-9) == 1.0

    def test_default_geometry(self):
        # frozen oracle: 1/cosh(100/420)
        assert transmission(100e-9, 420e-9) == pytest.approx(
            0.9723097577573755, rel=1e-12)

    def test_equal_lengths(self):
        assert transmission(1e-7, 1e-7) == pytest.approx(
            1 / math.cosh(1.0), rel=1e-12)

    def test_monotone_in_arguments(self):
        t = [transmission(L, 420e-9) for L in (50e-9, 100e-9, 200e-9)]
        assert t[0] > t[1] > t[2]
        s = [transmission(100e-9, l) for l in (200e-9, 420e-9, 800e-9)]
        assert s[0] < s[1] < s[2]

    def test_beyond_the_float_range_no_spin_arrives(self):
        # cosh(L / l_sf) overflows: 1 / cosh has the limit 0
        assert transmission(1.0, 1e-300) == 0.0
        assert ChannelParams(l_sf=1e-300).delivery == 0.0

    def test_bad_arguments(self):
        # the channel checks its own geometry, naming the config key
        with pytest.raises(ValueError, match="l_sf = 0 m must be > 0"):
            ChannelParams(L=100e-9, l_sf=0.0)
        with pytest.raises(ValueError, match="length L = -1e-09 m must be"):
            ChannelParams(L=-1e-9, l_sf=420e-9)


class TestNumericBvp:
    def test_matches_closed_form_at_1024(self):
        err = abs(numeric_transmission(1024, CH) - spin_transmission(CH))
        assert err <= 1e-6

    def test_second_order_convergence(self):
        exact = spin_transmission(CH)
        errs = [abs(numeric_transmission(n, CH) - exact)
                for n in (64, 128, 256, 512)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.3)

    def test_zero_injection_gives_zero_profile(self):
        _, mu, J = solve_drift_diffusion(256, CH, 0.0)
        assert np.allclose(mu, 0.0)
        assert np.allclose(J, 0.0)

    def test_linearity_in_injected_current(self):
        _, mu1, _ = solve_drift_diffusion(256, CH, 1e-6)
        _, mu2, _ = solve_drift_diffusion(256, CH, 2e-6)
        assert np.allclose(mu2, 2.0 * mu1, rtol=1e-12, atol=0.0)

    def test_sink_boundary(self):
        _, mu, _ = solve_drift_diffusion(256, CH, 1e-6)
        assert mu[-1] == 0.0
        assert mu[0] > 0.0

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            solve_drift_diffusion(8, CH, 1e-6)

    @pytest.mark.parametrize("n", [16, 1024, 4096])
    @pytest.mark.parametrize("channel", [
        CH, ChannelParams(L=2.1e-6), ChannelParams(L=1e-170)],
        ids=["default", "L=5l_sf", "c=0"])
    def test_matches_banded_lu_reference(self, n, channel):
        # SciPy's banded LU on the same system: diagonal -(2 + c),
        # off-diagonals 1, the ghost node doubling the first superdiagonal
        from scipy.linalg import solve_banded
        h = channel.L / (n - 1)
        c = h * h / channel.l_sf ** 2
        if channel.L < 1e-100:
            assert c == 0.0  # h^2 underflows
        ab = np.zeros((3, n - 1))
        ab[0, 1], ab[0, 2:], ab[1], ab[2, :-1] = 2.0, 1.0, -(2.0 + c), 1.0
        rhs = np.zeros(n - 1)
        rhs[0] = 2.0 * h * (-1e-6 / SIGMA_A_OVER_Q)
        ref = solve_banded((1, 1), ab, rhs)
        _, mu, _ = solve_drift_diffusion(n, channel, 1e-6)
        assert mu[-1] == 0.0
        assert np.max(np.abs(mu[:-1] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestInjection:
    def test_paper_endpoint(self):
        assert injected_spin_current(75e-6, CH) == pytest.approx(37.5e-6)

    def test_zero(self):
        assert injected_spin_current(0.0, CH) == 0.0

    def test_sign_linearity(self):
        assert injected_spin_current(-10e-6, CH) == pytest.approx(-5e-6)

    def test_beta_domain(self):
        # beta comes from the channel, which checks it
        with pytest.raises(ValueError, match="beta"):
            injected_spin_current(1e-6, ChannelParams(beta=0.0))


def centre_current(levels, i0=1e-6, ch=CH):
    """Net spin current into the centre of a 3x3 grid whose logic outputs
    are `levels` (row-major), under the cross-shaped noise-filter A."""
    p = Pattern.from_array(np.reshape(levels, (3, 3)))
    grid = CnnGrid.from_pattern(p, p, noise_filter_templates())
    return net_currents(grid, CellModel(i0=i0, channel=ch))[1, 1]


class TestNetSpinCurrent:
    def test_cross_template_all_up(self):
        expected = 5.0 * 1e-6 * spin_transmission(CH)
        assert centre_current([1] * 9) == pytest.approx(expected, rel=1e-12)

    def test_minority_center(self):
        levels = [1] * 9
        levels[4] = -1
        expected = 3.0 * 1e-6 * spin_transmission(CH)
        assert centre_current(levels) == pytest.approx(expected, rel=1e-12)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(beta=1.5)
    with pytest.raises(ValueError):
        ChannelParams(ground_spin_sink=1.0)
    with pytest.raises(ValueError):
        ChannelParams(l_sf=0.0)
