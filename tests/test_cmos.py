"""Analog CMOS baseline: Chua cell dynamics, the calibrated amplifier
power/delay model, and the transistor-width area rule."""

import numpy as np
import pytest

from spincnn.cmos import (FEATURE_SIZE, MIN_WIDTH_F, AmplifierModel,
                          ChuaParams, _grid_derivative, cmos_area, cmos_energy,
                          cmos_noise_filter_templates, cmos_power_delay,
                          f_output, integrate)
from spincnn.core import (BOUNDARY_MINUS_ONE, TemplateSet, add_noise,
                          template_operator)
from spincnn import load_glyph

ZERO_T = TemplateSet(np.zeros((3, 3)), np.zeros((3, 3)), 0.0)
P = ChuaParams()


class TestOutputFunction:
    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (2.0, 1.0), (-2.0, -1.0),
                                     (0.5, 0.5), (1.0, 1.0), (-0.25, -0.25)])
    def test_piecewise_linear_saturation(self, x, y):
        assert f_output(x) == pytest.approx(y)

    def test_bounded(self):
        xs = np.linspace(-10, 10, 101)
        ys = f_output(xs)
        eps = 1e-12  # 0.5(|x+1|-|x-1|) can undershoot by one ulp
        assert np.all(ys >= -1.0 - eps) and np.all(ys <= 1.0 + eps)


def derivative(x, u, templates):
    """dx/dt of the whole grid, shaped like x, with the -1 border."""
    W, c = template_operator(templates, u, BOUNDARY_MINUS_ONE)
    return _grid_derivative(x.reshape(-1), W, c, P).reshape(x.shape)


def reference_derivative(x, u, templates):
    """The grid derivative as a padded slice loop over the nine offsets."""
    rows, cols = x.shape
    A, B, I = templates.per_cell(rows, cols)
    yp = np.pad(f_output(x), 1, constant_values=-1.0)
    up = np.pad(u, 1, constant_values=-1.0)
    acc = np.array(np.broadcast_to(I, (rows, cols)), dtype=float, copy=True)
    for dr in range(3):
        for dc in range(3):
            acc += A[:, :, dr, dc] * yp[dr:dr + rows, dc:dc + cols]
            acc += B[:, :, dr, dc] * up[dr:dr + rows, dc:dc + cols]
    return (-x / P.R + acc) / P.C


class TestCellDerivative:
    def test_homogeneous_decay(self):
        x = np.full((3, 3), 0.8)
        u = np.zeros((3, 3))
        d = derivative(x, u, ZERO_T)[1, 1]
        assert d == pytest.approx(-0.8 / (P.R * P.C), rel=1e-12)

    def test_template_drive_added(self):
        t = cmos_noise_filter_templates()
        x = np.full((3, 3), 2.0)  # all outputs saturated at +1
        u = np.zeros((3, 3))
        d = derivative(x, u, t)[1, 1]
        # -x/R + (center 2 + four cross neighbors) = -2 + 6
        assert d == pytest.approx(4.0, rel=1e-12)

    def test_fixed_point_has_zero_derivative(self):
        t = TemplateSet(np.zeros((3, 3)), np.zeros((3, 3)), 1.5)
        x = np.full((3, 3), 1.5 * P.R)
        d = derivative(x, np.zeros((3, 3)), t)[1, 1]
        assert d == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(30, 20), (6, 5), (1, 4), (1, 1)])
    def test_matches_slice_loop(self, shape):
        # continuous x, u and weights: the summation order differs, so
        # agreement is to a relative 1e-12 of the largest derivative
        rng = np.random.default_rng(31)
        templates = [cmos_noise_filter_templates(),
                     TemplateSet(rng.normal(size=shape + (3, 3)),
                                 rng.normal(size=shape + (3, 3)),
                                 rng.normal(size=shape))]
        for t in templates:
            for _ in range(20):
                x = rng.normal(scale=1.5, size=shape)
                u = rng.uniform(-1.0, 1.0, size=shape)
                ref = reference_derivative(x, u, t)
                err = np.max(np.abs(derivative(x, u, t) - ref))
                assert err <= 1e-12 * np.max(np.abs(ref))


class TestIntegrate:
    def test_decay_matches_analytic(self):
        x0 = np.full((2, 2), 1.0)
        u = np.zeros((2, 2))
        tau = P.tau
        times, states, _ = integrate(x0, u, ZERO_T, P, dt=0.002 * tau,
                                     t_max=5 * tau, sample_interval=tau)
        expected = np.exp(-times[-1] / tau)
        assert abs(states[-1][0, 0] - expected) / expected <= 1e-8

    def test_dt_guard(self):
        with pytest.raises(ValueError, match="stability guard"):
            integrate(np.zeros((2, 2)), np.zeros((2, 2)), ZERO_T, P,
                      dt=0.5 * P.tau, t_max=P.tau)

    def test_center2_filters_noisy_glyph_deterministically(self):
        clean = load_glyph("zero")
        noisy = add_noise(clean, 0.1, 0)
        x0 = noisy.to_array().astype(float)
        u = x0.copy()
        t = cmos_noise_filter_templates()
        _, states, conv = integrate(x0, u, t, P, dt=0.02 * P.tau,
                                    t_max=20 * P.tau, hold_time=0.5 * P.tau)
        assert conv is not None
        final = np.where(states[-1] > 0, 1, -1)
        # deterministic ODE: rerun gives the identical result
        _, states2, conv2 = integrate(x0, u, t, P, dt=0.02 * P.tau,
                                      t_max=20 * P.tau, hold_time=0.5 * P.tau)
        assert conv == conv2
        assert np.array_equal(states[-1], states2[-1])
        # the majority rule repairs most of the noise; residual stuck
        # minority clusters are a property of the template, not the solver
        wrong = int(np.sum(final != clean.to_array()))
        assert wrong < 60

    def test_pre_converged_state(self):
        x0 = np.full((2, 2), 1.5)
        t = TemplateSet(np.full((3, 3), 0.0), np.zeros((3, 3)), 2.0)
        _, _, conv = integrate(x0, np.zeros((2, 2)), t, P, dt=0.01,
                               t_max=1.0)
        assert conv == 0.0

    def test_pre_converged_start_returns_one_sample(self):
        x0 = np.full((2, 2), 1.5)
        t = TemplateSet(np.zeros((3, 3)), np.zeros((3, 3)), 2.0)
        times, states, conv = integrate(x0, np.zeros((2, 2)), t, P, dt=0.01,
                                        t_max=1.0)
        assert conv == 0.0
        assert list(times) == [0.0]
        assert np.array_equal(states, x0[None])

    @pytest.mark.parametrize("hold", [0.0, 0.5])
    def test_saturated_cell_its_drive_cannot_hold_never_settles(self, hold):
        # x relaxes from 3 towards R I = 0.5, so its output leaves
        # saturation near t = ln 5 tau; |x| >= 1 alone would call it
        # settled at t = hold
        t = TemplateSet(np.zeros((3, 3)), np.zeros((3, 3)), 0.5)
        times, states, conv = integrate(np.full((1, 1), 3.0), np.zeros((1, 1)),
                                        t, P, dt=0.01, t_max=10.0,
                                        hold_time=hold * P.tau)
        assert conv is None
        assert times[-1] == pytest.approx(10.0)
        assert abs(states[-1, 0, 0] - 0.5) < 1e-3

    def test_settles_once_saturated_drive_holds_every_cell(self):
        # x = 1.2 under I = 2: saturated, and relaxing towards R I = 2
        t = TemplateSet(np.zeros((3, 3)), np.zeros((3, 3)), 2.0)
        x0 = np.array([[0.5, 1.2]])
        times, states, conv = integrate(x0, np.zeros((1, 2)), t, P, dt=0.01,
                                        t_max=10.0, hold_time=0.1,
                                        sample_interval=1.0)
        # x0 = 0.5 reaches 1 at t = ln(1.5 / 1) = 0.405, held 0.1 after
        assert conv == pytest.approx(0.51, abs=0.011)
        assert times[-1] == conv
        assert np.all(states[-1] >= 1.0)


class TestAmplifierModel:
    def test_unit_scale_calibration_point(self):
        a = AmplifierModel()
        power, delay = cmos_power_delay(a, 1.0)
        assert power == pytest.approx(a.p_neuron)
        assert delay == pytest.approx(a.delay_0)

    def test_delay_floor(self):
        a = AmplifierModel()
        _, delay = cmos_power_delay(a, 1000.0)
        assert delay == a.delay_floor

    def test_energy_flat_above_floor_then_rising(self):
        a = AmplifierModel()
        energies = {s: cmos_energy(a, s, 1, 0)[0] for s in (1, 2, 5, 10, 20)}
        # while delay = delay_0/scale, energy is scale-independent
        assert energies[1] == pytest.approx(energies[5], rel=1e-12)
        assert energies[1] == pytest.approx(energies[10], rel=1e-12)
        # once the delay floor binds, energy grows linearly with bias
        assert energies[20] == pytest.approx(2 * energies[10], rel=1e-12)

    def test_synapse_power_scaling(self):
        a = AmplifierModel()
        p0, _ = cmos_power_delay(a, 1.0, n_cells=1, n_syn=5)
        assert p0 == pytest.approx(a.p_neuron + 5 * a.p_synapse)
        p1, _ = cmos_power_delay(a, 1.0, n_cells=1, n_syn=5,
                                 syn_power_factor=1.5)
        assert p1 == pytest.approx(a.p_neuron + 7.5 * a.p_synapse)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            cmos_power_delay(AmplifierModel(), 0.0)


class TestArea:
    def test_neuron_only(self):
        w_min = MIN_WIDTH_F * FEATURE_SIZE
        # the op amp: seven transistors of 2 unit widths
        expected = 7 * 2 * w_min * 8 * FEATURE_SIZE
        assert cmos_area(0, 1) == pytest.approx(expected, rel=1e-12)

    def test_synapse_term_linear(self):
        a1 = cmos_area(1, 3)
        a2 = cmos_area(2, 3)
        a0 = cmos_area(0, 3)
        assert a2 - a1 == pytest.approx(a1 - a0, rel=1e-12)

    def test_resolution_tail_widths(self):
        # 3-bit tail (1+2+4) vs 1-bit tail (1): difference of 6 width units
        w_min = MIN_WIDTH_F * FEATURE_SIZE
        d = cmos_area(1, 3) - cmos_area(1, 1)
        assert d == pytest.approx(6 * w_min * 8 * FEATURE_SIZE, rel=1e-12)

    def test_cells_linear(self):
        assert cmos_area(5, 3, n_cells=600) == pytest.approx(
            600 * cmos_area(5, 3, n_cells=1), rel=1e-12)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            cmos_area(-1, 3)
        with pytest.raises(ValueError):
            cmos_area(1, 0)


def test_chua_params_validation():
    with pytest.raises(ValueError):
        ChuaParams(R=0.0)
    with pytest.raises(ValueError):
        ChuaParams(C=-1.0)
