"""Macrospin stochastic LLG integrator: fixed points, Larmor precession,
energy conservation, thermal statistics and switching solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincnn.constants import GAMMA, KB, MU0, Q
from spincnn.core import STREAM_SWITCH, MagnetParams, SimConfig, make_rng
from spincnn import dynamics
from spincnn.dynamics import (T0_TILT_DEG, GridHeun,
                              analytic_critical_current, critical_spin_current,
                              heun_step, stt_rate, switch_times,
                              t0_crossing_step, t0_switch_time,
                              t0_threshold_current, thermal_sigma)

import llg_reference as ref

P = MagnetParams()
RNG = np.random.default_rng  # only for test-local inputs, never for physics


class TestEffectiveField:
    """The field term of the reference step, the kernels' bit contract."""

    def test_easy_axis_up(self):
        H = ref.effective_field(np.array([0.0, 0.0, 1.0]), P, np.zeros(3))
        assert H == pytest.approx([0.0, 0.0, P.Hk])
        assert H[2] == pytest.approx(1.90986e5, rel=1e-4)

    def test_odd_symmetry(self):
        H = ref.effective_field(np.array([0.0, 0.0, -1.0]), P, np.zeros(3))
        assert H[2] == pytest.approx(-P.Hk)

    def test_in_plane_gives_zero(self):
        H = ref.effective_field(np.array([1.0, 0.0, 0.0]), P, np.zeros(3))
        assert np.allclose(H, 0.0)

    def test_thermal_added(self):
        thermal = np.array([1.0, 2.0, 3.0])
        H = ref.effective_field(np.array([0.0, 0.0, 1.0]), P, thermal)
        assert H == pytest.approx([1.0, 2.0, 3.0 + P.Hk])


class TestThermalField:
    def test_sigma_matches_fluctuation_dissipation(self):
        # independent recomputation of the stated closed form
        expected = math.sqrt(2 * P.alpha * KB * 300.0
                             / (MU0 ** 2 * GAMMA * P.Ms * P.volume * 1e-12))
        assert thermal_sigma(P, SimConfig()) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(18193.8, rel=1e-4)

    def test_sample_mean_small(self):
        rng = make_rng(12, 3)
        sigma = thermal_sigma(P, SimConfig())
        draws = rng.standard_normal((10 ** 6, 3)) * sigma
        assert np.all(np.abs(draws.mean(axis=0)) < 5 * sigma / 1000)

    def test_negative_temperature_rejected(self):
        # the temperature comes from a SimConfig, which checks it
        with pytest.raises(ValueError, match="temperature"):
            thermal_sigma(P, SimConfig(temperature=-1.0))


def one_magnet(m, p, dt, torque=0.0):
    """A one-magnet `GridHeun` started at m under `torque`, stepped in
    place; its state is heun.m[:3, 0]."""
    heun = GridHeun(np.array([m], dtype=float), p, dt)
    heun.torque[...] = torque
    return heun


def thermal_step(m, Is, T, rng, dt=1e-12):
    """One `GridHeun` step under spin current Is with a fresh thermal
    sample, checked bit for bit against the reference step."""
    torque = stt_rate(P, Is)
    thermal = rng.standard_normal(3) * thermal_sigma(
        P, SimConfig(dt=dt, temperature=T))
    heun = one_magnet(m, P, dt, torque)
    heun.noise[0] = thermal
    heun.step()
    assert np.array_equal(heun.m[:3, 0],
                          ref.heun_step(m, P, torque, thermal, dt))
    return heun.m[:3, 0]


class TestLlgStep:
    def test_pole_is_fixed_point(self):
        heun = one_magnet([0.0, 0.0, 1.0], P, 1e-12)
        heun.step()
        assert heun.m[:3, 0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_determinism(self):
        m0 = np.array([0.6, 0.0, 0.8])
        a = thermal_step(m0, -1e-6, 300.0, make_rng(5, 2))
        b = thermal_step(m0, -1e-6, 300.0, make_rng(5, 2))
        assert np.array_equal(a, b)

    @given(st.floats(-0.99, 0.99), st.floats(0.0, 2 * math.pi),
           st.floats(-2e-5, 2e-5))
    @settings(max_examples=80, deadline=None)
    def test_norm_preserved(self, mz, phi, Is):
        s = math.sqrt(1.0 - mz * mz)
        m = np.array([s * math.cos(phi), s * math.sin(phi), mz])
        out = thermal_step(m, Is, 300.0, make_rng(1, 2))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_larmor_frequency(self):
        # zero damping, zero torque, zero temperature: pure precession
        p = MagnetParams(alpha=1e-12)  # alpha=0 disallowed; negligible damping
        theta = math.radians(10.0)
        dt = 1e-13
        n = 10000  # 1 ns
        heun = one_magnet([math.sin(theta), 0.0, math.cos(theta)], p, dt)
        phases = []
        for _ in range(n):
            heun.step()
            phases.append(math.atan2(heun.m[1, 0], heun.m[0, 0]))
        unwrapped = np.unwrap(phases)
        f_sim = abs(unwrapped[-1] - unwrapped[0]) / (2 * math.pi * (n - 1) * dt)
        f_exp = GAMMA * MU0 * p.Hk * math.cos(theta) / (2 * math.pi)
        assert f_sim == pytest.approx(f_exp, rel=0.01)

    def test_energy_conserved_without_damping(self):
        p = MagnetParams(alpha=1e-12)
        theta = math.radians(30.0)
        heun = one_magnet([math.sin(theta), 0.0, math.cos(theta)], p, 1e-13)
        e0 = p.Ku * p.volume * (1.0 - heun.m[2, 0] ** 2)
        for _ in range(10 ** 4):
            heun.step()
        e1 = p.Ku * p.volume * (1.0 - heun.m[2, 0] ** 2)
        assert abs(e1 - e0) / e0 <= 1e-6

    def test_supercritical_switches(self):
        tilt = math.radians(1.0)
        torque = stt_rate(P, -10 * analytic_critical_current(P))
        heun = one_magnet([math.sin(tilt), 0.0, math.cos(tilt)], P, 1e-12,
                          torque)
        for _ in range(5000):  # 5 ns
            heun.step()
            if heun.m[2, 0] < -0.9:
                break
        assert heun.m[2, 0] < -0.9


class TestCriticalCurrent:
    def test_analytic_estimate_value(self):
        # frozen oracle: alpha*gamma*mu0*Hk*q*Ns at defaults
        est = analytic_critical_current(P)
        assert est == pytest.approx(
            P.alpha * GAMMA * MU0 * P.Hk * Q * P.Ns, rel=1e-12)
        assert est == pytest.approx(6.5708e-6, rel=1e-4)

    def test_bisection_within_factor_two(self):
        numeric = critical_spin_current(P, dt=2e-12)
        est = analytic_critical_current(P)
        assert est / 2 <= numeric <= est * 2

    def test_analytic_linear_in_alpha(self):
        a = analytic_critical_current(MagnetParams(alpha=0.005))
        b = analytic_critical_current(MagnetParams(alpha=0.01))
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_vanishing_barrier_lowers_threshold(self):
        small = critical_spin_current(MagnetParams(Ku=6e3), dt=2e-12)
        full = critical_spin_current(P, dt=2e-12)
        # finite-horizon bias inflates the low-barrier result (slower
        # precession), so only a coarse monotone drop is asserted
        assert small < full / 3

    def test_step_guard(self):
        with pytest.raises(ValueError, match="stability guard"):
            critical_spin_current(P, dt=5e-11)

    @pytest.mark.parametrize("p, estimate", [
        (MagnetParams(Ku=5e-324), "estimate 0 A"),           # Hk underflows
        (MagnetParams(Ku=1e300, length=1e100), "estimate inf A"),
    ])
    def test_estimate_without_bracket_rejected(self, p, estimate):
        with pytest.raises(ValueError, match=estimate):
            critical_spin_current(p, horizon=1e-9)

    def test_bracket_overflow_ends(self):
        # an estimate within 1e3 of the largest float: the doubling reaches
        # inf, and the bracket check must still fire
        p = MagnetParams(Ku=1e300, thickness=2e7)
        with pytest.raises(RuntimeError, match="bracket failure"):
            critical_spin_current(p, horizon=1e-9)


@pytest.fixture
def probes(monkeypatch):
    """The currents [A] at which the program's and the reference's
    bisections run `t0_crossing_step`, in call order."""
    seen = {"program": [], "reference": []}

    def spy(calls):
        def probe(p, Is, level, horizon, dt):
            calls.append(-Is)
            return t0_crossing_step(p, Is, level, horizon, dt)
        return probe

    monkeypatch.setattr(dynamics, "t0_crossing_step", spy(seen["program"]))
    monkeypatch.setattr(ref, "t0_crossing_step", spy(seen["reference"]))
    return seen


class TestGuidedBisection:
    """`critical_spin_current` lets the closed form decide the probes far
    from its threshold; it must return the value of the reference bisection
    by steps alone, bit for bit."""

    @pytest.mark.parametrize("p, horizon, dt, fallback", [
        (P, 50e-9, 1e-12, False),
        (P, 50e-9, 2e-12, False),
        (MagnetParams(alpha=0.005), 400e-9, 2e-12, False),
        (MagnetParams(alpha=0.02), 400e-9, 2e-12, False),
        (MagnetParams(Ku=6e3), 10e-9, 2e-12, False),
        # at these steps the stepped threshold lies 3.8 % and 3.9 % below
        # the closed-form one, so some far probe is predicted wrong
        (P, 10e-9, 5e-12, True),
        (MagnetParams(Ms=8e5, Ku=4e5), 10e-9, 1e-12, True),
    ], ids=["default-1ps", "default-2ps", "alpha-0.005", "alpha-0.02",
            "Ku-6e3", "default-5ps", "Ms-8e5-Ku-4e5"])
    def test_equals_reference_bisection(self, probes, p, horizon, dt,
                                        fallback):
        got = critical_spin_current(p, horizon, dt)
        assert got == ref.critical_spin_current(p, horizon, dt)
        # a fallback runs the reference loop: every one of its probes
        assert (set(probes["reference"]) <= set(probes["program"])) == fallback

    def test_default_magnet_runs_at_most_three_probes(self, probes):
        # the reference bisection steps 9
        assert critical_spin_current(P) == 7.700210677831596e-06
        assert len(probes["program"]) <= 3

    def test_misplaced_threshold_falls_back(self, probes, monkeypatch):
        # with I* 5 % high, the probes between the stepped threshold and
        # 0.99 I* are predicted not to switch, so the final lo switches
        exact = t0_threshold_current
        monkeypatch.setattr(dynamics, "t0_threshold_current",
                            lambda *args: 1.05 * exact(*args))
        got = critical_spin_current(P, horizon=10e-9)
        assert got == ref.critical_spin_current(P, horizon=10e-9)
        assert set(probes["reference"]) <= set(probes["program"])


class TestClosedForm:
    """`t0_switch_time`, the exact T = 0 switching time of the uniaxial
    macrospin, against quadrature and against the discrete step."""

    @pytest.mark.parametrize("mult", [0.9999, 1.0001, 1.5, 2, 5, 10])
    def test_equals_quadrature(self, mult):
        from scipy.integrate import quad
        a = P.alpha * GAMMA * MU0 * P.Hk / (1 + P.alpha ** 2)
        u0 = math.cos(math.radians(T0_TILT_DEG))
        exact = quad(lambda u: 1 / ((mult - u) * (1 - u * u)), -0.5, u0,
                     epsabs=0, epsrel=1e-12, limit=200)[0] / a
        Is = -mult * analytic_critical_current(P)
        assert t0_switch_time(P, Is, -0.5) == pytest.approx(exact, rel=1e-9)

    def test_no_switch_and_no_prediction(self):
        ic = analytic_critical_current(P)
        assert t0_switch_time(P, -0.5 * ic, -0.5) == math.inf
        assert t0_switch_time(P, 0.5 * ic, -0.5) == math.inf
        # no prediction: the r = 1 pole, a level outside (-1, start), a
        # term that is not finite
        assert t0_switch_time(P, -ic, -0.5) is None
        assert t0_switch_time(P, -2 * ic, 1.0) is None
        assert t0_switch_time(P, -2 * ic, -1.0) is None
        assert t0_switch_time(P, -math.inf, -0.5) is None
        assert t0_switch_time(MagnetParams(Ku=5e-324), -1e-6, -0.5) is None
        assert t0_threshold_current(MagnetParams(Ku=5e-324), -0.5, 5e-8) \
            is None

    def test_threshold_switches_at_the_horizon(self):
        i_star = t0_threshold_current(P, -0.5, 50e-9)
        assert i_star == pytest.approx(7.6907e-6, rel=1e-4)
        assert t0_switch_time(P, -i_star, -0.5) <= 50e-9
        assert t0_switch_time(P, -math.nextafter(i_star, 0), -0.5) > 50e-9

    @pytest.mark.parametrize("mult", [1.5, 2, 5, 10])
    def test_crossing_step_within_0p3_percent(self, mult):
        Is = -mult * analytic_critical_current(P)
        n = t0_crossing_step(P, Is, -0.5, 50e-9, 1e-12)
        assert n * 1e-12 == pytest.approx(t0_switch_time(P, Is, -0.5),
                                          rel=3e-3)

    def test_error_falls_as_dt_halves(self):
        # second order to 1 ps, first order below: x4.1, x2.1, x1.9
        Is = -2 * analytic_critical_current(P)
        exact = t0_switch_time(P, Is, -0.5)
        err = [abs(t0_crossing_step(P, Is, -0.5, 50e-9, dt) * dt / exact - 1)
               for dt in (2e-12, 1e-12, 0.5e-12, 0.25e-12)]
        assert all(coarse >= 1.5 * fine for coarse, fine in zip(err, err[1:]))


@pytest.mark.parametrize("shape", [(7,), (1, 4, 3), (3, 4, 3)])
@pytest.mark.parametrize("per_cell", [False, True], ids=["scalar", "per-cell"])
@pytest.mark.parametrize("T", [0.0, 300.0])
def test_grid_heun_equals_heun_step_loop(shape, per_cell, T):
    # the kernel on its owned noise and torque buffers, step by step,
    # against the reference step on the (*grid, 3) layout with the same
    # inputs
    rng = RNG(31)
    m = rng.normal(size=shape + (3,))
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    rate = stt_rate(P, 10 * analytic_critical_current(P))
    torque = rate * rng.choice((-1.0, 1.0), shape) if per_cell else rate
    sigma = thermal_sigma(P, SimConfig(temperature=T))
    draws = make_rng(5, STREAM_SWITCH)
    heun = GridHeun(m, P, 1e-12)
    heun.torque[...] = torque
    for _ in range(60):
        thermal = draws.standard_normal(shape + (3,)) * sigma if sigma \
            else np.zeros(shape + (3,))
        heun.noise[...] = thermal
        heun.step()
        m = ref.heun_step(m, P, torque, thermal, 1e-12)
        assert np.array_equal(np.moveaxis(heun.m[:3], 0, -1), m)
        assert np.array_equal(heun.m[3:], heun.m[:2])


@pytest.mark.parametrize("shape", [(), (30, 20), (16, 30, 20)])
def test_heun_step_equals_reference_step(shape):
    # the one-step wrapper that the perfbench micro-timings time, on their
    # shapes, per-cell torque and 300 K noise
    rng = RNG(7)
    m = rng.normal(size=shape + (3,))
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    torque = stt_rate(P, 10 * analytic_critical_current(P)) \
        * rng.choice((-1.0, 1.0), shape)
    sigma = thermal_sigma(P, SimConfig())
    got = m
    for _ in range(20):
        thermal = rng.standard_normal(shape + (3,)) * sigma
        got = heun_step(got, P, torque, thermal, 1e-12)
        m = ref.heun_step(m, P, torque, thermal, 1e-12)
        assert got.shape == shape + (3,)
        assert np.array_equal(got, m)


def reference_switch_time(p, Is, seed, cfg, tilt_deg=0.0, trace=None):
    """One magnet stepped by the reference `heun_step` with a per-step
    thermal draw of standard_normal(3) * sigma at the temperature of `cfg`;
    at T = 0 and a tilted start this is the loop that `t0_crossing_step`
    unrolls. Appends each m_z to `trace`."""
    rng = make_rng(seed, STREAM_SWITCH)
    tilt = math.radians(tilt_deg)
    m = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    torque = stt_rate(p, Is)
    sigma = thermal_sigma(p, cfg)
    for n in range(1, int(round(cfg.t_max / cfg.dt)) + 1):
        thermal = rng.standard_normal(3) * sigma if sigma else np.zeros(3)
        m = ref.heun_step(m, p, torque, thermal, cfg.dt)
        if trace is not None:
            trace.append(m[2])
        if m[2] <= -cfg.mz_threshold:
            return n * cfg.dt
    return None


class TestSwitchTime:
    CFG = SimConfig(t_max=10e-9)

    def test_subcritical_times_out_where_supercritical_switches(self):
        # at 300 K, from +z: the T = 0 runs start tilted
        ic = analytic_critical_current(P)
        cfg = SimConfig(t_max=5e-9)
        assert switch_times(P, -0.5 * ic, range(20), cfg) == [None] * 20
        assert None not in switch_times(P, -10 * ic, range(20), cfg)

    @pytest.mark.parametrize("mult", [1.5, 2, 5, 10])
    def test_zero_temperature_starts_tilted(self, mult):
        # at T = 0 every seed starts at the tilt of the T = 0 loop and
        # takes its time, bit for bit
        cfg = SimConfig(temperature=0.0, t_max=50e-9)
        Is = -mult * analytic_critical_current(P)
        n = t0_crossing_step(P, Is, -cfg.mz_threshold, cfg.t_max, cfg.dt)
        assert switch_times(P, Is, [0, 1], cfg) == [n * cfg.dt] * 2

    def test_zero_temperature_runs_once(self, monkeypatch):
        # every seed of a noiseless run has the same time: one scalar run
        # gives all 20
        crossing, calls = dynamics._crossing, []

        def spy(*args, **kwargs):
            calls.append(args)
            return crossing(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_crossing", spy)
        cfg = SimConfig(temperature=0.0, t_max=50e-9)
        times = switch_times(P, -10 * analytic_critical_current(P),
                             range(20), cfg)
        assert len(calls) == 1
        assert times == [times[0]] * 20 and times[0] is not None

    def test_wrong_sign_rejected(self):
        with pytest.raises(ValueError):
            switch_times(P, 1e-6, [0], self.CFG)

    def test_step_guard(self):
        Is = -10 * analytic_critical_current(P)
        # the step comes from a SimConfig, which checks it
        with pytest.raises(ValueError, match="stability guard"):
            switch_times(P, Is, [0], SimConfig(dt=5e-11))

    def test_thermal_switching_at_demo_drive(self):
        Is = -10 * analytic_critical_current(P)
        times = switch_times(P, Is, range(10), self.CFG)
        assert all(t is not None for t in times)
        med = float(np.median(times))
        assert 0.1e-9 <= med <= 4e-9

    def test_median_decreases_with_drive(self):
        ic = analytic_critical_current(P)
        medians = []
        for mult in (2, 5, 20):
            ts = switch_times(P, -mult * ic, range(8), self.CFG)
            assert all(t is not None for t in ts)
            medians.append(float(np.median(ts)))
        assert medians[0] > medians[1] > medians[2]

    def test_seed_determinism(self):
        Is = -10 * analytic_critical_current(P)
        assert switch_times(P, Is, [4], self.CFG) == \
            switch_times(P, Is, [4], self.CFG)

    @pytest.mark.parametrize("seeds, cfg, timeouts, early", [
        (range(4), CFG, 0, 0),
        ([7, 3, 1000003], SimConfig(t_max=1.3e-9), 2, 0),
        ([7, 3, 1000003], SimConfig(mz_threshold=0.5), 0, 0),
        # at 10 ps a step the seeds cross at steps 113, 144 and 121
        ([7, 3, 1000003], SimConfig(dt=1e-11), 0, 3),
        ([7, 3, 1000003], SimConfig(dt=1e-11, t_max=1.2e-9), 2, 1),
        ([5, 5, 2], CFG, 0, 0),
        ([], CFG, 0, 0),
    ], ids=["300K", "with-timeouts", "threshold-0.5", "first-block",
            "t_max-under-one-block", "repeated-seed", "no-seeds"])
    def test_bit_identical_to_reference_loop(self, seeds, cfg, timeouts,
                                             early):
        Is = -10 * analytic_critical_current(P)
        got = switch_times(P, Is, seeds, cfg)
        assert got == [reference_switch_time(P, Is, s, cfg) for s in seeds]
        assert got.count(None) == timeouts
        # how many seeds cross inside the first 256-step block
        assert sum(t <= 256 * cfg.dt for t in got if t is not None) == early


class TestT0Crossing:
    """The scalar T = 0 loop of the oracles against the reference loop."""

    # the loop checks the tilt once per 256-step block, and its step error
    # grows with dt: hold it to the reference at coarse steps too
    @pytest.mark.parametrize("mult, dt", [
        pytest.param(mult, dt, id=f"{mult}" if dt == 1e-12
                     else f"{mult}-{dt * 1e12:.0f}ps")
        for dt in (1e-12, 2e-12, 5e-12) for mult in (3, 5, 10, 20)])
    def test_bit_identical_to_reference_loop(self, mult, dt):
        # one reference run to m_z <= -0.9 also gives the crossing at 0.5.
        # m_z falls monotonically at T = 0, so with a level equal to the
        # reference m_z after step n, a loop even one ulp above it there
        # crosses at n + 1
        cfg = SimConfig(temperature=0.0, dt=dt)
        Is = -mult * analytic_critical_current(P)
        mz = []
        t_ref = reference_switch_time(P, Is, 0, cfg, T0_TILT_DEG, trace=mz)
        assert t0_crossing_step(P, Is, -0.9, cfg.t_max, cfg.dt) * cfg.dt == t_ref
        n_half = next(n for n, v in enumerate(mz, 1) if v <= -0.5)
        assert t0_crossing_step(P, Is, -0.5, cfg.t_max, cfg.dt) == n_half
        assert all(np.diff(mz) < 0)
        for n in np.linspace(1, len(mz), 12).astype(int):
            assert t0_crossing_step(P, Is, mz[n - 1], cfg.t_max, cfg.dt) == n

    def test_subcritical_drive_returns_none(self):
        cfg = SimConfig(t_max=3e-9, mz_threshold=0.5, temperature=0.0)
        Is = -0.5 * analytic_critical_current(P)
        assert reference_switch_time(P, Is, 0, cfg, T0_TILT_DEG) is None
        # None at the 3,000-step horizon, and here from the tilt collapse
        # check, which sees the tilt below 0.3 of its start within 10,000 steps
        assert t0_crossing_step(P, Is, -0.5, cfg.t_max, cfg.dt) is None
        assert t0_crossing_step(P, Is, -0.5, 1e-6, cfg.dt) is None
