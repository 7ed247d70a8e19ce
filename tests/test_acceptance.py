"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single summary line
(visible via -v as the test verdict; measured numbers appear in the
captured output on failure). Heavy design-space sweeps are shared through
module-scope fixtures.
"""

import math
import os

import numpy as np
import pytest

from spincnn import load_glyph
from spincnn.analysis import (EnergyParams, Scenario, aggregate, cmos_sweep,
                              compare, pareto)
from spincnn.cli import main
from spincnn.cmos import (AmplifierModel, ChuaParams, cmos_energy,
                          cmos_noise_filter_templates, integrate)
from spincnn.constants import GAMMA, KB, MU0
from spincnn.core import (MagnetParams, SimConfig, TemplateSet, add_noise,
                          make_rng)
from spincnn.dynamics import (GridHeun, analytic_critical_current,
                              critical_spin_current, stt_rate, thermal_sigma)
from spincnn.network import (CellModel, CnnGrid, GridStepper, hebbian_train,
                             noise_filter_templates, run_many)
from spincnn.readpath import (InverterModel, MtjParams, read_cell,
                              read_current)
from spincnn.synapse import (DriveModel, SynapseConfig, decode_config,
                             encode_weight, quantize_weight,
                             representable_weights, unit_current)
from spincnn.transport import (ChannelParams, numeric_transmission,
                               spin_transmission)

JOBS = min(8, os.cpu_count() or 1)
SWEEP_VOLTAGES = [0.01, 0.05, 0.11, 0.14, 0.19, 0.27, 0.52, 1.0]
SWEEP_CFG = SimConfig(dt=2e-12, t_max=50e-9)
SWEEP_SEEDS = [0, 1]


def _report(criterion: str, verdict: bool, detail: str):
    print(f"[{'PASS' if verdict else 'FAIL'}] {criterion}: {detail}")
    return verdict


# ---------------------------------------------------------------------------
# criterion 1: LLG physics suite


def test_criterion_01_llg_physics_suite():
    p = MagnetParams()
    rng = make_rng(0, 2)

    # (a) |m| conservation <= 1e-9 per step, on the program's kernel
    heun = GridHeun(np.array([[0.6, 0.0, 0.8]]), p, 1e-12)
    heun.torque[...] = stt_rate(p, -1e-6)
    sigma = thermal_sigma(p, SimConfig())
    worst = 0.0
    for _ in range(2000):
        heun.noise[0] = rng.standard_normal(3) * sigma
        heun.step()
        worst = max(worst, abs(float(np.linalg.norm(heun.m[:3, 0])) - 1.0))
    assert worst <= 1e-9

    # (b) negligible-damping Larmor frequency within 1% and (c) zero-damping
    # anisotropy-energy drift <= 1e-6 over 1e4 steps: two magnets, 10 and
    # 30 degrees off +z, in one kernel at zero torque and field noise
    p0 = MagnetParams(alpha=1e-12)
    theta, dt, n = math.radians(10.0), 1e-13, 10000
    heun = GridHeun(np.array([[math.sin(t), 0.0, math.cos(t)] for t in
                              (theta, math.radians(30))]), p0, dt)
    e0 = p0.Ku * p0.volume * (1 - heun.m[2, 1] ** 2)
    phases = []
    for _ in range(n):
        heun.step()
        phases.append(math.atan2(heun.m[1, 0], heun.m[0, 0]))
    f_sim = abs(np.unwrap(phases)[-1] - np.unwrap(phases)[0]) \
        / (2 * math.pi * (n - 1) * dt)
    f_exp = GAMMA * MU0 * p0.Hk * math.cos(theta) / (2 * math.pi)
    larmor_err = abs(f_sim - f_exp) / f_exp
    assert larmor_err <= 0.01
    drift = abs(p0.Ku * p0.volume * (1 - heun.m[2, 1] ** 2) - e0) / e0
    assert drift <= 1e-6

    # (d) Boltzmann m_z distribution for a reduced-barrier magnet
    # (Ku' V / kB T = 2), >= 1e6 stationary samples from a 2048-magnet
    # ensemble, mean anisotropy energy within 10% of the analytic value
    T = 300.0
    ku = 2.0 * KB * T / p.volume
    pr = MagnetParams(Ku=ku, alpha=0.1)
    n_mag, dt = 2048, 1e-12
    rng = make_rng(2024, 2)
    ens = rng.standard_normal((n_mag, 3))
    ens /= np.linalg.norm(ens, axis=-1, keepdims=True)
    sigma = thermal_sigma(pr, SimConfig(dt=dt, temperature=T))
    # the grid kernel at zero torque, bit for bit a reference loop fed
    # rng.standard_normal((n_mag, 3)) * sigma per step
    heun = GridHeun(ens, pr, dt)

    def step():
        rng.standard_normal(out=heun.noise)
        heun.noise *= sigma
        heun.step()

    for _ in range(10000):  # burn-in ~3 relaxation times
        step()
    samples = []
    for i in range(5000):
        step()
        if i % 10 == 0:
            samples.append(1.0 - heun.m[2] ** 2)
    samples = np.concatenate(samples)
    assert samples.size >= 10 ** 6
    mean_sim = ku * pr.volume * samples.mean()
    t = np.linspace(-1, 1, 20001)
    w = np.exp(-ku * pr.volume * (1 - t * t) / (KB * T))
    mean_ana = ku * pr.volume * float(np.trapezoid((1 - t * t) * w, t)
                                      / np.trapezoid(w, t))
    boltzmann_err = abs(mean_sim - mean_ana) / mean_ana
    ok = boltzmann_err <= 0.10
    assert _report(
        "criterion 1 (LLG physics)", ok,
        f"norm drift {worst:.2e}, Larmor err {larmor_err:.4f}, "
        f"energy drift {drift:.2e}, Boltzmann mean-energy err "
        f"{boltzmann_err:.4f} over {samples.size} samples")


# ---------------------------------------------------------------------------
# criterion 2: critical current


def test_criterion_02_critical_current():
    p = MagnetParams()
    analytic = analytic_critical_current(p)
    assert analytic == pytest.approx(6.5708e-6, rel=1e-3)
    numeric = critical_spin_current(p)  # default 50 ns horizon
    factor = numeric / analytic
    assert 0.5 <= factor <= 2.0

    # linearity in alpha within 5%; the long horizon removes the
    # finite-horizon bias that is relatively larger at small alpha
    ratios = []
    for alpha in (0.005, 0.01, 0.02):
        pa = MagnetParams(alpha=alpha)
        ic = critical_spin_current(pa, horizon=400e-9, dt=2e-12)
        ratios.append(ic / analytic_critical_current(pa))
    spread = max(ratios) / min(ratios)
    ok = spread <= 1.05
    assert _report(
        "criterion 2 (critical current)", ok,
        f"bisection/analytic {factor:.3f} (tolerance factor 2), "
        f"alpha-linearity spread {spread:.4f} (tolerance 1.05)")


# ---------------------------------------------------------------------------
# criterion 3: spin transport


def test_criterion_03_spin_transport():
    ch = ChannelParams()
    exact = spin_transmission(ch)
    assert exact == pytest.approx(0.9723097578, abs=5e-11)
    err_1024 = abs(numeric_transmission(1024, ch) - exact)
    assert err_1024 <= 1e-6

    # superposition linearity to 1e-12: the grid's drive under a template
    # set is the sum of its drives under each single template entry
    noisy = add_noise(load_glyph("zero"), 0.1, 3)
    model = CellModel(i0=1e-6)

    def drive(A, B, I):
        grid = CnnGrid.from_pattern(noisy, noisy, TemplateSet(A, B, I))
        s = GridStepper([(grid, SimConfig(), model)])
        return s.currents(s.y)[0]

    A = np.array([[0.25, 1.0, -0.5], [2.0, 1.0, -1.5], [0.0, 0.75, -0.25]])
    B = np.array([[-1.0, 0.0, 0.5], [0.0, 1.25, 0.0], [-0.75, 0.0, 2.0]])
    I = 0.5
    zero = np.zeros((3, 3))
    whole = drive(A, B, I)
    parts = drive(zero, zero, I)
    for tap in np.eye(9).reshape(9, 3, 3):
        parts = parts + drive(A * tap, zero, 0.0) + drive(zero, B * tap, 0.0)
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-24)

    # O(N^-2) convergence order
    errs = [abs(numeric_transmission(n, ch) - exact)
            for n in (64, 128, 256, 512)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = all(abs(o - 2.0) <= 0.3 for o in orders)
    assert _report(
        "criterion 3 (spin transport)", ok,
        f"BVP error {err_1024:.2e} at N=1024, convergence orders "
        f"{[round(o, 2) for o in orders]}")


# ---------------------------------------------------------------------------
# criterion 4: noise filtering end-to-end


def _window_sum(a: np.ndarray, pad_value: int) -> np.ndarray:
    """Sum over each pixel's 5x5 window, with pad_value outside the grid."""
    padded = np.pad(a.astype(int), 2, constant_values=pad_value)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (5, 5))
    return windows.sum(axis=(-2, -1))


def test_criterion_04_noise_filtering():
    # The cross-template majority rule repairs isolated flips but keeps
    # spurious stable states (adjacent flipped pairs on stroke edges, flipped
    # corners, 2x2 blocks), so exact recovery is measured, not asserted. On
    # these 20 noisy inputs the ideal discrete cross rule (-1 border) leaves
    # 2-17 wrong pixels, and the CMOS Chua baseline (cmos.integrate with
    # cmos_noise_filter_templates) leaves 3-18 and recovers 0/20 exactly.
    # What is asserted is what a CNN filter promises (Chua & Yang 1988): it
    # settles to a fixed point of its template, repairing isolated noise and
    # leaving noise-free regions alone.
    clean = load_glyph("zero")
    c = clean.to_array().astype(int)
    ic = analytic_critical_current(MagnetParams())
    model = CellModel(i0=10 * ic)
    templates = noise_filter_templates()
    settled, times, wrongs, exact = 0, [], [], 0
    repaired, isolated_total = 0, 0
    bad = {"isolated": [], "clean-region": [], "fixed-point": []}
    inputs = [add_noise(clean, 0.1, seed) for seed in range(20)]
    trajs = run_many([(CnnGrid.from_pattern(noisy, noisy, templates),
                       SimConfig(seed=seed, t_max=20e-9), model)
                      for seed, noisy in enumerate(inputs)], frames=False)
    for seed, (noisy, traj) in enumerate(zip(inputs, trajs)):
        flipped = noisy.to_array() != c
        assert int(np.sum(flipped)) == 60
        y = traj.final_pattern.to_array().astype(int)
        if traj.converged:
            times.append(traj.convergence_time * 1e9)
            if 1e-9 <= traj.convergence_time <= 8e-9:
                settled += 1
        wrong = int(np.sum(y != c))
        wrongs.append(wrong)
        exact += wrong == 0

        # (b) a flip alone in a one-colour 5x5 window of the clean glyph
        # (-1 virtual border) ends at its clean value
        flips_near = _window_sum(flipped, 0)
        isolated = flipped & (flips_near == 1) \
            & (np.abs(_window_sum(c, -1)) == 25)
        isolated_total += int(np.sum(isolated))
        repaired += int(np.sum(isolated & (y == c)))
        if np.any(isolated & (y != c)):
            bad["isolated"].append(seed)
        # (c) a pixel with no flip in its 5x5 window ends at its clean value
        if np.any((flips_near == 0) & (y != c)):
            bad["clean-region"].append(seed)
        # (d) every cell equals the sign of its cross sum (-1 border)
        yp = np.pad(y, 1, constant_values=-1)
        cross = yp[1:-1, 1:-1] + yp[:-2, 1:-1] + yp[2:, 1:-1] \
            + yp[1:-1, :-2] + yp[1:-1, 2:]
        if not np.array_equal(np.sign(cross), y):
            bad["fixed-point"].append(seed)

    ok = settled >= 19 and not any(bad.values())
    span = f"{min(times):.2f}-{max(times):.2f} ns" if times else "n/a"
    failures = "; ".join(f"{k} check failed on seeds {v}"
                         for k, v in bad.items() if v) or "all checks hold"
    detail = (
        f"{settled}/20 seeds settled in 1-8 ns (need >= 19), settle times "
        f"{span}; isolated noise pixels repaired {repaired}/{isolated_total}; "
        f"{failures}. Measured, not asserted: {exact}/20 exact recoveries, "
        f"residual wrong pixels per seed min {min(wrongs)}, "
        f"median {np.median(wrongs):g}, max {max(wrongs)}.")
    assert _report("criterion 4 (noise filtering)", ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 5: associative memory


def test_criterion_05_associative_memory():
    one, two = load_glyph("one"), load_glyph("two")
    three, four = load_glyph("three"), load_glyph("four")
    templates = hebbian_train([(one, two), (three, four)])
    ic = analytic_critical_current(MagnetParams())
    model = CellModel(i0=10 * ic)
    successes, times = 0, []
    cues = [add_noise(one, 4 / 600, seed) for seed in range(20)]
    trajs = run_many([(CnnGrid.from_pattern(cue, cue, templates),
                       SimConfig(seed=seed, t_max=40e-9), model)
                      for seed, cue in enumerate(cues)], frames=False)
    for traj in trajs:
        if traj.converged and traj.final_pattern == two \
                and 3e-9 <= traj.convergence_time <= 30e-9:
            successes += 1
            times.append(traj.convergence_time * 1e9)
    ok = successes >= 18  # >= 90% of 20 seeds
    span = f"{min(times):.2f}-{max(times):.2f} ns" if times else "n/a"
    assert _report(
        "criterion 5 (associative memory)", ok,
        f"{successes}/20 seeds recalled the associated glyph in "
        f"{span} (window 3-30 ns)")


# ---------------------------------------------------------------------------
# criterion 6: read path


def test_criterion_06_read_path():
    inv = InverterModel()
    mz = np.linspace(-1, 1, 41)
    for t_ox in (1.9e-9, 2.0e-9, 2.1e-9):
        mtj = MtjParams(t_ox_ref=t_ox, t_ox_read=t_ox)
        assert read_cell(mtj, inv, 1.0)[1] == 1
        assert read_cell(mtj, inv, -1.0)[1] == -1
        # the logic read the grid runs, against the analog read's logic
        logic = CellModel(mtj=mtj, inverter=inv).logic
        assert list(logic(np.array([1.0, -1.0]))) == [1.0, -1.0]
        assert list(logic(mz)) == [read_cell(mtj, inv, v)[1] for v in mz]
    mtj = MtjParams()
    analog = [read_cell(mtj, inv, v)[0] for v in mz]
    assert all(a <= b + 1e-12 for a, b in zip(analog, analog[1:]))
    i_read = max(read_current(mtj, mz) for mz in (-1.0, 0.0, 1.0))
    assert i_read <= 3.5e-6 * (1 + 1e-12)
    bound = analytic_critical_current(MagnetParams()) / ChannelParams().beta
    ok = i_read <= bound
    assert _report(
        "criterion 6 (read path)", ok,
        f"logic invariant across 1.9/2.0/2.1 nm, transfer monotone, "
        f"read current {i_read * 1e6:.2f} uA <= disturb bound "
        f"{bound * 1e6:.2f} uA")


# ---------------------------------------------------------------------------
# criterion 7: synapse codec


def test_criterion_07_synapse_codec():
    levels = representable_weights()
    assert levels == [-8, -6, -4, -2, 0, 2, 4, 6, 8]
    for w in levels:
        assert decode_config(encode_weight(w)) == w
    from itertools import product
    for signs in product((-1, 1), repeat=4):
        c = SynapseConfig(signs)
        assert decode_config(SynapseConfig(tuple(-s for s in signs))) \
            == -decode_config(c)
    worst = 0.0
    for x in np.linspace(-8, 8, 1601):
        q = quantize_weight(float(x))
        assert quantize_weight(q) == q
        worst = max(worst, abs(q - x))
    ok = worst <= 1.0
    assert _report(
        "criterion 7 (synapse codec)", ok,
        f"9-level round-trip identity, 16-config negation symmetry, "
        f"quantizer idempotent with max error {worst:.3f}")


# ---------------------------------------------------------------------------
# criteria 8 + 9: design-space sweeps (shared fixtures)


@pytest.fixture(scope="module")
def nf_sweep(sorted_sweep):
    zero = load_glyph("zero")
    s = Scenario("noise-filter", zero, noise_filter_templates(), 0.1)
    recs = sorted_sweep(s, SWEEP_VOLTAGES, [1], SWEEP_SEEDS, SWEEP_CFG,
                        CellModel(), DriveModel(), EnergyParams(), jobs=JOBS)
    return s, recs


@pytest.fixture(scope="module")
def assoc_sweep(sorted_sweep):
    one, two = load_glyph("one"), load_glyph("two")
    three, four = load_glyph("three"), load_glyph("four")
    templates = hebbian_train([(one, two), (three, four)])
    s = Scenario("assoc", one, templates, 4 / 600)
    recs = sorted_sweep(s, SWEEP_VOLTAGES, [1], SWEEP_SEEDS, SWEEP_CFG,
                        CellModel(), DriveModel(), EnergyParams(), jobs=JOBS)
    return s, recs


def test_criterion_08_design_space_shape(nf_sweep):
    d = DriveModel()
    assert unit_current(d, 10e-3) == pytest.approx(2.8e-6, rel=1e-12)
    assert unit_current(d, 1.0) == pytest.approx(75e-6, rel=1e-12)

    _, recs = nf_sweep
    agg = aggregate(recs)
    assert len(agg) == 8
    conv = [a for a in agg if a.converged]
    assert len(conv) >= 4
    delays = [a.delay for a in conv]
    strictly_decreasing = all(a > b for a, b in zip(delays, delays[1:]))

    energies = [a.energy for a in conv]
    k = int(np.argmin(energies))
    interior = 0 < k < len(conv) - 1 \
        and conv[k].v_drive not in (SWEEP_VOLTAGES[0], SWEEP_VOLTAGES[-1])
    ok = strictly_decreasing and interior
    assert _report(
        "criterion 8 (design-space shape)", ok,
        f"IV anchors exact; converged delays "
        f"{[round(x * 1e9, 2) for x in delays]} ns strictly decreasing: "
        f"{strictly_decreasing}; energy argmin at "
        f"{conv[k].v_drive:.2f} V (interior: {interior})")


def test_criterion_09_pareto_comparison(nf_sweep, assoc_sweep):
    amp = AmplifierModel()
    scales = [1, 2, 5, 10, 20, 50]

    s_nf, recs_nf = nf_sweep
    rep_nf = compare(pareto(recs_nf), cmos_sweep(s_nf, scales, amp))
    s_as, recs_as = assoc_sweep
    rep_as = compare(pareto(recs_as), cmos_sweep(s_as, scales, amp))

    ok = rep_nf["energy_ratio"] >= 10.0 \
        and rep_as["energy_ratio"] < rep_nf["energy_ratio"]
    assert rep_nf["cmos_label"] == "calibrated-to-published-claims"
    assert _report(
        "criterion 9 (Pareto comparison)", ok,
        f"noise-filter energy ratio {rep_nf['energy_ratio']:.1f}x at "
        f"matched delay ({rep_nf['spin_delay_s'] * 1e9:.1f} vs "
        f"{rep_nf['cmos_delay_s'] * 1e9:.1f} ns); associative ratio "
        f"{rep_as['energy_ratio']:.1f}x (must be smaller); CMOS side "
        f"labeled {rep_nf['cmos_label']}")


# ---------------------------------------------------------------------------
# criterion 10: CMOS baseline


def test_criterion_10_cmos_baseline():
    p = ChuaParams()
    zero_t = TemplateSet(np.zeros((3, 3)), np.zeros((3, 3)), 0.0)
    x0 = np.full((2, 2), 1.0)
    times, states, _ = integrate(x0, np.zeros((2, 2)), zero_t, p,
                                 dt=0.002 * p.tau, t_max=5 * p.tau,
                                 sample_interval=p.tau)
    decay_err = abs(states[-1][0, 0] - math.exp(-times[-1] / p.tau)) \
        / math.exp(-times[-1] / p.tau)
    assert decay_err <= 1e-8

    clean = load_glyph("zero")
    noisy = add_noise(clean, 0.1, 0)
    x = noisy.to_array().astype(float)
    run1 = integrate(x, x.copy(), cmos_noise_filter_templates(), p,
                     dt=0.02 * p.tau, t_max=20 * p.tau, hold_time=0.5 * p.tau)
    run2 = integrate(x, x.copy(), cmos_noise_filter_templates(), p,
                     dt=0.02 * p.tau, t_max=20 * p.tau, hold_time=0.5 * p.tau)
    assert run1[2] is not None and run1[2] == run2[2]
    assert np.array_equal(run1[1][-1], run2[1][-1])

    amp = AmplifierModel()
    floor_scale = amp.delay_0 / amp.delay_floor
    e_slow = cmos_energy(amp, 1.0, 600, 5)[0]
    e_at_floor, d_at_floor = cmos_energy(amp, floor_scale, 600, 5)
    assert d_at_floor == amp.delay_floor
    flat = e_at_floor == pytest.approx(e_slow, rel=1e-9)
    rising = cmos_energy(amp, 2 * floor_scale, 600, 5)[0] > 1.5 * e_at_floor
    ok = flat and rising
    assert _report(
        "criterion 10 (CMOS baseline)", ok,
        f"homogeneous decay error {decay_err:.2e} at 5RC; noisy-glyph "
        f"filtering deterministic (converged at {run1[2]:.2f} tau); energy "
        f"flat down to the {amp.delay_floor * 1e9:.0f} ns delay floor, "
        f"rising beyond it")


# ---------------------------------------------------------------------------
# criterion 11: determinism


def test_criterion_11_determinism(tmp_path, monkeypatch):
    # two usable CPUs on any host, so that --jobs 2 opens a pool
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("[sim]\ndt = 2e-12\nt_max = 8e-9\nhold_time = 0.2e-9\n")

    sim_args = ["simulate", "--config", str(cfg), "--pattern", "zero",
                "--seed", "5"]
    assert main(sim_args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sim_args + ["--out", str(tmp_path / "s2")]) == 0
    sim_same = (tmp_path / "s1" / "trajectory.csv").read_bytes() == \
        (tmp_path / "s2" / "trajectory.csv").read_bytes()

    sweep_args = ["sweep", "--config", str(cfg),
                  "--voltages", "0.27,0.52,1.0", "--seeds", "0,1"]
    assert main(sweep_args + ["--jobs", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(sweep_args + ["--jobs", "2", "--out", str(tmp_path / "w2")]) == 0
    sweep_same = all(
        (tmp_path / "w1" / n).read_bytes() == (tmp_path / "w2" / n).read_bytes()
        for n in ("sweep.csv", "pareto.csv", "comparison.txt"))
    ok = sim_same and sweep_same
    assert _report(
        "criterion 11 (determinism)", ok,
        f"simulate rerun byte-identical: {sim_same}; sweep CSVs identical "
        f"across --jobs 1 vs 2: {sweep_same}")
