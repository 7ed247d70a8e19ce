"""Spintronic CNN engine: current assembly, synchronous stepping,
convergence detection, Hebbian training and template file I/O."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincnn import load_glyph
from spincnn.core import (STREAM_LLG, MagnetParams, Pattern, SimConfig,
                          TemplateSet, add_noise, make_rng)
from spincnn.dynamics import analytic_critical_current, stt_rate, thermal_sigma
from spincnn.network import (BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX,
                             CellModel, CnnGrid, GridStepper, hebbian_train,
                             load_templates, net_currents,
                             noise_filter_templates, quantize_templates, run,
                             run_many, save_templates)
from spincnn.readpath import InverterModel
from spincnn.synapse import LEVELS_PER_UNIT_WEIGHT, representable_weights
from spincnn.transport import ChannelParams, spin_transmission

import llg_reference as ref

IC = analytic_critical_current(MagnetParams())
MODEL = CellModel(i0=10 * IC)
DELIVERY = MODEL.channel.delivery


def solid(rows, cols, value=1):
    return Pattern(rows, cols, (value,) * (rows * cols))


def grid_of(pattern, templates=None):
    t = templates if templates is not None else noise_filter_templates()
    return CnnGrid.from_pattern(pattern, pattern, t)


class TestTemplates:
    def test_noise_filter_template_values(self):
        t = noise_filter_templates()
        assert np.array_equal(t.A, [[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        assert np.all(np.asarray(t.B) == 0.0)
        assert float(np.asarray(t.I)) == 0.0

    def test_quantized_form_is_identity_on_unit_weights(self):
        t = noise_filter_templates()
        assert np.array_equal(quantize_templates(np.asarray(t.A)), t.A)


def centre_drive(A, levels, model=MODEL):
    """Net spin current into the centre of a 3x3 grid whose logic outputs
    are `levels` (row-major), under the feedback template A alone."""
    p = Pattern.from_array(np.reshape(levels, (3, 3)))
    t = TemplateSet(A, np.zeros((3, 3)), 0.0)
    return net_currents(CnnGrid.from_pattern(p, p, t), model)[1, 1]


def single_tap(k, weight):
    A = np.zeros(9)
    A[k] = weight
    return A.reshape(3, 3)


class TestNetCurrents:
    def test_uniform_up_interior_cell(self):
        g = grid_of(solid(5, 5))
        Is = net_currents(g, MODEL)
        assert Is[2, 2] == pytest.approx(5 * MODEL.i0 * DELIVERY, rel=1e-12)

    def test_uniform_up_edges_with_white_surround(self):
        g = grid_of(solid(5, 5))
        Is = net_currents(g, MODEL)
        # edge: 3 real +1 neighbors, 1 virtual -1, self +1
        assert Is[0, 2] == pytest.approx(3 * MODEL.i0 * DELIVERY, rel=1e-12)
        # corner: 2 real, 2 virtual
        assert Is[0, 0] == pytest.approx(1 * MODEL.i0 * DELIVERY, rel=1e-12)

    def test_zero_flux_boundary_restores_symmetry(self):
        model = replace(MODEL, boundary=BOUNDARY_ZERO_FLUX)
        Is = net_currents(grid_of(solid(5, 5)), model)
        assert np.allclose(Is, 5 * MODEL.i0 * DELIVERY)

    def test_minority_pixel_currents(self):
        arr = np.ones((5, 5), dtype=int)
        arr[2, 2] = -1
        g = grid_of(Pattern.from_array(arr))
        Is = net_currents(g, MODEL)
        # minority cell: 4 neighbors +1, self -1 => +3 units toward +z
        assert Is[2, 2] == pytest.approx(3 * MODEL.i0 * DELIVERY, rel=1e-12)
        # its neighbor: 3 agreeing neighbors + self - minority = +3 units
        assert Is[2, 1] == pytest.approx(3 * MODEL.i0 * DELIVERY, rel=1e-12)
        # all currents positive: every cell is driven toward black
        assert np.all(Is > 0)

    def test_delivery_is_the_one_channel_factor(self):
        ch = ChannelParams(ground_spin_sink=0.25)
        assert ch.delivery == 0.75 * spin_transmission(ch)
        levels = [1] * 9
        levels[4] = -1
        assert centre_drive(single_tap(4, 2.0), levels,
                            replace(MODEL, channel=ch)) \
            == MODEL.i0 * -2.0 * ch.delivery

    def test_ground_sink_fraction(self):
        sunk = replace(MODEL, channel=ChannelParams(ground_spin_sink=0.25))
        a = centre_drive(single_tap(4, 1.0), [1] * 9, sunk)
        b = centre_drive(single_tap(4, 1.0), [1] * 9)
        assert a == pytest.approx(0.75 * b, rel=1e-12)

    @given(st.lists(st.tuples(st.floats(-2, 2), st.sampled_from((-1, 1))),
                    min_size=1, max_size=9))
    @example(raw=[(1.0, 1), (1.0000000002, -1)])
    @settings(max_examples=60, deadline=None)
    def test_superposition(self, raw):
        weights = [w for w, _ in raw] + [0.0] * (9 - len(raw))
        levels = [lvl for _, lvl in raw] + [1] * (9 - len(raw))
        whole = centre_drive(np.reshape(weights, (3, 3)), levels)
        parts = [centre_drive(single_tap(k, w), levels)
                 for k, w in enumerate(weights[:len(raw)])]
        # each part is rounded at its own ulp before the parts cancel, so
        # the sum of parts is exact only to a few eps of sum(|part|), and
        # subnormal parts keep no relative precision at all
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        slack = 8 * eps * sum(abs(p) for p in parts) + tiny
        assert whole == pytest.approx(sum(parts), rel=1e-12, abs=slack)


def steps(grid, cfg, model, n):
    """Magnetizations after n synchronous steps of one `GridStepper`, each
    under the currents of the outputs read before it."""
    s = GridStepper([(grid, cfg, model)])
    for _ in range(n):
        Is = s.currents(model.logic(s.mz))
        s.heun.torque[...] = stt_rate(model.magnet, Is)
        s.advance()
    return np.moveaxis(s.heun.m[:3, 0], 0, -1)


class TestStep:
    CFG = SimConfig(seed=9)

    def test_determinism_at_finite_temperature(self):
        m1 = steps(grid_of(load_glyph("zero")), self.CFG, MODEL, 1)
        m2 = steps(grid_of(load_glyph("zero")), self.CFG, MODEL, 1)
        assert np.array_equal(m1, m2)

    def test_dt_guard(self):
        with pytest.raises(ValueError, match="stability guard"):
            GridStepper([(grid_of(solid(3, 3)), SimConfig(dt=2e-11), MODEL)])

    def test_norms_preserved(self):
        m = steps(grid_of(load_glyph("zero")), self.CFG, MODEL, 5)
        assert np.allclose(np.linalg.norm(m, axis=-1), 1.0, atol=1e-9)

    def test_reflection_symmetry_zero_temperature(self):
        # rotating every magnet by pi about x (mz, my negated) and negating
        # the inputs gives the exactly mirrored trajectory at T = 0
        model = replace(MODEL, boundary=BOUNDARY_ZERO_FLUX)
        cfg = SimConfig(temperature=0.0)
        rng = np.random.default_rng(3)
        tilt = rng.normal(scale=0.2, size=(4, 4, 3))
        base = solid(4, 4).to_array().astype(float)
        m = np.zeros((4, 4, 3))
        m[:, :, 2] = base
        m += tilt
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        t = noise_filter_templates()
        g1 = CnnGrid(m.copy(), base.copy(), t)
        m2 = m.copy()
        m2[:, :, 1] *= -1
        m2[:, :, 2] *= -1
        g2 = CnnGrid(m2, -base, t)
        m1 = steps(g1, cfg, model, 50)
        m2 = steps(g2, cfg, model, 50)
        assert np.allclose(m2[:, :, 2], -m1[:, :, 2], atol=1e-12)
        assert np.allclose(m2[:, :, 0], m1[:, :, 0], atol=1e-12)


class TestRun:
    def test_clean_pattern_converges_at_hold_time(self):
        cfg = SimConfig(t_max=3e-9, seed=2)
        traj = run(grid_of(load_glyph("zero")), cfg, MODEL)
        assert traj.converged
        assert traj.convergence_time == pytest.approx(cfg.hold_time, rel=1e-9)
        assert traj.final_pattern == load_glyph("zero")
        assert traj.flipped_pixels == 0

    def test_times_strictly_increasing(self):
        traj = run(grid_of(load_glyph("zero")), SimConfig(t_max=2e-9), MODEL)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.convergence_time <= 2e-9

    def test_subcritical_zero_temperature_reports_nonconvergence(self):
        noisy = add_noise(load_glyph("zero"), 0.1, 0)
        model = replace(MODEL, i0=0.5 * IC)
        cfg = SimConfig(t_max=2e-9, temperature=0.0)
        traj = run(grid_of(noisy), cfg, model)
        assert not traj.converged
        assert traj.final_pattern == noisy  # poles are T = 0 fixed points
        assert traj.flipped_pixels == 0

    def test_solid_black_holds_at_room_temperature(self):
        black = solid(10, 8)
        for seed in (0, 1, 2):
            cfg = SimConfig(t_max=3e-9, seed=seed)
            traj = run(grid_of(black), cfg, MODEL)
            assert traj.converged
            assert traj.final_pattern == black

    def test_settled_start_with_zero_hold_returns_at_once(self):
        cfg = SimConfig(t_max=5e-9, hold_time=0.0, seed=1)
        traj = run(grid_of(load_glyph("zero")), cfg, MODEL)
        assert traj.convergence_time == 0.0
        assert list(traj.times) == [0.0]
        assert traj.mz.shape == (1, 30, 20)
        assert traj.final_pattern == load_glyph("zero")

    def test_seed_determinism(self):
        cfg = SimConfig(t_max=1e-9, seed=11)
        noisy = add_noise(load_glyph("zero"), 0.1, 1)
        a = run(grid_of(noisy), cfg, MODEL)
        b = run(grid_of(noisy), cfg, MODEL)
        assert np.array_equal(a.mz, b.mz)
        assert a.convergence_time == b.convergence_time


class TestHebbianTraining:
    def test_identity_pair_self_reinforcing(self):
        g = load_glyph("one")
        t = hebbian_train([(g, g)])
        A, B, _ = t.per_cell(30, 20)
        # center weights: target * target = +1 everywhere
        assert np.all(A[:, :, 1, 1] == 1.0)
        assert np.all(B[:, :, 1, 1] == 1.0)

    def test_weights_representable_after_quantization(self):
        t = hebbian_train([(load_glyph("one"), load_glyph("two")),
                           (load_glyph("three"), load_glyph("four"))])
        levels = np.asarray(t.A) * 4
        assert np.all(np.isin(levels, [-8, -6, -4, -2, 0, 2, 4, 6, 8]))
        assert np.all(np.asarray(t.I) == 0.0)

    def test_negated_targets_cancel(self):
        g = load_glyph("one")
        neg = Pattern.from_array(-g.to_array())
        pairs = [(g, g), (neg, neg)]
        t = hebbian_train(pairs)
        # averaging a pattern with its negation: A terms survive (products
        # are invariant), B terms likewise; both stay in [-1, 1]
        A, _ = reference_hebbian(pairs)
        assert np.array_equal(t.A, quantize_templates(A))
        assert np.all(np.abs(np.asarray(t.A)) <= 1.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hebbian_train([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            hebbian_train([(load_glyph("one"), solid(3, 3))])

    def test_trained_cue_recalls_target(self):
        one, two = load_glyph("one"), load_glyph("two")
        three, four = load_glyph("three"), load_glyph("four")
        t = hebbian_train([(one, two), (three, four)])
        cfg = SimConfig(seed=0, t_max=15e-9)
        traj = run(CnnGrid.from_pattern(one, one, t), cfg, MODEL)
        assert traj.converged
        assert traj.final_pattern == two


class TestTemplateFiles:
    def test_roundtrip(self):
        t = hebbian_train([(load_glyph("one"), load_glyph("two"))])
        text = save_templates(t, 30, 20)
        back = load_templates(text)
        assert np.array_equal(np.asarray(back.A), np.asarray(t.A))
        assert np.array_equal(np.asarray(back.B), np.asarray(t.B))

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_representable_space_varying_sets_roundtrip(self, rows, cols,
                                                        data):
        n = 19 * rows * cols
        levels = data.draw(st.lists(st.sampled_from(representable_weights()),
                                    min_size=n, max_size=n))
        w = np.array(levels).reshape(rows, cols, 19) / LEVELS_PER_UNIT_WEIGHT
        t = TemplateSet(w[..., :9].reshape(rows, cols, 3, 3),
                        w[..., 9:18].reshape(rows, cols, 3, 3), w[..., 18])
        back = load_templates(save_templates(t, rows, cols))
        for a, b in zip((t.A, t.B, t.I), (back.A, back.B, back.I)):
            assert np.array_equal(a, b)

    def test_header_and_row_count(self):
        t = hebbian_train([(load_glyph("one"), load_glyph("two"))])
        lines = save_templates(t, 30, 20).splitlines()
        assert lines[0] == "30 20"
        assert len(lines) == 1 + 600
        assert len(lines[1].split()) == 19

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_templates("not a header\n")

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            load_templates("2 2\n" + "0 " * 19 + "\n")

    @pytest.mark.parametrize("level", [3, -1, 10, -10])
    def test_unrepresentable_level_rejected(self, level):
        cell = ["0"] * 19
        cell[11] = str(level)
        with pytest.raises(ValueError, match=f"line 2: level {level} "):
            load_templates("1 2\n" + "0 " * 19 + "\n" + " ".join(cell) + "\n")

    @pytest.mark.parametrize("level", ["x", "4.0"])
    def test_non_integer_level_names_its_line(self, level):
        cell = ["0"] * 18 + [level]
        with pytest.raises(ValueError, match=f"cell line 2: .*'{level}'"):
            load_templates("1 2\n" + "0 " * 19 + "\n" + " ".join(cell) + "\n")


def test_grid_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        CnnGrid.from_pattern(solid(3, 3), solid(4, 4),
                             noise_filter_templates())


def test_logic_pattern_reads_poles():
    g = grid_of(load_glyph("two"))
    assert g.logic_pattern(MODEL) == load_glyph("two")


def reference_run(grid, cfg, model):
    """`run` written out from the public single-path pieces: the reference
    `heun_step` on the (rows, cols, 3) layout, one make_rng(seed,
    STREAM_LLG, n) draw per step and the drive recomputed after every step
    by `reference_drive`, the slice loop that shares no code with
    `core.template_operator`."""
    p, m = model.magnet, grid.m.copy()
    sigma = thermal_sigma(p, cfg)
    sample_every = max(int(round(cfg.sample_interval / cfg.dt)), 1)
    hold_steps = int(round(cfg.hold_time / cfg.dt))
    n_steps = int(round(cfg.t_max / cfg.dt))

    def state():
        g = CnnGrid(m, grid.u, grid.templates)
        mz = m[:, :, 2]
        y = np.where(mz > model.logic_boundary_mz, 1.0, -1.0)
        Is = model.i0 * reference_drive(
            y, grid.u, grid.templates, model.boundary) * model.channel.delivery
        ok = np.all(y * mz >= cfg.mz_threshold) and np.all(Is * y >= 0.0)
        return Is, ok, g.logic_pattern(model)

    times, frames = [0.0], [m[:, :, 2].copy()]
    Is, ok, final = state()
    ok_run, conv = int(ok), None
    if hold_steps == 0 and ok:
        return np.array(times), np.array(frames), 0.0, final
    for n in range(1, n_steps + 1):
        thermal = make_rng(cfg.seed, STREAM_LLG, n - 1).standard_normal(
            m.shape) * sigma if sigma else np.zeros(m.shape)
        m = ref.heun_step(m, p, stt_rate(p, Is), thermal, cfg.dt)
        t = n * cfg.dt
        if n % sample_every == 0 or n == n_steps:
            times.append(t)
            frames.append(m[:, :, 2].copy())
        Is, ok, final = state()
        ok_run = ok_run + 1 if ok else 0
        if ok_run > hold_steps:
            conv = t
            if times[-1] != t:
                times.append(t)
                frames.append(m[:, :, 2].copy())
            break
    return np.array(times), np.array(frames), conv, final


@pytest.mark.parametrize("boundary", ["minus-one", BOUNDARY_ZERO_FLUX])
@pytest.mark.parametrize("temperature", [300.0, 0.0])
@pytest.mark.parametrize("app", ["cross", "hebbian"])
def test_run_is_bit_identical_to_reference_loop(boundary, temperature, app):
    rng = np.random.default_rng(5)
    cue = Pattern.from_array(rng.choice([-1, 1], size=(6, 5)))
    if app == "cross":
        templates = noise_filter_templates()
    else:
        target = Pattern.from_array(rng.choice([-1, 1], size=(6, 5)))
        templates = hebbian_train([(cue, target), (target, cue)])
    # tilted start, so that the T = 0 runs move off the poles as well
    m = np.zeros((6, 5, 3))
    m[:, :, 2] = cue.to_array()
    m += rng.normal(scale=0.3, size=m.shape)
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    grid = CnnGrid(m, cue.to_array().astype(float), templates)
    model = replace(MODEL, boundary=boundary)
    cfg = SimConfig(seed=4, temperature=temperature, t_max=2e-9,
                    hold_time=0.2e-9)
    traj = run(grid, cfg, model)
    times, frames, conv, final = reference_run(grid, cfg, model)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.mz, frames)
    assert traj.convergence_time == conv
    assert traj.final_pattern == final


def tilted_member(rng, cfg, model, templates, start, tilt):
    """A (grid, cfg, model) member whose inputs are `start` and whose
    magnets start at its poles, tilted by normal noise of scale `tilt`."""
    m = np.zeros((start.rows, start.cols, 3))
    m[:, :, 2] = start.to_array()
    m += rng.normal(scale=tilt, size=m.shape)
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    return CnnGrid(m, start.to_array().astype(float), templates), cfg, model


@pytest.mark.parametrize("boundary", ["minus-one", BOUNDARY_ZERO_FLUX])
@pytest.mark.parametrize("temperature", [300.0, 0.0])
def test_ensemble_members_are_bit_identical_to_reference_loop(boundary,
                                                              temperature):
    # cross and Hebbian members, tilted and pole starts, their own seeds
    # and i0; one member is driven sub-critically and never settles
    rng = np.random.default_rng(8)
    cue = random_pattern(rng, (6, 5))
    hebbian = hebbian_train([(cue, random_pattern(rng, (6, 5))),
                             (random_pattern(rng, (6, 5)), cue)])
    cfg = SimConfig(temperature=temperature, t_max=1.2e-9, hold_time=0.1e-9,
                    dt=2e-12)
    model = replace(MODEL, boundary=boundary)
    members = [tilted_member(rng, replace(cfg, seed=seed),
                             replace(model, i0=i0_over_ic * IC), templates,
                             random_pattern(rng, (6, 5)), tilt)
               for seed, templates, i0_over_ic, tilt in [
                   (3, noise_filter_templates(), 10, 0.3),
                   (4, hebbian, 10, 0.3),
                   (5, noise_filter_templates(), 0.1, 0.3),
                   (6, noise_filter_templates(), 30, 0.0),
                   (7, hebbian, 20, 0.2)]]
    trajs = run_many(members)
    conv = [t.convergence_time for t in trajs]
    assert conv[2] is None
    assert len({c for c in conv if c is not None}) >= 2
    for member, traj in zip(members, trajs):
        times, frames, conv_time, final = reference_run(*member)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.mz, frames)
        assert traj.convergence_time == conv_time
        assert traj.final_pattern == final
    # reordered and without frames: each member keeps only its last sample
    lean = run_many(members[::-1], frames=False)[::-1]
    for traj, last in zip(trajs, lean):
        assert np.array_equal(last.times, traj.times[-1:])
        assert np.array_equal(last.mz, traj.mz[-1:])
        assert last.convergence_time == traj.convergence_time
        assert last.final_pattern == traj.final_pattern


@pytest.mark.parametrize("v_th", [0.38, 0.5], ids=["b=+0.49", "b=-0.95"])
@pytest.mark.parametrize("temperature", [300.0, 0.0])
def test_members_match_reference_loop_off_zero_logic_boundary(v_th,
                                                              temperature):
    # the stepper certifies a step without reading the outputs when every
    # y m_z clears |b|, and then settles from that certificate; a boundary
    # inside mz_threshold and one outside it are held to the plain loop
    cfg = SimConfig(temperature=temperature, t_max=1.2e-9, hold_time=0.1e-9,
                    dt=2e-12)
    model = replace(MODEL, inverter=InverterModel(V_th=v_th))
    b = model.logic_boundary_mz
    assert (abs(b) < cfg.mz_threshold) == (v_th == 0.38)
    rng = np.random.default_rng(12)
    cue = random_pattern(rng, (6, 5))
    hebbian = hebbian_train([(cue, random_pattern(rng, (6, 5))),
                             (random_pattern(rng, (6, 5)), cue)])
    members = [tilted_member(rng, replace(cfg, seed=seed),
                             replace(model, i0=i0_over_ic * IC), templates,
                             random_pattern(rng, (6, 5)), tilt)
               for seed, templates, i0_over_ic, tilt in [
                   (3, noise_filter_templates(), 10, 0.3),
                   (4, hebbian, 10, 0.2),
                   (6, noise_filter_templates(), 30, 0.0),
                   (7, hebbian, 20, 0.0)]]
    trajs = run_many(members)
    assert any(t.converged for t in trajs)
    for member, traj in zip(members, trajs):
        times, frames, conv_time, final = reference_run(*member)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.mz, frames)
        assert traj.convergence_time == conv_time
        assert traj.final_pattern == final


@pytest.mark.parametrize("hold_time", [0.0, 0.1e-9])
def test_no_output_flips_inside_the_hold(hold_time):
    # one cell at T = 0 with the logic boundary b = -0.95 beyond
    # mz_threshold: it starts at m_z = -0.92, so it reads +1 although
    # |m_z| >= mz_threshold, and the drive B u = -1 pulls it across b.
    # It has settled only once it reads -1, and the hold starts there
    cfg = SimConfig(temperature=0.0, t_max=0.5e-9, hold_time=hold_time,
                    sample_interval=1e-12)
    model = replace(MODEL, inverter=InverterModel(V_th=0.5))
    b = model.logic_boundary_mz
    assert b == pytest.approx(-0.95, abs=1e-3)
    m = np.array([[[np.sqrt(1.0 - 0.92 ** 2), 0.0, -0.92]]])
    B = np.zeros((3, 3))
    B[1, 1] = 1.0
    grid = CnnGrid(m, -np.ones((1, 1)), TemplateSet(np.zeros((3, 3)), B, 0.0))
    assert grid.logic_pattern(model) == Pattern(1, 1, (1,))
    # the unsettled path, frame by frame: the step at which the output flips
    free = run(grid, replace(cfg, hold_time=cfg.t_max), model)
    flip = int(np.argmax(free.mz[:, 0, 0] <= b))
    assert flip > 0 and free.mz[flip, 0, 0] <= b < free.mz[flip - 1, 0, 0]
    traj = run(grid, cfg, model)
    assert traj.converged
    steps = int(round(traj.convergence_time / cfg.dt))
    assert steps >= flip + int(round(hold_time / cfg.dt))
    assert traj.final_pattern == Pattern(1, 1, (-1,))


@pytest.mark.parametrize("temperature", [300.0, 0.0])
@pytest.mark.parametrize("order", ["listed", "reversed"])
def test_members_on_one_seed_share_one_draw(temperature, order, monkeypatch):
    # three members on seed 3 and two on seed 5, each with its own i0,
    # start and templates; the sub-critical one on seed 3 never settles.
    # Listed, the first member on each seed stops before another member on
    # it, so its draw passes on; the solid start settles first of all
    rng = np.random.default_rng(24)
    cue = random_pattern(rng, (6, 5))
    hebbian = hebbian_train([(cue, random_pattern(rng, (6, 5))),
                             (random_pattern(rng, (6, 5)), cue)])
    cfg = SimConfig(temperature=temperature, t_max=1.2e-9, hold_time=0.1e-9,
                    dt=2e-12)
    members = [tilted_member(rng, replace(cfg, seed=seed),
                             replace(MODEL, i0=i0_over_ic * IC), templates,
                             random_pattern(rng, (6, 5)) if start is None
                             else start, tilt)
               for seed, templates, i0_over_ic, tilt, start in [
                   (3, noise_filter_templates(), 30, 0.05, solid(6, 5)),
                   (5, hebbian, 10, 0.3, None),
                   (3, noise_filter_templates(), 0.1, 0.3, None),
                   (5, noise_filter_templates(), 20, 0.2, None),
                   (3, hebbian, 10, 0.3, None)]]
    if order == "reversed":
        members = members[::-1]
    bindings = []   # (draws, distinct running seeds, running members)
    bind = GridStepper._bind

    def counting_bind(self):
        bind(self)
        bindings.append((len(self.draws),
                         len({m.seed for m in self.running}),
                         len(self.running)))

    monkeypatch.setattr(GridStepper, "_bind", counting_bind)
    trajs = run_many(members)
    conv = [t.convergence_time for t in trajs]
    solid_start = 0 if order == "listed" else 4
    assert all(c is None or c > conv[solid_start]
               for k, c in enumerate(conv) if k != solid_start)
    assert conv[2] is None and len(bindings) >= 4
    assert [draws for draws, _, _ in bindings] == \
        [seeds for _, seeds, _ in bindings]
    assert any(running > seeds for _, seeds, running in bindings)
    for member, traj in zip(members, trajs):
        times, frames, conv_time, final = reference_run(*member)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.mz, frames)
        assert traj.convergence_time == conv_time
        assert traj.final_pattern == final


def test_ensemble_members_must_share_all_but_seed_and_i0():
    grid = grid_of(solid(3, 3))
    base = (grid, SimConfig(), MODEL)
    for other, match in [
            ((grid_of(solid(3, 4)), SimConfig(), MODEL), "grid shape"),
            ((grid, SimConfig(temperature=0.0), MODEL), "SimConfig"),
            ((grid, SimConfig(), replace(MODEL, boundary=BOUNDARY_ZERO_FLUX)),
             "CellModel")]:
        with pytest.raises(ValueError, match=match):
            run_many([base, other])
    with pytest.raises(ValueError, match="at least one member"):
        run_many([])


def reference_drive(y, u, templates, boundary):
    """The 3x3 template sum written as a padded slice loop over the nine
    offsets: sum(A y_neighbours) + sum(B u_neighbours) + I per cell."""
    rows, cols = y.shape
    A, B, I = templates.per_cell(rows, cols)

    def pad(arr):
        if boundary == BOUNDARY_ZERO_FLUX:
            return np.pad(arr, 1, mode="edge")
        return np.pad(arr, 1, mode="constant", constant_values=-1.0)

    yp, up = pad(y), pad(u)
    acc = np.array(np.broadcast_to(I, (rows, cols)), dtype=float, copy=True)
    for dr in range(3):
        for dc in range(3):
            acc += A[:, :, dr, dc] * yp[dr:dr + rows, dc:dc + cols]
            acc += B[:, :, dr, dc] * up[dr:dr + rows, dc:dc + cols]
    return acc


def reference_hebbian(pairs):
    """Unquantized Hebbian weights from a padded slice loop, -1 outside."""
    rows, cols = pairs[0][0].rows, pairs[0][0].cols
    A = np.zeros((rows, cols, 3, 3))
    B = np.zeros((rows, cols, 3, 3))
    for cue, target in pairs:
        c = np.pad(cue.to_array().astype(float), 1, constant_values=-1.0)
        t = target.to_array().astype(float)
        tp = np.pad(t, 1, constant_values=-1.0)
        for dr in range(3):
            for dc in range(3):
                A[:, :, dr, dc] += t * tp[dr:dr + rows, dc:dc + cols]
                B[:, :, dr, dc] += t * c[dr:dr + rows, dc:dc + cols]
    return A / len(pairs), B / len(pairs)


def random_pattern(rng, shape):
    return Pattern.from_array(rng.choice([-1, 1], size=shape))


@pytest.mark.parametrize("shape", [(30, 20), (6, 5), (1, 4), (1, 1)])
@pytest.mark.parametrize("boundary", [BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX])
@pytest.mark.parametrize("app", ["cross", "hebbian"])
def test_operator_drive_equals_slice_loop(shape, boundary, app):
    # weights are multiples of 1/4 and y, u = +-1, so equality is exact
    rng = np.random.default_rng(17)
    u = random_pattern(rng, shape)
    if app == "cross":
        templates = noise_filter_templates()
    else:
        templates = hebbian_train([(u, random_pattern(rng, shape)),
                                   (random_pattern(rng, shape), u)])
    model = replace(MODEL, boundary=boundary)
    stepper = GridStepper([(grid_of(u, templates), SimConfig(), model)])
    for _ in range(200):
        m = rng.normal(size=shape + (3,))
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        grid = CnnGrid(m, u.to_array().astype(float), templates)
        y = np.where(m[:, :, 2] > model.logic_boundary_mz, 1.0, -1.0)
        expected = model.i0 * reference_drive(y, grid.u, templates, boundary) \
            * model.channel.delivery
        assert np.array_equal(net_currents(grid, model), expected)
        assert np.array_equal(stepper.currents(y[None])[0], expected)


@pytest.mark.parametrize("shape", [(30, 20), (6, 5), (1, 4), (1, 1)])
@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_hebbian_weights_equal_slice_loop(shape, n_pairs):
    rng = np.random.default_rng(23)
    pairs = [(random_pattern(rng, shape), random_pattern(rng, shape))
             for _ in range(n_pairs)]
    t = hebbian_train(pairs)
    A, B = reference_hebbian(pairs)
    assert np.array_equal(t.A, quantize_templates(A))
    assert np.array_equal(t.B, quantize_templates(B))
