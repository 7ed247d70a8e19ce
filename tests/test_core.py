"""Shared domain types, pattern I/O and seeded noise injection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from spincnn import GLYPHS, load_glyph
from spincnn.cmos import cmos_noise_filter_templates
from spincnn.constants import GAMMA, KB, MU0, MU_B, Q
from spincnn.core import (BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX,
                          MagnetParams, Pattern, SimConfig, TemplateSet,
                          add_noise, frame_to_pgm, load_pattern, make_rng,
                          neighbour_index, neighbour_sum, save_pattern, settle,
                          template_operator)
from spincnn.network import hebbian_train, noise_filter_templates


def test_constants_positive_codata():
    assert Q == 1.602176634e-19
    assert KB == 1.380649e-23
    for c in (Q, MU0, KB, GAMMA, MU_B):
        assert c > 0


class TestMagnetParams:
    def test_default_geometry_and_material(self):
        p = MagnetParams()
        assert (p.length, p.width, p.thickness) == (30e-9, 30e-9, 2e-9)
        assert p.Ms == 5e5
        assert p.Ku == 6e4
        assert p.alpha == 0.01

    def test_derived_volume(self):
        assert MagnetParams().volume == pytest.approx(1.8e-24, rel=1e-12)

    def test_derived_hk_matches_formula(self):
        p = MagnetParams()
        assert p.Hk == pytest.approx(2 * p.Ku / (MU0 * p.Ms), rel=1e-15)
        assert p.Hk == pytest.approx(1.90986e5, rel=1e-4)

    def test_derived_ns_matches_formula(self):
        p = MagnetParams()
        assert p.Ns == pytest.approx(p.Ms * p.volume / MU_B, rel=1e-15)
        assert p.Ns == pytest.approx(97045.4, rel=1e-4)

    def test_derived_values_track_overrides(self):
        p = MagnetParams(Ku=1.2e5)
        assert p.Hk == pytest.approx(2 * MagnetParams().Hk, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"Ms": -1.0}, {"Ku": 0.0},
        {"length": 0.0}, {"thickness": -2e-9},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MagnetParams(**kwargs)


class TestPattern:
    def test_single_black_pixel(self):
        p = load_pattern("#")
        assert (p.rows, p.cols, p.pixels) == (1, 1, (1,))

    def test_two_by_two(self):
        p = load_pattern("#.\n.#")
        assert p.pixels == (1, -1, -1, 1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            load_pattern("##\n#")

    def test_illegal_character_rejected(self):
        with pytest.raises(ValueError, match="illegal"):
            load_pattern("#x")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_pattern("  \n ")

    def test_pixel_domain_enforced(self):
        with pytest.raises(ValueError):
            Pattern(1, 2, (1, 0))
        with pytest.raises(ValueError):
            Pattern(2, 2, (1, -1, 1))  # wrong length

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_identity(self, rows, cols, data):
        pixels = tuple(data.draw(st.sampled_from((-1, 1)))
                       for _ in range(rows * cols))
        p = Pattern(rows, cols, pixels)
        assert load_pattern(save_pattern(p)) == p

    def test_array_roundtrip(self):
        p = load_pattern("#.\n.#")
        assert Pattern.from_array(p.to_array()) == p


class TestGlyphs:
    def test_all_bundled_glyphs_load(self):
        for name in GLYPHS:
            g = load_glyph(name)
            assert (g.rows, g.cols) == (30, 20)
            assert len(g.pixels) == 600

    def test_unknown_glyph_rejected(self):
        with pytest.raises(ValueError, match="unknown glyph"):
            load_glyph("nine")


class TestAddNoise:
    def test_zero_fraction_is_identity(self):
        g = load_glyph("zero")
        assert add_noise(g, 0.0, 7) == g

    def test_full_fraction_negates(self):
        g = load_glyph("zero")
        noisy = add_noise(g, 1.0, 7)
        assert noisy.to_array().tolist() == (-g.to_array()).tolist()

    def test_ten_percent_flips_exactly_sixty(self):
        g = load_glyph("zero")
        noisy = add_noise(g, 0.1, 0)
        assert int(np.sum(noisy.to_array() != g.to_array())) == 60

    def test_seed_reproducible(self):
        g = load_glyph("zero")
        assert add_noise(g, 0.1, 3) == add_noise(g, 0.1, 3)
        assert add_noise(g, 0.1, 3) != add_noise(g, 0.1, 4)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            add_noise(load_glyph("zero"), 1.5, 0)

    @given(st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_hamming_distance_exact(self, fraction, seed):
        g = load_glyph("one")
        noisy = add_noise(g, fraction, seed)
        expected = int(round(fraction * 600))
        assert int(np.sum(noisy.to_array() != g.to_array())) == expected


class TestTemplateSet:
    def test_space_invariant_kind(self):
        t = TemplateSet(np.eye(3), np.zeros((3, 3)), 0.0)
        assert t.kind == "space-invariant"

    def test_space_varying_kind(self):
        A = np.zeros((4, 5, 3, 3))
        t = TemplateSet(A, A.copy(), np.zeros((4, 5)))
        assert t.kind == "space-varying"

    def test_per_cell_broadcasts_invariant(self):
        t = TemplateSet(np.eye(3), np.zeros((3, 3)), 2.0)
        A, B, I = t.per_cell(4, 5)
        assert A.shape == (4, 5, 3, 3)
        assert np.all(A[2, 3] == np.eye(3))
        assert np.all(I == 2.0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            TemplateSet(np.zeros((2, 2)), np.zeros((3, 3)), 0.0)


def csr_operator(templates, u, boundary):
    """(W, c) of `template_operator` with W a SciPy CSR matrix: the bit
    contract of `neighbour_sum`. The taps of a row are stored in row-major
    offset order, border taps and zero weights left out, and the zero-flux
    edge copies merged into one entry per neighbour."""
    rows, cols = u.shape
    n = rows * cols
    A, B, I = templates.per_cell(rows, cols)
    a, b = A.reshape(n, 9), B.reshape(n, 9)
    idx = neighbour_index(rows, cols, boundary)
    border = idx == n
    c = I.reshape(n) + (b * np.append(u, -1.0)[idx] - a * border).sum(axis=1)
    keep = ~border & (a != 0.0)
    cells = np.broadcast_to(np.arange(n)[:, None], idx.shape)
    W = sparse.csr_array((a[keep], (cells[keep], idx[keep])), shape=(n, n))
    return W, c


def random_templates(rng, rows, cols):
    """A space-varying set of continuous weights."""
    return TemplateSet(rng.standard_normal((rows, cols, 3, 3)),
                       rng.standard_normal((rows, cols, 3, 3)),
                       rng.standard_normal((rows, cols)))


def hebbian_templates(rng, rows, cols):
    glyphs = [load_glyph(g) for g in GLYPHS[:3]]
    return hebbian_train([(add_noise(g, 0.1, int(rng.integers(100))), g)
                          for g in glyphs])


class TestNeighbourSum:
    """neighbour_sum(W, y) + c equals the CSR product W @ y + c bit for
    bit, for one member and for members stacked as `GridStepper` stacks
    them, against a block-diagonal CSR matrix."""

    ROWS, COLS = 30, 20   # the glyph shape of the Hebbian set
    SETS = {"cross": lambda rng, r, c: noise_filter_templates(),
            "cmos-cross": lambda rng, r, c: cmos_noise_filter_templates(),
            "hebbian": hebbian_templates,
            "random": random_templates}

    def check(self, name, boundary, members, draw):
        rng = np.random.default_rng(members)
        shape = self.ROWS, self.COLS
        ops, refs = [], []
        for _ in range(members):
            templates = self.SETS[name](rng, *shape)
            u = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
            ops.append(template_operator(templates, u, boundary))
            refs.append(csr_operator(templates, u, boundary))
        for (_, c), (_, c_ref) in zip(ops, refs):
            assert c.tobytes() == c_ref.tobytes()
        W_ref = sparse.block_diag([W for W, _ in refs], format="csr")
        c = np.stack([c for _, c in ops])
        W = np.stack([W[0] for W, _ in ops]), ops[0][0][1]
        for _ in range(5):
            y = draw(rng, (members, self.ROWS * self.COLS))
            got = neighbour_sum(W, y) + c
            want = (W_ref @ y.reshape(-1) + c.reshape(-1)).reshape(y.shape)
            assert got.tobytes() == want.tobytes()
            if members == 1:
                one = neighbour_sum(ops[0][0], y[0]) + ops[0][1]
                assert one.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("members", [1, 8])
    @pytest.mark.parametrize("name", list(SETS))
    def test_minus_one_continuous_outputs(self, name, members):
        self.check(name, BOUNDARY_MINUS_ONE, members,
                   lambda rng, shape: rng.standard_normal(shape))

    @pytest.mark.parametrize("members", [1, 8])
    @pytest.mark.parametrize("name", ["cross", "cmos-cross", "hebbian"])
    def test_zero_flux_bipolar_outputs(self, name, members):
        # CSR merges the duplicate taps of an edge copy, so only sums that
        # are exact in any order can agree: +-1 outputs, 1/4 weights
        self.check(name, BOUNDARY_ZERO_FLUX, members,
                   lambda rng, shape: np.where(rng.random(shape) < 0.5,
                                               -1.0, 1.0))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.dt == 1e-12
        assert cfg.temperature == 300.0
        assert cfg.mz_threshold == 0.9
        assert cfg.hold_time == 0.5e-9

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"t_max": 1e-13}, {"temperature": -1.0},
        {"mz_threshold": 0.0}, {"mz_threshold": 1.0}, {"hold_time": -1e-9},
        {"sample_interval": 0.0}, {"sample_interval": -1e-10},
        {"dt": 2e-11},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class Counters:
    """Members that count their steps; `is_settled[k](n)` says when member
    k settles. Records what `settle` samples and when it stops each one."""

    def __init__(self, *is_settled):
        self.n, self.is_settled = 0, list(is_settled)
        self.running = list(range(len(is_settled)))
        self.times = [[] for _ in is_settled]
        self.frames = [[] for _ in is_settled]
        self.stopped = [None] * len(is_settled)

    def step(self):
        self.n += 1

    def settled(self):
        return [self.is_settled[k](self.n) for k in self.running]

    def sample(self, t, which):
        for i in which:
            self.times[self.running[i]].append(t)
            self.frames[self.running[i]].append(self.n)

    def stop(self, which, t, converged):
        for i in which:
            self.stopped[self.running[i]] = (t, converged, self.n)
        self.running = [k for i, k in enumerate(self.running) if i not in which]


class TestSettle:
    def run(self, is_settled, hold, t_max=1.0, interval=0.25):
        c = Counters(is_settled)
        settle(c.step, c.settled, c.sample, c.stop, 0.01, t_max, hold,
               interval)
        times, frames = c.times[0], c.frames[0]
        assert frames == [round(t / 0.01) for t in times]
        t, converged, n = c.stopped[0]
        assert t == times[-1] and n == c.n
        return times, t if converged else None, n

    def test_settled_start_with_zero_hold_returns_at_once(self):
        assert self.run(lambda n: True, 0.0) == ([0.0], 0.0, 0)

    def test_start_counts_toward_the_hold(self):
        times, conv, n = self.run(lambda n: True, 0.05)
        assert conv == 0.05 and n == 5
        assert times == [0.0, conv]

    def test_an_unsettled_step_restarts_the_hold(self):
        times, conv, n = self.run(lambda n: n < 8 or n >= 30, 0.1)
        assert conv == 0.4 and n == 40
        assert times == [0.0, 0.25, conv]

    def test_never_settled_samples_every_interval_and_t_max(self):
        times, conv, n = self.run(lambda n: False, 0.0, t_max=0.6)
        assert conv is None and n == 60
        assert times == [0.0, 0.25, 0.5, 0.6]

    def test_members_keep_their_own_holds_and_stop_apart(self):
        c = Counters(lambda n: n >= 10, lambda n: True, lambda n: False,
                     lambda n: 3 <= n < 5 or n >= 20)
        settle(c.step, c.settled, c.sample, c.stop, 0.01, 0.6, 0.05, 0.25)
        assert [(round(t / 0.01), conv, n) for t, conv, n in c.stopped] == \
            [(15, True, 15), (5, True, 5), (60, False, 60), (25, True, 25)]
        assert c.frames == [[0, 15], [0, 5], [0, 25, 50, 60], [0, 25]]
        assert c.n == 60


class TestRngStreams:
    def test_streams_independent(self):
        a = make_rng(1, 1).standard_normal(4)
        b = make_rng(1, 2).standard_normal(4)
        assert not np.allclose(a, b)

    def test_counter_step_keying(self):
        a = make_rng(1, 2, step=5).standard_normal(4)
        b = make_rng(1, 2, step=5).standard_normal(4)
        c = make_rng(1, 2, step=6).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)


def test_frame_to_pgm_endpoints():
    text = frame_to_pgm(np.array([[-1.0, 1.0], [0.0, 0.5]]))
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["0", "255"]
    assert lines[4].split() == ["128", "191"]
