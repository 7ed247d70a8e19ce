"""Command-line interface: exit codes, artifacts, manifests, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincnn
from spincnn import load_glyph
from spincnn.cli import _trajectory_csv, main
from spincnn.config import _SCHEMA, FullConfig
from spincnn.core import (MagnetParams, Pattern, SimConfig, add_noise,
                          load_pattern, save_pattern)
from spincnn.dynamics import analytic_critical_current, switch_times
from spincnn.network import CellModel, Trajectory
from spincnn.readpath import InverterModel

FAST_CONFIG = """\
[sim]
dt = 2e-12
t_max = 8e-9
hold_time = 0.2e-9
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def write_glyphs(tmp_path):
    paths = {}
    for name in ("zero", "one", "two", "three", "four"):
        p = tmp_path / f"{name}.pat"
        p.write_text(save_pattern(load_glyph(name)))
        paths[name] = str(p)
    return paths


class TestSimulate:
    def test_clean_glyph_exits_zero(self, tmp_path, fast_config, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", fast_config, "--pattern", "zero",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert "converged" in capsys.readouterr().out
        final = load_pattern((out / "final.pat").read_text())
        assert final == load_glyph("zero")
        names = {p.name for p in out.iterdir()}
        assert {"trajectory.csv", "final.pat", "manifest.json"} <= names
        assert any(n.startswith("frame_") and n.endswith(".pgm")
                   for n in names)

    def test_manifest_lists_existing_outputs(self, tmp_path, fast_config):
        out = tmp_path / "run"
        main(["simulate", "--config", fast_config, "--pattern", "zero",
              "--seed", "3", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command_line"][0] == "spincnn"
        assert manifest["start_time"] and manifest["end_time"]
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_missing_pattern_file_is_error(self, tmp_path, capsys):
        rc = main(["simulate", "--pattern", str(tmp_path / "nope.pat"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_assoc_without_templates_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--app", "assoc", "--pattern", "one",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--templates" in capsys.readouterr().err

    def test_templates_without_assoc_is_usage_error(self, tmp_path,
                                                    monkeypatch, capsys):
        # the noise filter has fixed templates: a template file given to
        # it would be ignored
        import spincnn.cli as cli
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("ran"))
        tpl = tmp_path / "heb.tpl"
        tpl.write_text("30 20\n" + ("0 " * 18 + "0\n") * 600)
        out = tmp_path / "o"
        rc = main(["simulate", "--templates", str(tpl), "--pattern", "zero",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --templates needs --app assoc"]
        assert not out.exists()

    def test_templates_for_another_grid_size_exit_one(self, tmp_path,
                                                      capsys):
        tpl = tmp_path / "zero.tpl"
        tpl.write_text("30 20\n" + ("0 " * 18 + "0\n") * 600)
        pattern = tmp_path / "p.pat"
        pattern.write_text("#..#\n.##.\n.##.\n#..#\n")
        out = tmp_path / "o"
        rc = main(["simulate", "--app", "assoc", "--templates", str(tpl),
                   "--pattern", str(pattern), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: templates {tpl}: trained for 30x20 grids, pattern is "
            "4x4"]
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        # sub-critical drive at T = 0: nothing settles wrong pixels
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("[sim]\ndt = 2e-12\nt_max = 1e-9\ntemperature = 0\n"
                       "[drive]\ni0_over_ic = 0.5\n")
        noisy = tmp_path / "noisy.pat"
        noisy.write_text(save_pattern(add_noise(load_glyph("zero"), 0.1, 0)))
        rc = main(["simulate", "--config", str(cfg), "--pattern", str(noisy),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not converged" in capsys.readouterr().out

    def test_frame_images_end_on_the_last_sample(self, tmp_path, capsys):
        # 18 samples, 0 to 1.7 ns: every second one from 0 ns, then the
        # last, 10 images in all
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("[sim]\ndt = 2e-12\nt_max = 1.7e-9\ntemperature = 0\n"
                       "[drive]\ni0_over_ic = 0.5\n")
        noisy = tmp_path / "noisy.pat"
        noisy.write_text(save_pattern(add_noise(load_glyph("zero"), 0.1, 0)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--pattern",
                     str(noisy), "--out", str(out)]) == 2
        assert len((out / "trajectory.csv").read_text().splitlines()) == 19
        assert sorted(p.name for p in out.glob("frame_*.pgm")) == \
            [f"frame_{k:04d}.pgm" for k in range(10)]

    def test_trajectory_csv_is_rerun_identical(self, tmp_path, fast_config):
        args = ["simulate", "--config", fast_config, "--pattern", "zero",
                "--seed", "7"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_trajectory_csv_reads_logic_at_the_model_boundary(self):
        # m_z = 0.1 lies between 0 and the boundary b = 0.26 of
        # [inverter] v_th = 0.395: the circuit reads it as -1
        initial = Pattern(1, 2, (-1, 1))
        traj = Trajectory(np.array([1e-9]), np.array([[[0.1, 0.9]]]), None,
                          initial, initial, 0)
        model = CellModel(inverter=InverterModel(V_th=0.395))
        assert model.logic_boundary_mz == pytest.approx(0.26, abs=0.005)
        row = _trajectory_csv(traj, model).splitlines()[1]
        assert row == "1,0.5,0.1,1,0"
        # at b = 0, the default stack's boundary, it reads +1
        row = _trajectory_csv(traj, CellModel()).splitlines()[1]
        assert row == "1,0.5,0.1,2,1"

    def test_config_env_fallback(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[magnet]\nalpha = -1\n")
        monkeypatch.setenv("SPINCNN_CONFIG", str(bad))
        rc = main(["simulate", "--pattern", "zero",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_config_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[magnet]\nalpha = fast\n")
        assert main(["oracle", "transmission", "--config", str(bad)]) == 1
        assert f"error: config {bad}: line 2: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("[magnet]\nms = nan\n", "ms"),
        ("[drive]\ni0_over_ic = -1\n", "i0_over_ic"),
    ])
    def test_bad_config_value_exits_one_before_integrating(
            self, tmp_path, capsys, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--pattern", "zero",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not out.exists()  # the output directory is made after the run

    @pytest.mark.parametrize("text, named", [
        ("[sim]\nsample_interval = -1\n", "[sim]: sample_interval"),
        ("[sim]\nsample_interval = 0\n", "[sim]: sample_interval"),
        ("[inverter]\nv_th = 5\n", "[inverter] v_th"),
        ("[channel]\nr_ground = 50\n", "line 2: unknown key 'r_ground'"),
        ("[drive_model]\nv_drive = 0.5\n", "line 2: unknown key 'v_drive'"),
        ("[drive_model]\nsize = 2\n", "line 2: unknown key 'size'"),
        ("[energy]\nfeature_size = 32e-9\n",
         "line 2: unknown key 'feature_size'"),
        ("[energy]\nmin_width_f = 4\n", "line 2: unknown key 'min_width_f'"),
        ("[magnet]\nms = 1e-300\n", "[magnet] ms, length, width, thickness "
         "and [sim] dt: Ms V dt = 0 underflows"),
        ("[magnet]\nlength = 1e-300\n", "[magnet] ms, length, width, "
         "thickness and [sim] dt: Ms V dt = 2.96e-323 underflows"),
        ("[sim]\ndt = 2e-11\n", "[sim]: dt = 2e-11 exceeds stability guard"),
        ("[mtj]\nt_ox_read = 0\n", "[mtj]: t_ox_read = 0 m outside"),
        ("[mtj]\nv_read = 0\n", "[mtj]: V_read must be > 0"),
        ("[mtj]\nv_read = 1e-300\n", "[inverter] v_th: logic boundary at "
         "m_z = -1 with [mtj] v_read = 1e-300 V"),
        ("[amplifier]\ndelay_floor = 0\n", "[amplifier]: delay_floor must be"),
        ("[channel]\nlength = -1\n", "[channel]: length L = -1 m must be"),
        ("[mtj]\ntmr = 1e300\n", "[mtj]: tmr = 1e+300 with r_p = 100000 ohm "
         "leaves a zero junction conductance at m_z = -1"),
        ("[mtj]\ntmr = 1e-300\n", "[mtj]: tmr = 1e-300 leaves a zero "
         "conductance swing"),
        ("[mtj]\ntmr = 0.1\n", "[inverter] v_th: logic boundary at m_z = "
         "-5.769 with [mtj] v_read = 0.7 V, tmr = 0.1, t_ox_ref = 2e-09 m, "
         "t_ox_read = 2e-09 m and lambda_ox = 2e-10 m, outside (-1, 1)"),
        ("[mtj]\nlambda_ox = 1e-300\nt_ox_ref = 2.1e-9\n", "[mtj]: lambda_ox "
         "= 1e-300 m with t_ox_ref = 2.1e-09 m leaves the float range"),
        ("[sim]\nt_max = 1e300\n", "[sim]: t_max = 1e+300 s over dt = "
         "1e-12 s overflows the step count"),
        ("[sim]\nhold_time = 1e300\n", "[sim]: hold_time = 1e+300 s over dt "
         "= 1e-12 s overflows the step count"),
        ("[sim]\nsample_interval = 1e300\n", "[sim]: sample_interval = "
         "1e+300 s over dt = 1e-12 s overflows the step count"),
    ])
    def test_rejected_config_names_file_and_key(self, tmp_path, capsys,
                                                text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--pattern", "zero",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert f"error: config {cfg}: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[drive]\ni0_over_ic = 1e300\n",
                                      "[magnet]\nku = 1e300\n"])
    def test_non_finite_state_exits_one_naming_time_and_seed(
            self, tmp_path, capsys, text):
        cfg = tmp_path / "wild.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            rc = main(["simulate", "--config", str(cfg), "--pattern", "zero",
                       "--seed", "4", "--out", str(out)])
        assert rc == 1
        assert "error: magnetisation is not finite at t = 0.1 ns (seed 4)" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_state_writes_only_the_error_line(self, tmp_path):
        # a fresh interpreter with warnings shown: the overflow inside the
        # kernel must not reach stderr ahead of the error line
        cfg = tmp_path / "wild.cfg"
        cfg.write_text("[drive]\ni0_over_ic = 1e300\n")
        src = os.path.dirname(os.path.dirname(spincnn.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "spincnn.cli", "simulate", "--config",
             str(cfg), "--pattern", "zero", "--seed", "4", "--out",
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: magnetisation is not finite at t = 0.1 ns (seed 4)"]

    def test_unrepresentable_template_level_names_file_and_line(
            self, tmp_path, capsys):
        tpl = tmp_path / "odd.tpl"
        cells = ["0 " * 18 + "0"] * 600
        cells[2] = "3 " + "0 " * 17 + "0"   # level 3: not a synapse level
        tpl.write_text("30 20\n" + "\n".join(cells) + "\n")
        out = tmp_path / "o"
        rc = main(["simulate", "--app", "assoc", "--templates", str(tpl),
                   "--pattern", "one", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"templates {tpl}: template file: cell line 3: level 3" in err
        assert not out.exists()

    @pytest.mark.parametrize("header, rows, cols, cells", [
        ("-1 -1", -1, -1, 1), ("2 -3", 2, -3, 0), ("0 5", 0, 5, 0)],
        ids=["-1x-1", "2x-3", "0x5"])
    def test_non_positive_template_header_names_rows_and_cols(
            self, tmp_path, capsys, header, rows, cols, cells):
        tpl = tmp_path / "bad.tpl"
        tpl.write_text(header + "\n" + ("0 " * 18 + "0\n") * cells)
        rc = main(["simulate", "--app", "assoc", "--templates", str(tpl),
                   "--pattern", "one", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: templates {tpl}: template file: header rows = {rows}, "
            f"cols = {cols}: both must be positive"]


class TestTrain:
    def test_trained_file_roundtrips_through_simulate(self, tmp_path,
                                                      fast_config, capsys):
        paths = write_glyphs(tmp_path)
        tpl = tmp_path / "heb.tpl"
        rc = main(["train", "--pairs",
                   f"{paths['one']}:{paths['two']}",
                   f"{paths['three']}:{paths['four']}",
                   "--out", str(tpl)])
        assert rc == 0
        assert tpl.read_text().splitlines()[0] == "30 20"
        out = tmp_path / "recall"
        rc = main(["simulate", "--config", fast_config, "--app", "assoc",
                   "--pattern", paths["one"], "--templates", str(tpl),
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert load_pattern((out / "final.pat").read_text()) == \
            load_glyph("two")

    def test_bad_pair_syntax(self, tmp_path, capsys):
        rc = main(["train", "--pairs", "only-one-file",
                   "--out", str(tmp_path / "t.tpl")])
        assert rc == 1
        assert "cue:target" in capsys.readouterr().err

    def test_shape_mismatch_reported(self, tmp_path, capsys):
        small = tmp_path / "small.pat"
        small.write_text("#.\n.#\n")
        paths = write_glyphs(tmp_path)
        rc = main(["train", "--pairs", f"{paths['one']}:{small}",
                   "--out", str(tmp_path / "t.tpl")])
        assert rc == 1

    def test_out_under_a_file_refused_before_training(self, tmp_path,
                                                      monkeypatch, capsys):
        import spincnn.cli as cli
        monkeypatch.setattr(cli, "hebbian_train",
                            lambda *a: pytest.fail("trained"))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = os.path.join(str(afile), "sub.tpl")
        assert main(["train", "--pairs", "one:two", "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {out}: {afile} is not a directory"]
        assert afile.read_text() == "kept\n"


class TestSweep:
    def test_row_count_contract(self, tmp_path, fast_config, capsys):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", fast_config,
                   "--voltages", "0.27,0.52,1.0", "--seeds", "0",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0].startswith("v_drive_V,")
        assert (out / "pareto.csv").exists()
        report = (out / "comparison.txt").read_text()
        assert "energy_ratio:" in report
        assert "calibrated-to-published-claims" in report

    @pytest.mark.parametrize("flags, error", [
        ("--voltages 0.5,1.0", "need at least 3 distinct sweep voltages"),
        ("--voltages 1.0,1.0,1.0", "--voltages: repeated value 1.0"),
        ("--voltages 0.5,x,1.0",
         "--voltages: could not convert string to float: 'x'"),
        ("--voltages ,", "--voltages: empty list"),
        ("--sizes 1.5", "--sizes: invalid literal for int() with base 10: "
         "'1.5'"),
        ("--jobs 0", "--jobs must be >= 1"),
        ("--sizes 2,0", "--sizes must be >= 1"),
    ], ids=["0.5,1.0", "1.0,1.0,1.0", "bad-float", "empty", "bad-int",
            "jobs-0", "sizes-0"])
    def test_too_few_voltages(self, flags, error, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["sweep", *flags.split(), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    def test_no_converged_point_exits_two_without_a_frontier(self, tmp_path,
                                                            capsys):
        # 0.4 ns is too short for any noisy pixel to flip and hold
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[sim]\ndt = 2e-12\nt_max = 0.4e-9\n"
                       "hold_time = 0.2e-9\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--voltages",
                     "0.27,0.52,1.0", "--seeds", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().out == \
            "no sweep point converged; no Pareto frontier\n"
        assert sorted(p.name for p in out.iterdir()) == \
            ["manifest.json", "sweep.csv"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 3
        assert json.loads((out / "manifest.json").read_text())["outputs"] \
            == ["sweep.csv"]

    def test_sizes_plane_matches_reference_outputs(self, tmp_path,
                                                  fast_config, capsys):
        # reference files written by the sweep that ran one point at a time
        ref = os.path.join(os.path.dirname(__file__), "data", "sweep_sizes")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", fast_config, "--voltages",
                     "0.05,0.27,1.0", "--sizes", "1,2,4", "--seeds", "0",
                     "--out", str(out)]) == 0
        for name in ("sweep.csv", "pareto.csv", "comparison.txt"):
            with open(os.path.join(ref, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name

    def test_assoc_plane_matches_reference_outputs(self, tmp_path,
                                                  fast_config, capsys):
        # the programmable-synapse scenario, recall from the noisy cue;
        # reference files written by the sweep whose Scenario still
        # carried programmable and associative flags
        ref = os.path.join(os.path.dirname(__file__), "data", "sweep_assoc")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", fast_config, "--app", "assoc",
                     "--voltages", "0.05,0.27,1.0", "--seeds", "0",
                     "--out", str(out)]) == 0
        for name in ("sweep.csv", "pareto.csv", "comparison.txt"):
            with open(os.path.join(ref, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name

    def test_non_finite_state_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "wild.cfg"
        cfg.write_text("[magnet]\nku = 1e300\n")
        with np.errstate(all="ignore"):
            rc = main(["sweep", "--config", str(cfg), "--voltages",
                       "0.27,0.52,1.0", "--seeds", "3",
                       "--out", str(tmp_path / "sw")])
        assert rc == 1
        assert "is not finite at t = 0.1 ns (seed 3)" in capsys.readouterr().err

    def test_interrupted_sweep_writes_finished_ensembles(
            self, tmp_path, fast_config, monkeypatch, capsys):
        # three points on three workers: one ensemble each, with three
        # usable CPUs on any host; stop after the first ensemble returns
        import spincnn.cli as cli
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
        sweep_parts = cli.sweep_parts

        def interrupted(*args, **kwargs):
            parts = sweep_parts(*args, **kwargs)
            yield next(parts)
            parts.close()
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "sweep_parts", interrupted)
        out = tmp_path / "sw"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", fast_config, "--voltages",
                  "0.27,0.52,1.0", "--seeds", "0", "--jobs", "3",
                  "--out", str(out)])
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[0] in ("0.27", "0.52", "1")
        assert not (out / "pareto.csv").exists()
        assert "sweep.csv" in (out / "manifest.json").read_text()

    def test_jobs_determinism(self, tmp_path, fast_config, monkeypatch,
                              capsys):
        # two usable CPUs on any host, so that --jobs 2 opens a pool
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        args = ["sweep", "--config", fast_config,
                "--voltages", "0.27,0.52,1.0", "--seeds", "0,1"]
        main(args + ["--jobs", "1", "--out", str(tmp_path / "a")])
        main(args + ["--jobs", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()
        assert (tmp_path / "a" / "pareto.csv").read_bytes() == \
            (tmp_path / "b" / "pareto.csv").read_bytes()


class TestOracle:
    def test_transmission_agrees(self, capsys):
        assert main(["oracle", "transmission"]) == 0
        out = capsys.readouterr().out
        assert "0.97230" in out
        assert "agreement: yes" in out

    @pytest.mark.parametrize("text, named", [
        ("l_sf = 1e-300", "error: channel l_sf = 1e-300 m is too short for "
         "the 1024-point drift-diffusion grid: l_sf^2 underflows to 0"),
        ("length = 1e300", "error: channel length L = 1e+300 m is too long "
         "for the 1024-point drift-diffusion grid: the squared grid spacing "
         "overflows"),
    ], ids=["l_sf", "length"])
    def test_transmission_beyond_the_grid_names_the_key(self, tmp_path,
                                                        capsys, text, named):
        # the closed form has a limit there, but the finite-difference
        # solve cannot represent its coefficients
        cfg = tmp_path / "ch.cfg"
        cfg.write_text(f"[channel]\n{text}\n")
        assert main(["oracle", "transmission", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [named]

    def test_read_curve_csv_and_monotonicity(self, capsys):
        assert main(["oracle", "read-curve"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert header[0] == "mz"
        assert sum(1 for h in header if h.startswith("v_out")) == 3
        assert "monotone in mz: yes" in out

    def test_read_curve_out_of_float_range_names_the_key(self, tmp_path,
                                                         capsys):
        # the config's 2 nm junctions are in range; the curve's 1.9 nm
        # junction has R_P = 0, which its MtjParams rejects
        cfg = tmp_path / "mtj.cfg"
        cfg.write_text("[mtj]\nlambda_ox = 1e-300\n")
        assert main(["oracle", "read-curve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: lambda_ox = 1e-300 m with t_ox_ref = 1.9e-09 m leaves the "
            "float range: R_P = R_P_at_2nm exp((t_ox - 2 nm) / lambda_ox) = 0 "
            "ohm, R_AP = R_P (1 + tmr) = 0 ohm"]

    def test_switch_stats_agrees(self, capsys):
        assert main(["oracle", "switch-stats"]) == 0
        out = capsys.readouterr().out
        assert "20/20 seeds" in out
        assert "agreement: yes" in out

    def test_switch_stats_at_zero_temperature_agrees(self, tmp_path, capsys):
        # every realisation starts at the tilt of the T = 0 run and takes
        # its time
        cfg = tmp_path / "t0.cfg"
        cfg.write_text("[sim]\ntemperature = 0.0\n")
        assert main(["oracle", "switch-stats", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "20/20 seeds at 0 K: 1.5560 ns (std 0.0000 ns)" in out
        assert "ratio stochastic/deterministic: 1.000" in out

    def test_switch_stats_without_a_t0_switch_exits_one(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("[drive]\ni0_over_ic = 0.5\n")
        assert main(["oracle", "switch-stats", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == \
            ("", "error: drive -3.285e-06 A does not switch at T = 0\n")

    def test_switch_stats_with_no_realisation_switched_exits_one(
            self, monkeypatch, capsys):
        import spincnn.cli as cli
        monkeypatch.setattr(cli, "switch_times",
                            lambda p, Is, seeds, sim: [None for _ in seeds])
        assert main(["oracle", "switch-stats"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == \
            ("", "error: no stochastic realization switched\n")

    def test_critical_current_agrees(self, capsys):
        assert main(["oracle", "critical-current"]) == 0
        assert "agreement: yes" in capsys.readouterr().out

    def test_switch_stats_realisations_follow_sim_section(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[sim]\nmz_threshold = 0.5\n")
        assert main(["oracle", "switch-stats", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        i0 = 10 * analytic_critical_current(MagnetParams())
        times = switch_times(MagnetParams(), -i0, range(20),
                             SimConfig(mz_threshold=0.5))
        assert f"seeds at 300 K: {float(np.mean(times)) * 1e9:.4f} ns" in out
        assert "switch time: 1.3520 ns" in out

    @pytest.mark.parametrize("config", ["default", "mz_half"])
    @pytest.mark.parametrize("check", ["critical-current", "switch-stats"])
    def test_matches_reference_output(self, check, config, monkeypatch,
                                      capsys):
        # stdout from before the bisection and the switch-stats reference
        # shared one T = 0 loop; any drift in those bits shows here
        monkeypatch.delenv("SPINCNN_CONFIG", raising=False)
        ref = os.path.join(os.path.dirname(__file__), "data", "oracle")
        argv = ["oracle", check]
        if config != "default":
            argv += ["--config", os.path.join(ref, f"{config}.cfg")]
        assert main(argv) == 0
        with open(os.path.join(ref, f"{config}.{check}.txt"), "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()

    def test_switch_stats_step_guard_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "dt.cfg"
        cfg.write_text("[sim]\ndt = 5e-11\n")
        assert main(["oracle", "switch-stats", "--config", str(cfg)]) == 1
        assert "exceeds stability guard" in capsys.readouterr().err

    def test_unknown_check_rejected(self, capsys):
        assert main(["oracle", "levitation"]) == 1

    def test_critical_current_without_bracket_exits_one(self, tmp_path,
                                                         capsys):
        # Hk underflows, so the analytic estimate that starts the
        # bisection bracket is 0 and doubling it never brackets anything
        cfg = tmp_path / "ku.cfg"
        cfg.write_text("[magnet]\nku = 5e-324\n")
        assert main(["oracle", "critical-current", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "critical-current estimate 0 A" in err[0]


# the [sim] keys that set how long a run lasts stay fixed and short: a drawn
# value could make a run unbounded (t_max = 1e300 never ends)
RUN_LENGTH = {"dt": "1e-12", "t_max": "20e-12", "hold_time": "5e-12",
              "sample_interval": "5e-12"}
SHORT_RUN = "[sim]\n" + "".join(f"{k} = {v}\n" for k, v in RUN_LENGTH.items())
DRAWN_KEYS = [(section, key) for section, keys in _SCHEMA.items()
              for key in keys if not (section == "sim" and key in RUN_LENGTH)]


@pytest.mark.parametrize("section, key", DRAWN_KEYS,
                         ids=[f"{s}.{k}" for s, k in DRAWN_KEYS])
def test_extreme_values_of_every_key_end_cleanly(tmp_path, capsys, section,
                                                 key):
    # whatever a key is set to, a command exits 0 or 2, or exits 1 with one
    # line on stderr: never a traceback, and no warning ahead of the error.
    # A line for a config the parser rejects names the key at fault; a
    # line for a failure at run time (a state that is not finite, no
    # bisection bracket, a grid the drift-diffusion solve cannot hold)
    # need not name one
    pattern = tmp_path / "p.pat"
    pattern.write_text("#..#\n.##.\n.##.\n#..#\n")
    commands = [["simulate", "--pattern", str(pattern), "--out",
                 str(tmp_path / "o")]]
    if section in ("inverter", "mtj", "channel"):
        commands += [["oracle", "read-curve"], ["oracle", "transmission"]]
    if section == "magnet":
        commands.append(["oracle", "critical-current"])
    cfg = tmp_path / "c.cfg"
    for value in ("0", "-1", "1e-300", "1e300"):
        cfg.write_text(SHORT_RUN + f"[{section}]\n{key} = {value}\n")
        for argv in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv + ["--config", str(cfg)])
            err = capsys.readouterr().err.splitlines() + \
                [str(w.message) for w in caught]
            assert rc in (0, 2) or (rc == 1 and len(err) == 1), \
                (value, argv[:2], rc, err)
            if rc == 1 and err[0].startswith(f"error: config {cfg}:"):
                assert key in err[0].lower(), (value, argv[:2], err)


def value_texts(section, key):
    """Values for one key: mostly within three decades of its default, else
    an extreme, any finite float or a negated default."""
    part = FullConfig() if section == "network" \
        else getattr(FullConfig(), section)
    default = getattr(part, _SCHEMA[section][key][0])
    if isinstance(default, str):
        return st.sampled_from(["minus-one", "zero-flux", "mirror"])
    if isinstance(default, int):
        return st.integers(-2 ** 70, 2 ** 70).map(str)
    scale = default if isinstance(default, float) and default else 1.0
    near = st.floats(-3, 3).map(lambda e: scale * 10 ** e)
    number = st.one_of(
        near, near, near,
        st.sampled_from([0.0, -1.0, 1e-300, 1e300]),
        st.floats(allow_nan=False, allow_infinity=False),
        near.map(lambda v: -v)).map(repr)
    if isinstance(default, tuple):  # the (V, I) anchors of the IV table
        anchor = st.tuples(number, number).map(lambda vi: f"({vi[0]},{vi[1]})")
        return st.lists(anchor, min_size=1, max_size=3).map(";".join)
    return number


@st.composite
def drawn_configs(draw):
    keys = draw(st.lists(st.sampled_from(DRAWN_KEYS), min_size=1, max_size=6,
                         unique=True))
    return SHORT_RUN + "".join(f"[{s}]\n{k} = {draw(value_texts(s, k))}\n"
                               for s, k in keys)


@given(drawn_configs())
@settings(max_examples=200, deadline=None)
def test_any_drawn_config_ends_cleanly(text):
    # a config of several drawn keys: simulate exits 0 or 2 with finite
    # outputs, or exits 1 with one line on stderr and no warning
    with tempfile.TemporaryDirectory() as tmp:
        pattern, cfg = os.path.join(tmp, "p.pat"), os.path.join(tmp, "c.cfg")
        out = os.path.join(tmp, "o")
        with open(pattern, "w") as fh:
            fh.write("#..#\n.##.\n.##.\n#..#\n")
        with open(cfg, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(["simulate", "--pattern", pattern, "--out", out,
                       "--config", cfg])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        if rc == 1:
            assert len(lines) == 1, lines
            return
        assert rc in (0, 2) and not lines, (rc, lines)
        with open(os.path.join(out, "trajectory.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert rows and all(math.isfinite(float(v))
                            for row in rows for v in row.split(","))
        with open(os.path.join(out, "final.pat")) as fh:
            load_pattern(fh.read())


def test_channel_beyond_the_float_range_simulates(tmp_path, capsys):
    # cosh(L / l_sf) overflows: no spin reaches a neuron, and the run goes
    # on without a drive instead of failing
    pattern = tmp_path / "p.pat"
    pattern.write_text("#..#\n.##.\n.##.\n#..#\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SHORT_RUN + "[channel]\nl_sf = 1e-300\n")
    rc = main(["simulate", "--pattern", str(pattern), "--out",
               str(tmp_path / "o"), "--config", str(cfg)])
    assert rc in (0, 2), capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "train"])
def test_unusable_out_exits_one_with_one_line(tmp_path, monkeypatch, capsys,
                                              command):
    # simulate and sweep refuse an --out file, or a path under one, and all
    # three refuse an empty --out, before anything runs; train cannot write
    # its template file into a directory. Each ends with one error line,
    # not a traceback.
    import spincnn.cli as cli
    started = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: started.append("run"))
    monkeypatch.setattr(cli, "sweep_parts",
                        lambda *a, **k: started.append("sweep") or [])
    out = tmp_path / "out"
    if command == "train":
        out.mkdir()
        argvs = [["train", "--pairs", "one:two", "--out", str(out)]]
    else:
        out.write_text("kept\n")
        pattern = ["--pattern", "zero"] if command == "simulate" else []
        argvs = [[command, "--out", str(path)] + pattern
                 for path in (out, out / "sub")]
    for argv in argvs:
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and \
            str(out) in err[0], err
    monkeypatch.setattr(cli, "hebbian_train",
                        lambda *a, **k: started.append("train"))
    argv = list(argvs[0])
    argv[argv.index("--out") + 1] = ""
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --out: empty path"]
    assert not started
    assert out.is_dir() if command == "train" else \
        out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["frob"],
    ["simulate", "--out", "o"],
    ["simulate", "--pattern", "zero", "--out", "o", "--seed", "abc"],
    ["train", "--pairs", "one:two"],
    ["train", "--out", "t.tpl", "--pairs"],
    ["sweep"],
    ["sweep", "--out", "o", "--jobs", "two"],
    ["oracle"],
    ["oracle", "levitation"],
], ids=["unknown-command", "simulate-no-pattern", "simulate-seed-abc",
        "train-no-out", "train-pairs-empty", "sweep-no-out", "sweep-jobs-two",
        "oracle-no-check", "oracle-check-levitation"])
def test_usage_error_exits_one_with_one_line(argv, tmp_path, monkeypatch,
                                             capsys):
    # argparse's own exit code, 2, is the "not converged" code here
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: spincnn")
    assert os.listdir(tmp_path) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spincnn sweep")


def test_arithmetic_error_exits_one_with_one_line(monkeypatch, capsys):
    import spincnn.cli as cli

    def overflow(args, argv):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "cmd_oracle", overflow)
    assert main(["oracle", "transmission"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: math range error (a setting is out of range)"]


def test_cli_import_loads_no_scipy():
    # NumPy is the only runtime dependency: importing the CLI loads no
    # SciPy module, and `oracle transmission`, whose drift-diffusion solve
    # is the program's one linear system, runs with SciPy blocked
    src = os.path.dirname(os.path.dirname(spincnn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SPINCNN_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spincnn.cli; print(sorted(m for m"
         " in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['scipy'] = None; "
         "from spincnn.cli import main; sys.exit(main(['oracle', "
         "'transmission']))"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "agreement: yes"
