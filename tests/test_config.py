"""Sectioned key=value configuration parsing."""

import dataclasses
from dataclasses import replace

import pytest

from spincnn.config import _SCHEMA, ConfigError, FullConfig, parse_config
from spincnn.network import BOUNDARY_ZERO_FLUX


class TestDefaults:
    def test_empty_text_gives_all_defaults(self):
        cfg = parse_config("")
        assert cfg.magnet.Ms == 5e5
        assert cfg.sim.temperature == 300.0
        assert cfg.channel.L == 100e-9
        assert cfg.channel.l_sf == 420e-9
        assert cfg.channel.beta == 0.5
        assert cfg.mtj.V_read == 0.7
        assert cfg.inverter.V_dd == 0.7
        assert cfg.drive.i0_over_ic == 10.0

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\n[magnet]\nalpha = 0.02  # inline\n")
        assert cfg.magnet.alpha == 0.02


class TestOverrides:
    def test_single_override_leaves_rest_default(self):
        cfg = parse_config("[magnet]\nalpha = 0.02\n")
        assert cfg.magnet.alpha == 0.02
        assert cfg.magnet.Ms == 5e5

    def test_several_sections(self):
        text = "[sim]\ndt = 2e-12\nt_max = 5e-9\n[channel]\nbeta = 0.4\n"
        cfg = parse_config(text)
        assert cfg.sim.dt == 2e-12
        assert cfg.sim.t_max == 5e-9
        assert cfg.channel.beta == 0.4

    def test_iv_table_syntax(self):
        cfg = parse_config("[drive_model]\niv = (0.01,2.8e-6);(0.5,4e-5);(1.0,7.5e-5)\n")
        assert cfg.drive_model.iv_table == ((0.01, 2.8e-6), (0.5, 4e-5),
                                            (1.0, 7.5e-5))

    def test_boundary_override(self):
        cfg = parse_config("[network]\nboundary = zero-flux\n")
        assert cfg.boundary == BOUNDARY_ZERO_FLUX


# one value per config key, each different from that key's default
KEY_VALUES = {
    ("sim", "dt"): ("2e-12", 2e-12), ("sim", "t_max"): ("5e-9", 5e-9),
    ("sim", "temperature"): ("77", 77.0), ("sim", "seed"): ("0x10", 16),
    ("sim", "hold_time"): ("0", 0.0), ("sim", "mz_threshold"): ("0.8", 0.8),
    ("sim", "sample_interval"): ("1e-11", 1e-11),
    ("magnet", "length"): ("40e-9", 40e-9), ("magnet", "width"): ("20e-9", 20e-9),
    ("magnet", "thickness"): ("1e-9", 1e-9), ("magnet", "ms"): ("6e5", 6e5),
    ("magnet", "ku"): ("7e4", 7e4), ("magnet", "alpha"): ("0.02", 0.02),
    ("channel", "length"): ("50e-9", 50e-9), ("channel", "l_sf"): ("300e-9", 300e-9),
    ("channel", "beta"): ("0.4", 0.4),
    ("channel", "ground_spin_sink"): ("0.1", 0.1),
    ("mtj", "t_ox_ref"): ("2.1e-9", 2.1e-9), ("mtj", "t_ox_read"): ("1.9e-9", 1.9e-9),
    ("mtj", "r_p_at_2nm"): ("2e5", 2e5), ("mtj", "lambda_ox"): ("0.3e-9", 0.3e-9),
    ("mtj", "tmr"): ("1.2", 1.2), ("mtj", "v_read"): ("0.8", 0.8),
    ("inverter", "v_dd"): ("0.8", 0.8), ("inverter", "gain"): ("30", 30.0),
    ("inverter", "v_th"): ("0.42", 0.42),
    ("drive_model", "iv"): ("(0.01,1e-6);(1.0,5e-5)", ((0.01, 1e-6), (1.0, 5e-5))),
    ("drive", "i0_over_ic"): ("3", 3.0),
    ("amplifier", "p_neuron"): ("1e-5", 1e-5), ("amplifier", "p_synapse"): ("1e-6", 1e-6),
    ("amplifier", "delay_0"): ("50e-9", 50e-9),
    ("amplifier", "delay_floor"): ("5e-9", 5e-9),
    ("amplifier", "p_leak"): ("1e-7", 1e-7),
    ("energy", "c_gate_unit"): ("2e-15", 2e-15),
    ("energy", "inverter_leakage"): ("4e-6", 4e-6),
    ("network", "boundary"): ("zero-flux", BOUNDARY_ZERO_FLUX),
}


def test_every_schema_key_sets_the_field_it_names():
    keys = {(sec, key) for sec, entries in _SCHEMA.items() for key in entries}
    assert keys == set(KEY_VALUES)
    assert len(keys) == 36
    default = FullConfig()
    for (sec, key), (text, value) in KEY_VALUES.items():
        field_name, _ = _SCHEMA[sec][key]
        assert getattr(default if sec == "network" else getattr(default, sec),
                       field_name) != value, (sec, key)
        # the key sets its field, and every other field keeps its default
        expected = replace(default, **{field_name: value}) if sec == "network" \
            else replace(default, **{sec: replace(getattr(default, sec),
                                                  **{field_name: value})})
        assert parse_config(f"[{sec}]\n{key} = {text}\n") == expected, (sec, key)


# fields that no config key sets: the sweep sets these itself, per point
SWEPT_FIELDS = {("drive_model", "V_drive"), ("drive_model", "size_multiplier")}


def test_every_config_field_is_reachable_from_a_key():
    reached = {(sec, name) for sec, entries in _SCHEMA.items()
               for name, _ in entries.values()}
    default, fields = FullConfig(), set()
    for f in dataclasses.fields(FullConfig):
        part = getattr(default, f.name)
        if dataclasses.is_dataclass(part):
            fields |= {(f.name, g.name) for g in dataclasses.fields(part)}
        else:
            # FullConfig's own fields come from [network]
            fields.add(("network", f.name))
    assert SWEPT_FIELDS <= fields
    assert fields - SWEPT_FIELDS == reached


class TestErrors:
    def test_out_of_range_value(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("[magnet]\nalpha = -1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[magnet]\nbogus = 1\n")

    def test_unknown_section_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[nope]\n")

    def test_entry_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("alpha = 0.02\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[magnet]\nalpha 0.02\n")

    def test_malformed_header(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("[magnet\n")

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("[magnet]\nalpha = fast\n")

    def test_bad_iv_anchor(self):
        with pytest.raises(ConfigError, match="iv"):
            parse_config("[drive_model]\niv = 0.01,2.8e-6\n")

    @pytest.mark.parametrize("text", [
        "[magnet]\nms = nan\n",
        "[sim]\ndt = inf\n",
        "[inverter]\nv_th = -inf\n",
        "[drive_model]\niv = (0.01,nan);(1.0,7.5e-5)\n",
    ])
    def test_non_finite_value_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "[drive]\ni0_over_ic = 0\n",
    ])
    def test_non_positive_drive_rejected(self, text):
        with pytest.raises(ConfigError, match="drive"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "[channel]\nr_ground = 50\n",
        "[drive_model]\nv_drive = 0.5\n",
        "[drive_model]\nsize = 2\n",
        "[energy]\nfeature_size = 32e-9\n",
        "[energy]\nmin_width_f = 4\n",
        "[channel]\nsigma = 1e7\n",
        "[channel]\ncross_section = 1e-16\n",
        "[drive]\ni0 = 1e-5\n",
    ])
    def test_deleted_key_is_unknown(self, text):
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config(text)

    @pytest.mark.parametrize("value", ["0", "-1e-10"])
    def test_non_positive_sample_interval_rejected(self, value):
        with pytest.raises(ConfigError, match="sample_interval"):
            parse_config(f"[sim]\nsample_interval = {value}\n")

    @pytest.mark.parametrize("text", [
        "[inverter]\nv_th = 5\n",
        "[inverter]\nv_th = 0.7\n",
        "[inverter]\nv_th = 0\n",
        "[mtj]\nv_read = 0.2\n",
    ])
    def test_logic_boundary_outside_open_interval_rejected(self, text):
        with pytest.raises(ConfigError, match="v_th: logic boundary"):
            parse_config(text)

    def test_bad_boundary_value(self):
        with pytest.raises(ConfigError, match="boundary"):
            parse_config("[network]\nboundary = mirror\n")


def test_cell_model_assembly():
    cfg = parse_config("[magnet]\nalpha = 0.02\n[network]\nboundary = zero-flux\n")
    model = cfg.cell_model(i0=1e-6)
    assert model.magnet.alpha == 0.02
    assert model.i0 == 1e-6
    assert model.boundary == BOUNDARY_ZERO_FLUX


def test_full_config_is_default_constructible():
    assert FullConfig().sim.dt == 1e-12
