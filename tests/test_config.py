"""Sectioned key=value configuration parsing."""

import pytest

from spincnn.config import ConfigError, FullConfig, parse_config
from spincnn.network import BOUNDARY_ZERO_FLUX


class TestDefaults:
    def test_empty_text_gives_all_defaults(self):
        cfg = parse_config("")
        assert cfg.magnet.Ms == 5e5
        assert cfg.sim.temperature == 300.0
        assert cfg.channel.L == 100e-9
        assert cfg.channel.l_sf == 420e-9
        assert cfg.channel.beta == 0.5
        assert cfg.channel.R_ground == 50.0
        assert cfg.mtj.V_read == 0.7
        assert cfg.inverter.V_dd == 0.7
        assert cfg.drive.i0_over_ic == 10.0
        assert cfg.explicit == frozenset()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\n[magnet]\nalpha = 0.02  # inline\n")
        assert cfg.magnet.alpha == 0.02


class TestOverrides:
    def test_single_override_leaves_rest_default(self):
        cfg = parse_config("[magnet]\nalpha = 0.02\n")
        assert cfg.magnet.alpha == 0.02
        assert cfg.magnet.Ms == 5e5
        assert cfg.was_set("magnet", "alpha")
        assert not cfg.was_set("magnet", "ms")

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

    def test_drive_absolute_override(self):
        cfg = parse_config("[drive]\ni0 = 1e-5\n")
        assert cfg.drive.i0 == 1e-5


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
        "[drive]\ni0 = -1e-3\n",
        "[drive]\ni0 = 0\n",
        "[drive]\ni0_over_ic = 0\n",
    ])
    def test_non_positive_drive_rejected(self, text):
        with pytest.raises(ConfigError, match="drive"):
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
