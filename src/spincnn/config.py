"""Line-oriented sectioned configuration: `[section]` headers, `key = value`
entries, `#` comments. Unknown sections or keys are rejected with the
offending line number; absent keys take the documented defaults.

Values are plain floats/ints in SI units except where noted; the drive IV
table uses the form `iv = (v1,i1);(v2,i2);...`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

from .analysis import EnergyParams
from .cmos import AmplifierModel
from .core import MagnetParams, SimConfig
from .network import BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX, CellModel
from .readpath import InverterModel, MtjParams, logic_mz_boundary
from .synapse import DriveModel
from .transport import ChannelParams


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DriveConfig:
    """Synapse drive settings beyond the transistor model itself."""

    i0_over_ic: float = 10.0   # demo unit-weight current in critical currents
    i0: float | None = None    # absolute override [A]; wins when set

    def __post_init__(self):
        if not self.i0_over_ic > 0:
            raise ValueError("i0_over_ic must be > 0")
        if self.i0 is not None and not self.i0 > 0:
            raise ValueError("i0 must be > 0")


@dataclass(frozen=True)
class FullConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    magnet: MagnetParams = field(default_factory=MagnetParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    mtj: MtjParams = field(default_factory=MtjParams)
    inverter: InverterModel = field(default_factory=InverterModel)
    drive_model: DriveModel = field(default_factory=DriveModel)
    drive: DriveConfig = field(default_factory=DriveConfig)
    amplifier: AmplifierModel = field(default_factory=AmplifierModel)
    energy: EnergyParams = field(default_factory=EnergyParams)
    boundary: str = BOUNDARY_MINUS_ONE

    def cell_model(self, i0: float) -> CellModel:
        return CellModel(self.magnet, self.channel, self.mtj, self.inverter,
                         i0, self.boundary)


def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _int(s: str) -> int:
    return int(s, 0)


def _iv_table(s: str):
    pairs = []
    for part in s.split(";"):
        part = part.strip()
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"bad iv anchor {part!r}")
        v, i = part[1:-1].split(",")
        pairs.append((_float(v), _float(i)))
    return tuple(pairs)


def _boundary(s: str) -> str:
    if s not in (BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX):
        raise ValueError(f"boundary must be {BOUNDARY_MINUS_ONE!r} or "
                         f"{BOUNDARY_ZERO_FLUX!r}")
    return s


# section -> key -> (dataclass field name, converter)
_SCHEMA = {
    "sim": {
        "dt": ("dt", _float), "t_max": ("t_max", _float),
        "temperature": ("temperature", _float), "seed": ("seed", _int),
        "hold_time": ("hold_time", _float),
        "mz_threshold": ("mz_threshold", _float),
        "sample_interval": ("sample_interval", _float),
    },
    "magnet": {
        "length": ("length", _float), "width": ("width", _float),
        "thickness": ("thickness", _float), "ms": ("Ms", _float),
        "ku": ("Ku", _float), "alpha": ("alpha", _float),
    },
    "channel": {
        "length": ("L", _float), "l_sf": ("l_sf", _float),
        "beta": ("beta", _float), "ground_spin_sink": ("ground_spin_sink", _float),
    },
    "mtj": {
        "t_ox_ref": ("t_ox_ref", _float), "t_ox_read": ("t_ox_read", _float),
        "r_p_at_2nm": ("R_P_at_2nm", _float),
        "lambda_ox": ("lambda_ox", _float), "tmr": ("TMR", _float),
        "v_read": ("V_read", _float),
    },
    "inverter": {
        "v_dd": ("V_dd", _float), "gain": ("gain", _float),
        "v_th": ("V_th", _float),
    },
    # the sweep sets the drive voltage and the driver size of every point
    "drive_model": {
        "iv": ("iv_table", _iv_table),
    },
    "drive": {
        "i0_over_ic": ("i0_over_ic", _float), "i0": ("i0", _float),
    },
    "amplifier": {
        "p_neuron": ("p_neuron", _float), "p_synapse": ("p_synapse", _float),
        "delay_0": ("delay_0", _float), "delay_floor": ("delay_floor", _float),
        "p_leak": ("p_leak", _float),
    },
    "energy": {
        "c_gate_unit": ("c_gate_unit", _float),
        "inverter_leakage": ("inverter_leakage", _float),
    },
    "network": {
        "boundary": ("boundary", _boundary),
    },
}


def parse_config(text: str) -> FullConfig:
    """Parse sectioned key=value text into a validated FullConfig."""
    overrides: dict[str, dict] = {sec: {} for sec in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header")
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        if section is None:
            raise ConfigError(f"line {lineno}: entry before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in "
                              f"[{section}]")
        field_name, conv = _SCHEMA[section][key]
        try:
            overrides[section][field_name] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    # [network] sets FullConfig's own fields; every other section one part
    parts = overrides.pop("network")
    defaults = FullConfig()
    for section, values in overrides.items():
        try:
            parts[section] = replace(getattr(defaults, section), **values)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    cfg = FullConfig(**parts)
    try:
        b = logic_mz_boundary(cfg.mtj, cfg.inverter)
    except ValueError as exc:
        raise ConfigError(f"[mtj]: {exc}") from exc
    if not -1.0 < b < 1.0:
        raise ConfigError(f"[inverter] v_th: logic boundary at m_z = {b:.4g} "
                          "with this [mtj] read stack, outside (-1, 1)")
    # the thermal field divides by Ms V dt, and the anisotropy field by Ms
    ms_v_dt = cfg.magnet.Ms * cfg.magnet.volume * cfg.sim.dt
    if not ms_v_dt >= sys.float_info.min:
        raise ConfigError(f"[magnet] ms: Ms V dt = {ms_v_dt:.3g} underflows "
                          f"(Ms = {cfg.magnet.Ms:g} A/m)")
    return cfg
