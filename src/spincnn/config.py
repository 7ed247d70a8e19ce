"""Line-oriented sectioned configuration: `[section]` headers, `key = value`
entries, `#` comments. Unknown sections or keys are rejected with the
offending line number; absent keys take the documented defaults.

Values are plain floats/ints in SI units except where noted; the drive IV
table uses the form `iv = (v1,i1);(v2,i2);...`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace

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

    def __post_init__(self):
        if not self.i0_over_ic > 0:
            raise ValueError("i0_over_ic must be > 0")


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


# A key is its field's name in lower case, with two renamed keys. The sweep
# sets the drive voltage and the driver size of every point, so no key does.
_RENAMED = {("channel", "L"): "length", ("drive_model", "iv_table"): "iv"}
_SWEPT = {("drive_model", "V_drive"), ("drive_model", "size_multiplier")}
# converter by the type of the field's default
_CONVERTERS = {float: _float, int: _int, tuple: _iv_table}


def _section_schema(section: str, part) -> dict:
    return {_RENAMED.get((section, f.name), f.name.lower()):
            (f.name, _CONVERTERS[type(f.default)])
            for f in fields(part) if (section, f.name) not in _SWEPT}


# section -> key -> (dataclass field name, converter); [network] sets
# FullConfig's own field
_SCHEMA = {f.name: _section_schema(f.name, f.default_factory)
           for f in fields(FullConfig) if f.name != "boundary"}
_SCHEMA["network"] = {"boundary": ("boundary", _boundary)}


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
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"[mtj]: {exc}") from exc
    if not -1.0 < b < 1.0:
        mtj = cfg.mtj
        raise ConfigError(f"[inverter] v_th: logic boundary at m_z = {b:.4g} "
                          f"with [mtj] v_read = {mtj.V_read:g} V, tmr = "
                          f"{mtj.TMR:g}, t_ox_ref = {mtj.t_ox_ref:g} m, "
                          f"t_ox_read = {mtj.t_ox_read:g} m and lambda_ox = "
                          f"{mtj.lambda_ox:g} m, outside (-1, 1)")
    # the thermal field divides by Ms V dt, and the anisotropy field by Ms
    magnet = cfg.magnet
    ms_v_dt = magnet.Ms * magnet.volume * cfg.sim.dt
    if not ms_v_dt >= sys.float_info.min:
        raise ConfigError(f"[magnet] ms, length, width, thickness and [sim] "
                          f"dt: Ms V dt = {ms_v_dt:.3g} underflows (Ms = "
                          f"{magnet.Ms:g} A/m, V = {magnet.volume:.3g} m^3, "
                          f"dt = {cfg.sim.dt:g} s)")
    return cfg
