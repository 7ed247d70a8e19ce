"""MTJ divider plus inverter: converts m_z into a rail-to-rail output.

Two stacked junctions form a voltage divider: the top one is a fixed
reference in the parallel state, the bottom one senses the free magnet.
The node voltage feeds an inverter, so a magnet pointing up (parallel,
low resistance, low node voltage) reads as logic +1 after inversion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

T_OX_MIN = 1e-9  # resistance model validity window [m]
T_OX_MAX = 3e-9
EXP_MAX = math.log(sys.float_info.max)  # largest exponent math.exp takes


@dataclass(frozen=True)
class MtjParams:
    t_ox_ref: float = 2e-9       # reference junction oxide thickness [m]
    t_ox_read: float = 2e-9      # read junction oxide thickness [m]
    R_P_at_2nm: float = 100e3    # parallel resistance at 2 nm [ohm]
    lambda_ox: float = 0.2e-9    # exponential thickness scale [m]
    TMR: float = 1.6             # (R_AP - R_P) / R_P at 2 nm
    V_read: float = 0.7          # [V]

    def __post_init__(self):
        if self.R_P_at_2nm <= 0 or self.lambda_ox <= 0:
            raise ValueError("R_P_at_2nm and lambda_ox must be > 0")
        if self.TMR <= 0:
            raise ValueError("TMR must be > 0")
        if self.V_read <= 0:
            raise ValueError("V_read must be > 0")
        for name in ("t_ox_ref", "t_ox_read"):
            t_ox = getattr(self, name)
            if not T_OX_MIN <= t_ox <= T_OX_MAX:
                raise ValueError(f"{name} = {t_ox:g} m outside the resistance "
                                 f"model's validity window [{T_OX_MIN:g}, "
                                 f"{T_OX_MAX:g}] m")
            x = (t_ox - 2e-9) / self.lambda_ox
            r_p = self.R_P_at_2nm * math.exp(x) if x <= EXP_MAX else math.inf
            r_ap = r_p * (1.0 + self.TMR)
            if not (sys.float_info.min <= r_p and r_ap <= sys.float_info.max):
                raise ValueError(f"lambda_ox = {self.lambda_ox:g} m with "
                                 f"{name} = {t_ox:g} m leaves the float "
                                 "range: R_P = R_P_at_2nm exp((t_ox - 2 nm) "
                                 f"/ lambda_ox) = {r_p:.3g} ohm, R_AP = R_P "
                                 f"(1 + tmr) = {r_ap:.3g} ohm")


# Default switching threshold: the divider voltage of the default MTJ
# stack at m_z = 0, so the logic decision boundary sits exactly at m_z = 0.
# A plain V_dd/2 threshold would sit exactly on the parallel-state divider
# voltage and misread an up magnet.
_R0_OVER_RP = 2.0 * 2.6 / 3.6  # conductance-midpoint resistance ratio
DEFAULT_V_TH = 0.7 * _R0_OVER_RP / (1.0 + _R0_OVER_RP)


@dataclass(frozen=True)
class InverterModel:
    V_dd: float = 0.7
    gain: float = 20.0
    V_th: float = DEFAULT_V_TH

    def __post_init__(self):
        if self.gain < 10:
            raise ValueError("inverter gain must be >= 10")
        if self.V_dd <= 0:
            raise ValueError("V_dd must be > 0")


def mtj_resistance(p: MtjParams, t_ox: float, mz: float) -> float:
    """Junction resistance [ohm]; conductance linear in m_z between P and AP.

    R_P grows exponentially with oxide thickness; the TMR is held at its
    2 nm value. t_ox is one of p's thicknesses, whose validity window and
    float range `MtjParams` checks.
    """
    r_p = p.R_P_at_2nm * math.exp((t_ox - 2e-9) / p.lambda_ox)
    r_ap = r_p * (1.0 + p.TMR)
    g = 0.5 * (1.0 / r_p + 1.0 / r_ap) + 0.5 * mz * (1.0 / r_p - 1.0 / r_ap)
    if g == 0.0:
        raise ValueError(f"tmr = {p.TMR:g} with r_p = {r_p:g} ohm leaves a "
                         f"zero junction conductance at m_z = {mz:g}")
    return 1.0 / g


def divider_voltage(p: MtjParams, mz: float) -> float:
    """Node voltage between the reference and read junctions [V]."""
    r_ref = mtj_resistance(p, p.t_ox_ref, 1.0)
    r_read = mtj_resistance(p, p.t_ox_read, mz)
    return p.V_read * r_read / (r_ref + r_read)


def read_current(p: MtjParams, mz: float) -> float:
    """Static current through the divider stack [A]."""
    r_ref = mtj_resistance(p, p.t_ox_ref, 1.0)
    r_read = mtj_resistance(p, p.t_ox_read, mz)
    return p.V_read / (r_ref + r_read)


def inverter_out(inv: InverterModel, v_in: float) -> float:
    """Smooth monotone-decreasing inverter transfer, clamped to the rails."""
    if not 0.0 <= v_in <= inv.V_dd:
        raise ValueError(f"v_in = {v_in} outside rails [0, {inv.V_dd}]")
    x = min(inv.gain * (v_in - inv.V_th) / inv.V_dd, EXP_MAX)
    v = inv.V_dd / (1.0 + math.exp(x))
    return min(max(v, 0.0), inv.V_dd)


def read_cell(p: MtjParams, inv: InverterModel,
              mz: float) -> tuple[float, int]:
    """Analog inverter output [V] and binary logic level for one neuron."""
    analog = inverter_out(inv, divider_voltage(p, mz))
    logic = 1 if analog > inv.V_dd / 2.0 else -1
    return analog, logic


def logic_mz_boundary(p: MtjParams, inv: InverterModel) -> float:
    """m_z at which the divider crosses the inverter threshold.

    Cells above this read logic +1. Closed-form inversion of the divider
    plus linear-in-conductance junction model.
    """
    r_ref = mtj_resistance(p, p.t_ox_ref, 1.0)
    if inv.V_th >= p.V_read:
        return -1.0
    if inv.V_th <= 0.0:
        return 1.0
    r_boundary = inv.V_th * r_ref / (p.V_read - inv.V_th)
    r_p = mtj_resistance(p, p.t_ox_read, 1.0)
    r_ap = mtj_resistance(p, p.t_ox_read, -1.0)
    g_mid = 0.5 * (1.0 / r_p + 1.0 / r_ap)
    g_half = 0.5 * (1.0 / r_p - 1.0 / r_ap)
    if g_half == 0.0:
        raise ValueError(f"tmr = {p.TMR:g} leaves a zero conductance swing: "
                         "the P and AP conductances are equal")
    return (1.0 / r_boundary - g_mid) / g_half
