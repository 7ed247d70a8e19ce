"""Span tracing and kernel micro-timings for the per-layer metrics.

`install` wraps every public function of every spincnn module (of `cli`
only `main`), plus `TemplateSet.per_cell`, under every name a module binds
it to. Each call
records a span (name, start, end, parent) in flat in-memory arrays; the
spans are written out when the run ends, and a layer's self time is its
span minus the spans of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("analysis", "cli", "cmos", "config", "core", "dynamics",
           "network", "readpath", "synapse", "transport")
# the cli layer is entered through `main`; its command handlers, parser and
# output writers are that layer's own work, so they count as main's self time
ENTRY_ONLY = {"cli": ("main",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units: dict[str, float] = {}   # work counted by `units` hooks
        self._stack = [-1]

    def wrap(self, name: str, fn, units=None):
        """`units(args, result)` adds a work count (cells, steps) per call."""
        nid = len(self.names)
        self.names.append(name)
        self.units[name] = 0.0
        kind, parent, start, end, stack = (self.kind, self.parent, self.start,
                                           self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if units is not None:
                self.units[name] += units(args, result)
            return result
        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(kind, minlength=n)
        total = np.bincount(kind, weights=dur, minlength=n)
        own = np.bincount(kind, weights=dur - children, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), kind=np.asarray(self.kind),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


# work units: cells per Heun call, RK4 steps per CMOS run (the benchmark
# samples every step, so the time axis holds one entry per step)
UNITS = {
    "dynamics.heun_step": lambda args, result: args[0].size // 3,
    "cmos.integrate": lambda args, result: len(result[0]) - 1,
}


def install(tracer: Tracer) -> None:
    """Replace spincnn functions by traced wrappers wherever they are bound."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"spincnn.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and not attr.startswith("_") \
                    and obj.__module__ == mod.__name__ \
                    and attr in ENTRY_ONLY.get(short, (attr,)):
                name = f"{short}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, UNITS.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "spincnn" or mod_name.startswith("spincnn."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
    core = importlib.import_module("spincnn.core")
    core.TemplateSet.per_cell = tracer.wrap("core.TemplateSet.per_cell",
                                            core.TemplateSet.per_cell)


def per_layer(tracer: Tracer, nonconverged_step_share: float) -> dict:
    """name -> (value, unit) of one traced run; 0 where a layer did not run."""
    tot = tracer.totals()

    def get(name):
        return tot.get(name, (0, 0.0, 0.0))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    steps = get("network.step")[0]
    heun_calls, heun_s, heun_self = get("dynamics.heun_step")
    rng_calls, _, rng_self = get("core.make_rng")
    return {
        "network.run.calls": (get("network.run")[0], "count"),
        "network.run.self_s": (get("network.run")[2], "s"),
        "network.step.calls": (steps, "count"),
        "network.step.self_us": (per(get("network.step")[2], steps, 1e6), "us"),
        "network.hebbian_train.s": (get("network.hebbian_train")[1], "s"),
        "network.load_templates.s": (get("network.load_templates")[1], "s"),
        "dynamics.heun_step.calls": (heun_calls, "count"),
        "dynamics.heun_step.self_s": (heun_self, "s"),
        "dynamics.heun_step.ns_per_cell_step":
            (per(heun_s, tracer.units["dynamics.heun_step"], 1e9), "ns"),
        "dynamics.critical_spin_current.s":
            (get("dynamics.critical_spin_current")[1], "s"),
        "dynamics.switch_time.calls": (get("dynamics.switch_time")[0], "count"),
        "dynamics.switch_time.s": (get("dynamics.switch_time")[1], "s"),
        "core.make_rng.calls": (rng_calls, "count"),
        "core.make_rng.self_us": (per(rng_self, rng_calls, 1e6), "us"),
        "core.TemplateSet.per_cell.calls":
            (get("core.TemplateSet.per_cell")[0], "count"),
        "readpath.logic_mz_boundary.calls_per_step":
            (per(get("readpath.logic_mz_boundary")[0], steps), "ratio"),
        "transport.spin_transmission.calls":
            (get("transport.spin_transmission")[0], "count"),
        "transport.numeric_transmission.s":
            (get("transport.numeric_transmission")[1], "s"),
        "synapse.quantize_weight.calls": (get("synapse.quantize_weight")[0], "count"),
        "synapse.quantize_weight.self_s": (get("synapse.quantize_weight")[2], "s"),
        "cmos.integrate.calls": (get("cmos.integrate")[0], "count"),
        "cmos.integrate.s": (get("cmos.integrate")[1], "s"),
        "cmos.integrate.us_per_step":
            (per(get("cmos.integrate")[1], tracer.units["cmos.integrate"], 1e6), "us"),
        "analysis.run_scenario.calls": (get("analysis.run_scenario")[0], "count"),
        "analysis.sweep_voltage.self_s": (get("analysis.sweep_voltage")[2], "s"),
        "analysis.spin_energy.s": (get("analysis.spin_energy")[1], "s"),
        "analysis.nonconverged_step_share": (nonconverged_step_share, "ratio"),
        "cli.main.calls": (get("cli.main")[0], "count"),
        "cli.main.self_s": (get("cli.main")[2], "s"),
    }


# ---------------------------------------------------------------------------
# kernel micro-timings, run untraced

def _per_call(fn, calls: int, blocks: int = 5) -> float:
    """Median over blocks of the mean host seconds per call."""
    fn()
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return float(np.median(times))


def micro_timings(root, seed: int) -> dict:
    """Heun kernel on 1 and 16 grids of 30x20 cells; net currents on the
    noisy `zero` glyph with the cross template and on a `one` cue with the
    Hebbian templates. name -> (value, unit)."""
    from spincnn.core import MagnetParams, Pattern
    from spincnn.dynamics import analytic_critical_current, heun_step, stt_rate
    from spincnn.network import (CellModel, CnnGrid, hebbian_train,
                                 net_currents, noise_filter_templates)
    from workloads import flip, read_glyph

    p = MagnetParams()
    i0 = 10 * analytic_critical_current(p)
    rng = np.random.default_rng(seed)
    zero = read_glyph(root, "zero")
    out = {}
    for label, batch, calls in (("b1", (), 200), ("b16", (16,), 20)):
        shape = batch + zero.shape
        m = rng.normal(size=shape + (3,))
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        torque = stt_rate(p, i0) * rng.choice((-1.0, 1.0), shape)
        thermal = rng.normal(scale=1e3, size=shape + (3,))
        s = _per_call(lambda: heun_step(m, p, torque, thermal, 1e-12), calls)
        out[f"dynamics.heun_step.ns_per_cell_step.{label}"] = \
            (s / m[..., 0].size * 1e9, "ns")

    glyph = {n: Pattern.from_array(read_glyph(root, n))
             for n in ("one", "two", "three", "four")}
    noisy = Pattern.from_array(flip(zero, 60, rng)[0])
    grids = {
        "cross": CnnGrid.from_pattern(noisy, noisy, noise_filter_templates()),
        "hebbian": CnnGrid.from_pattern(
            glyph["one"], glyph["one"],
            hebbian_train([(glyph["one"], glyph["two"]),
                           (glyph["three"], glyph["four"])])),
    }
    model = CellModel(i0=i0)
    for label, grid in grids.items():
        out[f"network.net_currents.us.{label}"] = \
            (_per_call(lambda: net_currents(grid, model), 100) * 1e6, "us")
    return out
