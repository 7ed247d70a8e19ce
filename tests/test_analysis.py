"""Energy/delay/area accounting, sweep aggregation, Pareto extraction and
the calibrated CMOS comparison."""

import os
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spincnn import load_glyph
from spincnn.analysis import (CSV_HEADER, MAGNET_FOOTPRINT, DesignPoint,
                              EnergyBreakdown, EnergyParams, Scenario,
                              ScenarioHardware,
                              SweepRecord, _sweep_chunk, aggregate,
                              cmos_sweep, compare, pareto, records_to_csv,
                              spin_area, spin_energy)
from spincnn.cmos import FEATURE_SIZE, MIN_WIDTH_F, AmplifierModel
from spincnn.core import Pattern, SimConfig
from spincnn.network import (CellModel, Trajectory, hebbian_train,
                             noise_filter_templates)
from spincnn.readpath import read_current
from spincnn.synapse import DriveModel

EP = EnergyParams()
MODEL = CellModel()
DRIVE = DriveModel(V_drive=0.5)


def fake_trajectory(conv_time, flips, rows=30, cols=20):
    p = Pattern(rows, cols, (1,) * (rows * cols))
    return Trajectory(np.array([0.0, conv_time or 1e-9]),
                      np.ones((2, rows, cols)), conv_time, p, p, flips)


NF_HW = ScenarioHardware.fixed(noise_filter_templates())


class TestEnergyBreakdown:
    def test_total_additive(self):
        e = EnergyBreakdown(1e-12, 2e-12, 3e-12)
        assert e.total == pytest.approx(6e-12)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(-1e-15, 0.0, 0.0)


class TestScenarioHardware:
    def test_fixed_noise_filter_counts(self):
        assert NF_HW.n_synapses == 5
        assert NF_HW.gross_units == 5.0
        assert NF_HW.driven_gates == 5
        assert NF_HW.magnets_per_synapse == 1

    def test_programmable_counts(self):
        hw = ScenarioHardware.programmable()
        assert hw.n_synapses == 18
        # each programmable synapse always drives 4+2+1+1 quarters = 2 units
        assert hw.gross_units == pytest.approx(36.0)
        assert hw.driven_gates == 9
        assert hw.magnets_per_synapse == 4
        assert hw.resolution_bits == 3


class TestSpinEnergy:
    def test_zero_time_trajectory(self):
        traj = fake_trajectory(0.0, 0)
        e = spin_energy(traj, DRIVE, MODEL, EP, NF_HW, 20e-9)
        assert e.total == 0.0

    def test_time_linearity(self):
        e1 = spin_energy(fake_trajectory(1e-9, 10), DRIVE, MODEL, EP, NF_HW,
                         20e-9)
        e2 = spin_energy(fake_trajectory(2e-9, 10), DRIVE, MODEL, EP, NF_HW,
                         20e-9)
        assert e2.joule == pytest.approx(2 * e1.joule, rel=1e-12)
        assert e2.leakage == pytest.approx(2 * e1.leakage, rel=1e-12)
        assert e2.dynamic == pytest.approx(e1.dynamic, rel=1e-12)

    def test_joule_monotone_in_voltage_at_equal_time(self):
        lo = spin_energy(fake_trajectory(1e-9, 0), DriveModel(V_drive=0.1),
                         MODEL, EP, NF_HW, 20e-9)
        hi = spin_energy(fake_trajectory(1e-9, 0), DriveModel(V_drive=1.0),
                         MODEL, EP, NF_HW, 20e-9)
        assert hi.joule > lo.joule

    def test_nonconverged_integrates_to_t_max(self):
        e = spin_energy(fake_trajectory(None, 0), DRIVE, MODEL, EP, NF_HW,
                        20e-9)
        ref = spin_energy(fake_trajectory(20e-9, 0), DRIVE, MODEL, EP, NF_HW,
                          20e-9)
        assert e.total == pytest.approx(ref.total, rel=1e-12)

    def test_read_power_is_the_read_current_of_an_up_magnet(self):
        # the read stack of every cell draws V_read * read_current at m_z = 1
        e = spin_energy(fake_trajectory(3e-9, 0), DRIVE, MODEL, EP, NF_HW,
                        20e-9)
        mtj = MODEL.mtj
        p_cell = mtj.V_read * read_current(mtj, 1.0) \
            + MODEL.inverter.V_dd * EP.inverter_leakage
        assert e.leakage == pytest.approx(600 * p_cell * 3e-9, rel=1e-12)

    def test_gross_not_net_charging(self):
        # cancellation overhead: programmable synapses burn gross drive
        fixed = spin_energy(fake_trajectory(1e-9, 0), DRIVE, MODEL, EP,
                            NF_HW, 20e-9)
        prog = spin_energy(fake_trajectory(1e-9, 0), DRIVE, MODEL, EP,
                           ScenarioHardware.programmable(), 20e-9)
        assert prog.joule == pytest.approx(
            fixed.joule * 36.0 / 5.0, rel=1e-12)


class TestSpinArea:
    def test_driver_term_isolated_by_size(self):
        a1 = spin_area(600, NF_HW, 1)
        a2 = spin_area(600, NF_HW, 2)
        w_min = MIN_WIDTH_F * FEATURE_SIZE
        driver_term = 600 * NF_HW.gross_units * w_min * 8 * FEATURE_SIZE
        assert a2 - a1 == pytest.approx(driver_term, rel=1e-12)

    def test_monotone_in_size(self):
        areas = [spin_area(600, NF_HW, s) for s in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_magnet_term_subdominant(self):
        hw = NF_HW
        magnets = 1 + hw.n_synapses * hw.magnets_per_synapse
        magnet_area = 600 * magnets * MAGNET_FOOTPRINT
        assert magnet_area < spin_area(600, hw, 1) / 5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spin_area(0, NF_HW, 1)
        with pytest.raises(ValueError):
            spin_area(600, NF_HW, 0)


def make_record(v, size, seed, converged, delay, total=1e-12, area=1e-11):
    return SweepRecord(v, size, seed, converged, delay,
                       EnergyBreakdown(total, 0.0, 0.0), area)


class TestAggregation:
    def test_median_delay_mean_energy(self):
        recs = [make_record(0.5, 1, s, True, d, total=e)
                for s, d, e in [(0, 1e-9, 1e-12), (1, 3e-9, 3e-12),
                                (2, 2e-9, 5e-12)]]
        agg = aggregate(recs)
        assert len(agg) == 1
        assert agg[0].delay == pytest.approx(2e-9)
        assert agg[0].energy == pytest.approx(3e-12)

    def test_nonconverged_group_flagged(self):
        recs = [make_record(0.1, 1, s, False, 20e-9) for s in range(3)]
        agg = aggregate(recs)
        assert agg[0].converged is False
        assert agg[0].delay == 20e-9

    def test_pareto_min_energy_per_size(self):
        recs = [make_record(0.2, 1, 0, True, 2e-9, total=4e-12, area=1e-11),
                make_record(0.8, 1, 0, True, 1e-9, total=6e-12, area=1e-11),
                make_record(0.2, 2, 0, True, 1e-9, total=3e-12, area=2e-11),
                make_record(0.8, 2, 0, False, 20e-9, total=9e-12, area=2e-11)]
        front = pareto(recs)
        assert [f.size_mult for f in front] == [1, 2]
        assert front[0].energy == pytest.approx(4e-12)
        assert front[1].energy == pytest.approx(3e-12)
        assert front[0].area < front[1].area

    def test_pareto_skips_a_size_with_no_converged_point(self):
        recs = [make_record(0.2, 1, 0, True, 2e-9, total=4e-12, area=1e-11),
                make_record(0.2, 2, 0, False, 20e-9, area=2e-11),
                make_record(0.8, 2, 0, False, 20e-9, area=2e-11)]
        assert [(f.size_mult, f.v_drive) for f in pareto(recs)] == \
            [(1, 0.2)]

    def test_design_points_are_frozen(self):
        # the spin side's points, and the CMOS side's, are one frozen record
        recs = [make_record(0.2, 1, 0, True, 2e-9),
                make_record(0.8, 1, 0, False, 20e-9)]
        s = Scenario("nf", load_glyph("zero"), noise_filter_templates(), 0.1)
        points = aggregate(recs) + pareto(recs) + \
            cmos_sweep(s, [1, 10], AmplifierModel())
        assert len(points) == 5
        for p in points:
            assert type(p) is DesignPoint
            with pytest.raises(FrozenInstanceError):
                p.energy = 0.0

    def test_pareto_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto([])


class TestCompare:
    SPIN = [DesignPoint(1e-8, 1e-10, 5e-11, v_drive=0.3, size_mult=1)]

    def test_self_comparison_unity(self):
        cmos = [DesignPoint(1e-8, 1e-10, 5e-11, scale=1)]
        rep = compare(self.SPIN, cmos)
        assert rep["energy_ratio"] == pytest.approx(1.0)
        assert rep["area_ratio"] == pytest.approx(1.0)
        assert rep["meets_10x"] is False

    def test_ten_x_flag(self):
        cmos = [DesignPoint(1.5e-8, 2e-9, 5e-10, scale=1)]
        rep = compare(self.SPIN, cmos)
        assert rep["meets_10x"] is True
        assert rep["cmos_label"] == "calibrated-to-published-claims"

    def test_empty_frontier_rejected(self):
        cmos = [DesignPoint(1e-8, 1e-10, 5e-11, scale=1)]
        with pytest.raises(ValueError, match="frontiers must be non-empty"):
            compare([], cmos)

    def test_no_delay_overlap_rejected(self):
        cmos = [DesignPoint(1e-6, 1e-9, 5e-10, scale=1)]
        with pytest.raises(ValueError, match="within"):
            compare(self.SPIN, cmos)


class TestScenario:
    def test_cell_count(self):
        s = Scenario("nf", load_glyph("zero"), noise_filter_templates(), 0.1)
        assert s.n_cells == 600
        assert s.hardware.n_synapses == 5

    def test_programmable_hardware_selected(self):
        t = hebbian_train([(load_glyph("one"), load_glyph("two"))])
        s = Scenario("assoc", load_glyph("one"), t, 0.0)
        assert s.hardware.n_synapses == 18

    def test_cmos_sweep_shapes(self):
        s = Scenario("nf", load_glyph("zero"), noise_filter_templates(), 0.1)
        recs = cmos_sweep(s, [1, 10], AmplifierModel())
        assert len(recs) == 2
        assert recs[1].delay == pytest.approx(10e-9)
        assert recs[0].energy > 0


def test_sweep_records_do_not_depend_on_jobs(sorted_sweep, monkeypatch):
    # 12 points: one ensemble, or chunks of 6 or 4 in worker processes
    # (three usable CPUs, so that jobs = 3 makes 3 chunks on any host);
    # 0.05 V never settles, five points settle at different times
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
    s = Scenario("nf", load_glyph("zero"), noise_filter_templates(), 0.1)
    cfg = SimConfig(dt=2e-12, t_max=4e-9, hold_time=0.2e-9)
    runs = [sorted_sweep(s, [1.0, 0.05, 0.52], [1, 4], [0, 1], cfg, MODEL,
                         DriveModel(), EP, jobs=jobs) for jobs in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert [(r.v_drive, r.size_mult, r.seed) for r in runs[0]] == \
        [(v, size, seed) for v in (0.05, 0.52, 1.0) for size in (1, 4)
         for seed in (0, 1)]
    assert not any(r.converged for r in runs[0][:4])
    assert len({r.delay for r in runs[0] if r.converged}) >= 4


def test_sweep_pool_is_capped_at_usable_cpus(sorted_sweep, monkeypatch):
    # --jobs 8 on 3 points with one usable CPU opens no worker pool; a
    # serial sweep runs where the CPU affinity cannot be read
    import multiprocessing

    s = Scenario("nf", load_glyph("zero"), noise_filter_templates(), 0.1)
    cfg = SimConfig(dt=2e-12, t_max=0.4e-9, hold_time=0.2e-9)
    args = (s, [1.0, 0.05, 0.52], [1], [0], cfg, MODEL, DriveModel(), EP)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    alone = sorted_sweep(*args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", None)
    assert sorted_sweep(*args, jobs=8) == alone


def test_points_on_one_seed_match_their_runs_alone(sorted_sweep):
    # one ensemble of 6 points, 3 on each seed, which share a thermal draw
    # per step; 0.05 V never settles, so the draw of a seed passes to it
    # when the points at the other voltages stop
    s = Scenario("nf", load_glyph("zero"), noise_filter_templates(), 0.1)
    cfg = SimConfig(dt=2e-12, t_max=3e-9, hold_time=0.2e-9)
    records = sorted_sweep(s, [1.0, 0.05, 0.52], [4], [0, 1], cfg, MODEL,
                           DriveModel(), EP)
    assert len(records) == 6
    assert [r.converged for r in records] == [False] * 2 + [True] * 4
    assert len({r.delay for r in records}) == 5
    for r in records:
        point = (r.v_drive, r.size_mult, r.seed)
        alone = _sweep_chunk((s, [point], cfg, MODEL, DriveModel(), EP))
        assert [vars(a) for a in alone] == [vars(r)]


def test_csv_header_and_formatting():
    assert CSV_HEADER == ("v_drive_V,size_mult,seed,converged,delay_ns,"
                          "e_joule_fJ,e_leak_fJ,e_dyn_fJ,e_total_fJ,area_um2")
    rec = make_record(0.27, 2, 3, True, 9.932e-9, total=2.5e-13, area=4.86e-11)
    text = records_to_csv([rec])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.27,2,3,1,9.932,250,0,0,250,48.6"
