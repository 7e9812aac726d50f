import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risdeploy import cli, evaluation
from risdeploy.errors import InvalidInputError
from risdeploy.evaluation import (build_panel, closure_report, demo_sensing_paths,
                                  explicit_sensing_crb, explicit_ue_snr)
from risdeploy.optimizer import ris_paths
from risdeploy.propagation import dominant_path_between
from risdeploy.scene import Building
from risdeploy.units import SPEED_OF_LIGHT, lin2db

from _oracles import (explicit_sensing_crb_columns, explicit_ue_snr_pairs, panel_leg,
                      same_bits)


def _bigger(result):
    "The same deployment with 20 more cells per panel side."
    return dataclasses.replace(
        result, sizes=[dataclasses.replace(s, cells_per_side=s.cells_per_side + 20)
                       for s in result.sizes])


def test_explicit_snr_positive_and_size_monotone(ctx_full, nm_result):
    table = explicit_ue_snr(ctx_full, nm_result.step1, build_panel(ctx_full, nm_result.step1, 0))
    assert table.shape == (len(ctx_full.regions[0].covered_cells),
                           len(ctx_full.uav_grid.centers))
    assert table[0, 0] > 0
    # a larger panel (same geometry) collects more power toward its comm beam
    bigger = _bigger(nm_result.step1)
    table_big = explicit_ue_snr(ctx_full, bigger, build_panel(ctx_full, bigger, 0))
    assert table_big[0, 0] > table[0, 0]


def _assert_tables_match_pairs(ctx, result):
    for n in range(len(ctx.regions)):
        panel = build_panel(ctx, result, n)
        assert same_bits(explicit_ue_snr(ctx, result, panel),
                         explicit_ue_snr_pairs(ctx, result, panel)), n


@pytest.mark.parametrize("mode", cli.MODES)
def test_snr_table_is_the_pairwise_synthesis(ctx_full, nm_result, mode):
    # bit for bit the table built one (cell, UAV) pair at a time through np.mod
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode=mode))
    result = nm_result.step1 if mode == "full-isac" else cli.optimize(ctx).step1
    _assert_tables_match_pairs(ctx, result)


@pytest.mark.parametrize("bits", [1, 3])
def test_snr_table_is_the_pairwise_synthesis_at_other_bits(ctx_full, nm_result, bits):
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, bits=bits))
    _assert_tables_match_pairs(ctx, nm_result.step1)


def test_snr_table_is_the_pairwise_synthesis_with_a_comm_only_column(ctx_full, nm_result):
    # beta = 1 on one UAV column: that column takes the comm beam alone
    beta = nm_result.step1.beta_per_uav.copy()
    beta[1, :] = 1.0
    result = dataclasses.replace(nm_result.step1, beta_per_uav=beta)
    _assert_tables_match_pairs(ctx_full, result)


def test_snr_table_memory_is_bounded_in_panel_cells(ctx_full, nm_result):
    # one sense beam per UAV column and a fixed number of panel vectors
    # besides, whatever the number of covered cells
    panel = build_panel(ctx_full, nm_result.step1, 0)
    vector = 16 * len(panel.cells)  # bytes of one complex panel vector
    n_uav = len(ctx_full.uav_grid.centers)
    region = ctx_full.regions[0]
    cells = 2 * list(region.covered_cells)
    doubled = dataclasses.replace(ctx_full, regions=[
        dataclasses.replace(region, covered_cells=cells), *ctx_full.regions[1:]])
    doubled_panel = build_panel(doubled, nm_result.step1, 0)  # twice the UE legs
    assert len(doubled_panel.ue_ends) == 2 * len(panel.ue_ends)
    peaks = []
    for ctx, panel in ((ctx_full, panel), (doubled, doubled_panel)):
        tracemalloc.start()
        try:
            explicit_ue_snr(ctx, nm_result.step1, panel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= (n_uav + 10) * vector, peaks[0] / vector
    assert peaks[1] <= peaks[0] + vector / 2, (peaks[1] - peaks[0]) / vector


def test_leg_weights_are_the_conjugate_of_its_one_phasor(ctx_full, nm_result):
    # bit for bit amplitudes times exp(-j kappa (d_b + d)) on every leg of the
    # demo panels, and the phasor exp(j kappa (d_b + d)) that focuses on it;
    # every demo UE leg is LoS, so the panel keeps each cell's centre and 1
    kappa = 2.0 * np.pi / ctx_full.wavelength
    for n, region in enumerate(ctx_full.regions):
        panel = build_panel(ctx_full, nm_result.step1, n)
        assert same_bits(panel.ue_ends, ctx_full.ue_grid.centers[region.covered_cells])
        assert np.all(panel.ue_bounce == 1.0)
        for point in [*ctx_full.ue_grid.centers[region.covered_cells], *ctx_full.uav_grid.centers]:
            weights, phasor = evaluation._leg(ctx_full, panel, point, 1.0)
            dist, expected = panel_leg(ctx_full, panel, point)
            assert same_bits(weights, expected), (n, point)
            assert same_bits(phasor, np.exp(1j * kappa * (panel.d_b + dist))), (n, point)


def test_each_panel_leg_takes_one_exp(ctx_full, nm_result, monkeypatch):
    panel = build_panel(ctx_full, nm_result.step1, 0)
    calls = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        calls.append(np.size(x) == len(panel.cells))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    n_cells = len(ctx_full.regions[0].covered_cells)
    n_uav = len(ctx_full.uav_grid.centers)
    explicit_ue_snr(ctx_full, nm_result.step1, panel)
    assert sum(calls) == n_cells + n_uav  # one per UE leg and one per UAV leg
    calls.clear()
    explicit_sensing_crb(ctx_full, nm_result.step1, panel, 0)
    assert sum(calls) == 1 + n_uav  # the comm leg once, then one per UAV column


def test_explicit_crb_requires_sensing_mode(ctx_full, nm_result):
    comm = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode="comm-only"))
    panel = build_panel(comm, nm_result.step1, 0)
    with pytest.raises(InvalidInputError):
        explicit_sensing_crb(comm, nm_result.step1, panel, 0)


def test_explicit_crb_improves_with_size(ctx_full, nm_result):
    crb = explicit_sensing_crb(ctx_full, nm_result.step1,
                               build_panel(ctx_full, nm_result.step1, 0), 0)
    assert crb.shape == (2, len(ctx_full.uav_grid.centers))
    assert np.all(crb > 0)
    bigger = _bigger(nm_result.step1)
    crb_big = explicit_sensing_crb(ctx_full, bigger, build_panel(ctx_full, bigger, 0), 0)
    assert np.all(crb_big < crb)


def _assert_crbs_match_columns(ctx, result):
    for n, region in enumerate(ctx.regions):
        panel = build_panel(ctx, result, n)
        for row in (0, len(region.covered_cells) - 1):
            cell = region.covered_cells[row]
            assert same_bits(explicit_sensing_crb(ctx, result, panel, row),
                             explicit_sensing_crb_columns(ctx, result, panel, cell)), (n, cell)


@pytest.mark.parametrize("mode", ["full-isac", "passive-orientation", "pathloss-baseline"])
def test_crbs_are_the_per_column_synthesis(ctx_full, nm_result, mode):
    # bit for bit the CRBs of columns that each form their own legs and beams
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode=mode))
    result = nm_result.step1 if mode == "full-isac" else cli.optimize(ctx).step1
    _assert_crbs_match_columns(ctx, result)


@pytest.mark.parametrize("bits", [1, 3])
def test_crbs_are_the_per_column_synthesis_at_other_bits(ctx_full, nm_result, bits):
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, bits=bits))
    _assert_crbs_match_columns(ctx, nm_result.step1)


def test_crb_memory_is_bounded_in_panel_vectors(ctx_full, nm_result):
    # a fixed number of panel vectors, whatever the number of UAV cells
    plan = nm_result.step1
    panel = build_panel(ctx_full, plan, 0)
    vector = 16 * len(panel.cells)  # bytes of one complex panel vector
    centers = ctx_full.uav_grid.centers
    doubled = dataclasses.replace(ctx_full, uav_grid=dataclasses.replace(
        ctx_full.uav_grid, centers=np.vstack([centers, centers])))
    twice = dataclasses.replace(plan, beta_per_uav=np.vstack([plan.beta_per_uav] * 2),
                                omega_per_uav=np.vstack([plan.omega_per_uav] * 2))
    peaks = []
    for ctx, result in ((ctx_full, plan), (doubled, twice)):
        tracemalloc.start()
        try:
            explicit_sensing_crb(ctx, result, panel, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 10 * vector, peaks[0] / vector
    assert peaks[1] <= peaks[0] + vector / 2, (peaks[1] - peaks[0]) / vector


def test_closure_report_shapes_and_margins(ctx_full, nm_result):
    report = closure_report(ctx_full, nm_result.step1)
    n = len(ctx_full.regions)
    m_u = len(ctx_full.uav_grid.centers)
    assert len(report.snr_db) == n
    assert report.crb_range.shape == (n, m_u)
    assert report.crb_velocity.shape == (n, m_u)
    assert np.all(np.isfinite(report.crb_range))
    # the sized deployment must satisfy the QoS it was sized for
    assert report.snr_margin_db > 0.0
    assert report.crb_range_margin_db > 0.0
    assert report.crb_velocity_margin_db > 0.0
    # the scaling model and the synthesis agree to within a few dB
    assert np.all(report.gain_gap_db < 3.0)
    # reported margin is consistent with the per-cell SNR table
    worst = min(float(np.min(s)) for s in report.snr_db)
    assert report.snr_margin_db == pytest.approx(
        worst - lin2db(ctx_full.link.snr_threshold_linear))


@pytest.mark.parametrize("mode", cli.MODES)
def test_closure_report_closes_behind_a_wall(ctx_full, mode):
    # the demo plus a 10 m wall in front of RIS 0's face, with pl_max_db 110 so
    # that blocked legs take a reflection: each mode's plan closes on the legs
    # that sized it, every margin >= 0 dB and every gain gap <= 0.3 dB
    wall = Building.box(45.0, 70.0, 91.0, 92.0, 10.0)
    ctx = dataclasses.replace(
        ctx_full, scene=dataclasses.replace(ctx_full.scene,
                                            buildings=ctx_full.scene.buildings + (wall,)),
        prop=dataclasses.replace(ctx_full.prop, pl_max_db=110.0),
        cfg=dataclasses.replace(ctx_full.cfg, mode=mode))
    plan = cli.optimize(ctx).step1
    report = closure_report(ctx, plan)
    margins = [report.snr_margin_db]
    if mode != "comm-only":
        margins += [report.crb_range_margin_db, report.crb_velocity_margin_db]
    assert min(margins) >= 0.0, margins
    assert np.all(report.gain_gap_db <= 0.3), report.gain_gap_db
    if mode == "pathloss-baseline":  # its plan serves a cell of RIS 0 by a reflection
        assert np.any(ris_paths(ctx, 0, plan.positions[0])[3] < 1.0)


def test_reflected_legs_are_straight_legs_to_their_images(tmp_path):
    # on the two-box scene RIS 0 serves its UE cells by a reflection: the SNR
    # table is the pairwise synthesis toward each leg's image point times the
    # bounce power, and the CRB check's comm beam is focused on that image
    scene = Path(__file__).parent / "data" / "two_boxes_scene.json"
    (tmp_path / "cfg.json").write_text(json.dumps({"scene": str(scene), "symbols": 256,
                                                   "mode": "passive-orientation"}))
    ctx = cli.build_context(cli.load_config(str(tmp_path / "cfg.json")))
    plan = cli.optimize(ctx).step1
    panel = build_panel(ctx, plan, 0)
    cells = ctx.regions[0].covered_cells
    paths = [dominant_path_between(ctx.scene, ctx.prop, plan.positions[0], ctx.ue_grid.centers[c])
             for c in cells]
    assert all(path.kind == "reflection" for path in paths)
    centers = ctx.ue_grid.centers.copy()
    centers[cells] = [path.apparent for path in paths]
    images = dataclasses.replace(ctx, ue_grid=dataclasses.replace(ctx.ue_grid, centers=centers))
    bounce = np.array([path.bounce_amp for path in paths])
    np.testing.assert_allclose(explicit_ue_snr(ctx, plan, panel),
                               explicit_ue_snr_pairs(images, plan, panel) * bounce[:, None] ** 2,
                               rtol=1e-12)
    for row, cell in enumerate(cells):
        assert same_bits(explicit_sensing_crb(ctx, plan, panel, row),
                         explicit_sensing_crb_columns(images, plan, panel, cell)), row


def test_closure_report_comm_only(demo_cfg):
    from risdeploy import cli

    ctx = cli.build_context(dataclasses.replace(demo_cfg, mode="comm-only"))
    result = cli.optimize(ctx).step1
    report = closure_report(ctx, result)
    assert report.snr_margin_db > 0.0
    assert np.isnan(report.crb_range_margin_db)
    assert np.all(np.isnan(report.crb_range))


def test_closure_builds_each_panel_once(ctx_full, nm_result, monkeypatch):
    # one panel build and one SNR table per RIS, not one per (cell, UAV) pair
    calls = {"ris_cell_positions": 0, "explicit_ue_snr": 0}

    def counted(name):
        original = getattr(evaluation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(evaluation, name, counted(name))
    closure_report(ctx_full, nm_result.step1)
    n_ris = len(ctx_full.regions)
    assert calls == {"ris_cell_positions": n_ris, "explicit_ue_snr": n_ris}


def test_demo_sensing_paths_geometry(ctx_full, nm_result):
    uav = ctx_full.uav_grid.centers[0] + np.array([1.0, -2.0, 0.0])
    vel = np.array([4.0, -2.0, 0.0])
    paths = demo_sensing_paths(ctx_full, nm_result.step1, uav, vel)
    assert len(paths) == len(ctx_full.regions) + 1
    bs = ctx_full.scene.bs_position
    d_bu = np.linalg.norm(uav - bs)
    assert paths[0].delay == pytest.approx(2 * d_bu / SPEED_OF_LIGHT)
    # direct Doppler: both legs see the radial velocity toward the BS
    u_bs = (uav - bs) / d_bu
    assert paths[0].doppler == pytest.approx(-2 * np.dot(vel, u_bs) / ctx_full.wavelength)
    for n, p in enumerate(paths[1:]):
        d_rn = np.linalg.norm(uav - nm_result.step1.positions[n])
        d_bn = np.linalg.norm(nm_result.step1.positions[n] - bs)
        assert p.delay == pytest.approx((d_rn + d_bn + d_bu) / SPEED_OF_LIGHT)
        assert p.index == n + 1
        assert abs(p.coeff) > 0
    # all paths are distinguishable in delay
    delays = [p.delay for p in paths]
    assert len(set(np.round(np.array(delays) * 1e9, 3))) == len(delays)


def test_stationary_target_has_zero_doppler(ctx_full, nm_result):
    uav = ctx_full.uav_grid.centers[0]
    paths = demo_sensing_paths(ctx_full, nm_result.step1, uav, np.zeros(3))
    assert all(p.doppler == 0.0 for p in paths)
