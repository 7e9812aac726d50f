import dataclasses
import tracemalloc

import numpy as np
import pytest

from risdeploy import cli, evaluation
from risdeploy.errors import InvalidInputError
from risdeploy.evaluation import (build_panel, closure_report, demo_sensing_paths,
                                  explicit_sensing_crb, explicit_ue_snr)
from risdeploy.units import SPEED_OF_LIGHT, lin2db

from _oracles import explicit_ue_snr_pairs, same_bits


def _bigger(result):
    "The same deployment with 20 more cells per panel side."
    return dataclasses.replace(
        result, sizes=[dataclasses.replace(s, cells_per_side=s.cells_per_side + 20)
                       for s in result.sizes])


def test_explicit_snr_positive_and_size_monotone(ctx_full, nm_result):
    table = explicit_ue_snr(ctx_full, nm_result, build_panel(ctx_full, nm_result, 0))
    assert table.shape == (len(ctx_full.regions[0].covered_cells),
                           len(ctx_full.uav_grid.centers))
    assert table[0, 0] > 0
    # a larger panel (same geometry) collects more power toward its comm beam
    bigger = _bigger(nm_result)
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
    result = nm_result if mode == "full-isac" else cli.optimize(ctx)
    _assert_tables_match_pairs(ctx, result)


@pytest.mark.parametrize("bits", [1, 3])
def test_snr_table_is_the_pairwise_synthesis_at_other_bits(ctx_full, nm_result, bits):
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, bits=bits))
    _assert_tables_match_pairs(ctx, nm_result)


def test_snr_table_is_the_pairwise_synthesis_with_a_comm_only_column(ctx_full, nm_result):
    # beta = 1 on one UAV column: that column takes the comm beam alone
    beta = nm_result.beta_per_uav.copy()
    beta[1, :] = 1.0
    result = dataclasses.replace(nm_result, beta_per_uav=beta)
    _assert_tables_match_pairs(ctx_full, result)


def test_snr_table_memory_is_bounded_in_panel_cells(ctx_full, nm_result):
    # one sense beam per UAV column and a fixed number of panel vectors
    # besides, whatever the number of covered cells
    panel = build_panel(ctx_full, nm_result, 0)
    vector = 16 * len(panel.cells)  # bytes of one complex panel vector
    n_uav = len(ctx_full.uav_grid.centers)
    region = ctx_full.regions[0]
    cells = 2 * list(region.covered_cells)
    doubled = dataclasses.replace(ctx_full, regions=[
        dataclasses.replace(region, covered_cells=cells), *ctx_full.regions[1:]])
    peaks = []
    for ctx in (ctx_full, doubled):
        tracemalloc.start()
        try:
            explicit_ue_snr(ctx, nm_result, panel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= (n_uav + 10) * vector, peaks[0] / vector
    assert peaks[1] <= peaks[0] + vector / 2, (peaks[1] - peaks[0]) / vector


def test_explicit_crb_requires_sensing_mode(ctx_full, nm_result):
    comm = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode="comm-only"))
    panel = build_panel(comm, nm_result, 0)
    with pytest.raises(InvalidInputError):
        explicit_sensing_crb(comm, nm_result, panel, 0, ctx_full.regions[0].covered_cells[0])


def test_explicit_crb_improves_with_size(ctx_full, nm_result):
    cell = ctx_full.regions[0].covered_cells[0]
    crb = explicit_sensing_crb(ctx_full, nm_result, build_panel(ctx_full, nm_result, 0), 0,
                               cell)
    assert crb.range_crb > 0 and crb.velocity_crb > 0
    bigger = _bigger(nm_result)
    crb_big = explicit_sensing_crb(ctx_full, bigger, build_panel(ctx_full, bigger, 0), 0, cell)
    assert crb_big.range_crb < crb.range_crb
    assert crb_big.velocity_crb < crb.velocity_crb


def test_closure_report_shapes_and_margins(ctx_full, nm_result):
    report = closure_report(ctx_full, nm_result)
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
        worst - lin2db(ctx_full.thresholds.snr_threshold))


def test_closure_report_comm_only(demo_cfg):
    from risdeploy import cli

    ctx = cli.build_context(dataclasses.replace(demo_cfg, mode="comm-only"))
    result = cli.optimize(ctx)
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
    closure_report(ctx_full, nm_result)
    n_ris = len(ctx_full.regions)
    assert calls == {"ris_cell_positions": n_ris, "explicit_ue_snr": n_ris}


def test_demo_sensing_paths_geometry(ctx_full, nm_result):
    uav = ctx_full.uav_grid.centers[0] + np.array([1.0, -2.0, 0.0])
    vel = np.array([4.0, -2.0, 0.0])
    paths = demo_sensing_paths(ctx_full, nm_result, uav, vel)
    assert len(paths) == len(ctx_full.regions) + 1
    bs = ctx_full.scene.bs_position
    d_bu = np.linalg.norm(uav - bs)
    assert paths[0].delay == pytest.approx(2 * d_bu / SPEED_OF_LIGHT)
    # direct Doppler: both legs see the radial velocity toward the BS
    u_bs = (uav - bs) / d_bu
    assert paths[0].doppler == pytest.approx(-2 * np.dot(vel, u_bs) / ctx_full.wavelength)
    for n, p in enumerate(paths[1:]):
        d_rn = np.linalg.norm(uav - nm_result.positions[n])
        d_bn = np.linalg.norm(nm_result.positions[n] - bs)
        assert p.delay == pytest.approx((d_rn + d_bn + d_bu) / SPEED_OF_LIGHT)
        assert p.index == n + 1
        assert abs(p.coeff) > 0
    # all paths are distinguishable in delay
    delays = [p.delay for p in paths]
    assert len(set(np.round(np.array(delays) * 1e9, 3))) == len(delays)


def test_stationary_target_has_zero_doppler(ctx_full, nm_result):
    uav = ctx_full.uav_grid.centers[0]
    paths = demo_sensing_paths(ctx_full, nm_result, uav, np.zeros(3))
    assert all(p.doppler == 0.0 for p in paths)
