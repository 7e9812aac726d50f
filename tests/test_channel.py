import dataclasses

import numpy as np
import pytest

from risdeploy import optimizer
from risdeploy.channel import PANEL_FOV_COS, LinkBudget, cell_amplitude_gain
from risdeploy.errors import InvalidInputError
from risdeploy.optimizer import orientation_search, reference_comm_snr, ris_paths
from risdeploy.propagation import dominant_path_between
from risdeploy.units import wavelength

LAM = wavelength(28e9)


def test_link_budget_properties():
    lb = LinkBudget(43.0, -165.0, 1e9, 20.0)
    assert lb.tx_power_w == pytest.approx(19.952623149688797)
    assert lb.noise_psd_w_hz == pytest.approx(3.1622776601683794e-20)
    assert lb.noise_power_w == pytest.approx(3.1622776601683795e-11)
    assert lb.snr_threshold_linear == pytest.approx(100.0)
    with pytest.raises(InvalidInputError):
        LinkBudget(43.0, -165.0, 0.0, 20.0)


def test_gain_zero_outside_field_of_view():
    eps = 1e-6
    assert cell_amplitude_gain(PANEL_FOV_COS - eps, 1e-5, LAM) == 0.0
    assert cell_amplitude_gain(np.cos(np.deg2rad(80.0) - 1e-3), 1e-5, LAM) > 0.0
    assert cell_amplitude_gain(0.0, 1e-5, LAM) == 0.0
    # elementwise over arrays, each entry as the scalar call gives it
    cosines = np.array([[1.0, np.cos(0.4), np.cos(np.deg2rad(80.0) - 1e-3)],
                        [PANEL_FOV_COS, np.cos(2.0), -1.0]])
    gains = cell_amplitude_gain(cosines, 1e-5, LAM)
    assert gains.shape == cosines.shape
    np.testing.assert_array_equal(
        gains, [[cell_amplitude_gain(c, 1e-5, LAM) for c in row] for row in cosines])
    assert np.all(gains[1] == 0.0) and np.all(gains[0] > 0.0)


def test_gain_field_of_view_is_the_orientation_scores():
    # one field-of-view rule: on cosines straddling its edge by a few ulps and
    # by more, the gain is positive exactly where the orientation score counts
    # the target in view. Axis j is (c_j, s_j, 0) and the target (1, 0, 0),
    # so the score's cosine is c_j exactly
    edge = [PANEL_FOV_COS]
    for step in (2.0, -2.0):
        c = PANEL_FOV_COS
        for _ in range(6):
            c = np.nextafter(c, step)
            edge.append(c)
    cosines = np.concatenate([edge, PANEL_FOV_COS + np.array([-1e-6, -1e-12, 1e-12, 1e-6]),
                              np.cos(np.deg2rad(80.0) + np.arange(-3, 4) * 1e-16)])
    axes = np.stack([cosines, np.sqrt(1.0 - cosines**2), np.zeros_like(cosines)])
    target = np.array([1.0, 0.0, 0.0])
    in_view = optimizer._orientation_score(axes, target, target[None, :], None) > 0.0
    gain = cell_amplitude_gain(cosines, (LAM / 2) ** 2, LAM)
    np.testing.assert_array_equal(gain > 0.0, in_view)
    assert 0 < np.count_nonzero(in_view) < len(cosines)


def test_unit_cell_gain_squares_to_power_gain():
    cell = (LAM / 2) ** 2
    g = cell_amplitude_gain(np.cos(0.4), cell, LAM)
    assert g**2 == pytest.approx(4 * np.pi * cell * np.cos(0.4) / LAM**2)


def test_unit_cells_compose_to_panel_gain():
    # M identical cells added coherently with two traversals reproduce the
    # aperture-model panel gain eta cos(in) cos(out) A^2 (4 pi / lambda^2)^2
    # with area A = M * A_u.
    m = 100
    cell = (LAM / 2) ** 2
    inc, ref = 0.3, 0.5
    amp = cell_amplitude_gain(np.cos(inc), cell, LAM) * cell_amplitude_gain(np.cos(ref), cell, LAM)
    coherent_power = (m * amp) ** 2
    panel = np.cos(inc) * np.cos(ref) * (m * cell) ** 2 * (4 * np.pi / LAM**2) ** 2
    assert coherent_power == pytest.approx(panel, rel=1e-12)


def _reference_panel(ctx, n=0):
    """Region n's reference point, the attenuations and departure directions
    of its dominant paths and the orientation the planner picks there."""
    region = ctx.regions[n]
    pos = region.reference_point()
    orient = orientation_search(pos, ctx.scene.bs_position,
                                ctx.ue_grid.centers[region.covered_cells],
                                ctx.uav_grid.centers, ctx.region_bounds(region))
    return region, pos, ris_paths(ctx, n, pos)[:2], orient


def test_effective_ris_gain_aperture_model(ctx_full):
    # the reference SNR carries the aperture gain of the M_ref panel:
    # eta cos(in) cos(out) A_ref^2 (4 pi / lambda^2)^2 with A_ref = M_ref A_u
    ctx = ctx_full
    region, pos, paths, orient = _reference_panel(ctx)
    gamma = reference_comm_snr(ctx, *paths, orient)
    axis = np.array([np.cos(orient.psi_r) * np.cos(orient.theta_r),
                     np.sin(orient.psi_r) * np.cos(orient.theta_r),
                     -np.sin(orient.theta_r)])
    path_b = dominant_path_between(ctx.scene, ctx.prop, pos, ctx.scene.bs_position)
    cos_b = float(np.dot(path_b.depart_dir, axis))
    lam = ctx.wavelength
    ref_area = ctx.cell_area * ctx.cfg.ref_cells_per_side**2
    expected = []
    for cell in region.covered_cells:
        path_k = dominant_path_between(ctx.scene, ctx.prop, pos, ctx.ue_grid.centers[cell])
        cos_k = float(np.dot(path_k.depart_dir, axis))
        in_view = min(cos_b, cos_k) > PANEL_FOV_COS
        gain = (ctx.cfg.efficiency * cos_b * cos_k * ref_area**2 * (4 * np.pi / lam**2) ** 2
                if in_view else 0.0)
        expected.append(ctx.link.tx_power_w / ctx.link.noise_power_w * ctx.quant_eff
                        * ctx.bs_amp_gain**2 * path_b.attenuation**2
                        * path_k.attenuation**2 * gain)
    np.testing.assert_allclose(gamma, expected, rtol=1e-12)
    assert np.all(gamma > 0.0)
    # quadratic in area (so quartic in the side length)
    bigger = dataclasses.replace(ctx, cfg=dataclasses.replace(
        ctx.cfg, ref_cells_per_side=2 * ctx.cfg.ref_cells_per_side))
    np.testing.assert_allclose(reference_comm_snr(bigger, *paths, orient), 16 * gamma,
                               rtol=1e-12)


def test_effective_gain_nonnegative_and_monotone_in_eta(ctx_full):
    cosines = np.cos(np.linspace(0.0, np.pi, 181))
    assert np.all(cell_amplitude_gain(cosines, (LAM / 2) ** 2, LAM) >= 0.0)
    for n in range(len(ctx_full.regions)):
        _, _, paths, orient = _reference_panel(ctx_full, n)
        etas = (0.1, 0.3, 0.6, 1.0)  # the config takes efficiencies in (0, 1]
        curve = [reference_comm_snr(dataclasses.replace(
                     ctx_full, cfg=dataclasses.replace(ctx_full.cfg, efficiency=eta)),
                     *paths, orient)
                 for eta in etas]
        for eta, snr in zip(etas, curve):  # proportional to eta, so zero in the limit eta -> 0
            np.testing.assert_allclose(snr, eta / etas[0] * curve[0], rtol=1e-12)
        assert all(np.all(b >= a) for a, b in zip(curve, curve[1:]))
        assert all(np.all(g >= 0.0) for g in curve)
