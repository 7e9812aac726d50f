import dataclasses

import numpy as np
import pytest

from risdeploy import sensing
from risdeploy.errors import InvalidInputError, UnobservablePathError
from risdeploy.optimizer import orientation_search, reference_sensing_crbs
from risdeploy.sensing import (OfdmParams, OfdmWaveform, SensingPath,
                               fim, qpsk_symbols)
from risdeploy.units import SPEED_OF_LIGHT, wavelength

from _oracles import fd_fim, moments_per_symbol, qpsk_symbols_exp, same_bits

SMALL = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=64, symbols=16)


def test_ofdm_params_derived_quantities():
    p = OfdmParams(28e9, 1e9, 2560, 2048)
    assert p.symbol_duration == pytest.approx(2.56e-6)
    assert p.frame_duration == pytest.approx(5.24288e-3)
    assert p.range_resolution == pytest.approx(0.14989622900000002)
    assert p.velocity_resolution == pytest.approx(wavelength(28e9) / (2 * 5.24288e-3))
    with pytest.raises(InvalidInputError):
        OfdmParams(28e9, 0.0, 64, 16)
    with pytest.raises(InvalidInputError):
        OfdmParams(28e9, 1e9, 0, 16)


def test_qpsk_grid_properties():
    g = qpsk_symbols(32, 8, seed=3)
    assert g.shape == (32, 8) and g.dtype == np.uint8
    assert set(np.unique(g)) <= {0, 1, 2, 3}
    np.testing.assert_allclose(np.abs(sensing._QPSK[g]), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(g, qpsk_symbols(32, 8, seed=3))
    assert not np.array_equal(g, qpsk_symbols(32, 8, seed=4))


def test_qpsk_symbols_match_exp_formula():
    # 2560 rows span several draw blocks: the same stream as one whole-frame draw
    for nc, m, seed in ((100, 37, 0), (2560, 64, 1), (37, 29, 123456)):
        assert same_bits(sensing._QPSK[qpsk_symbols(nc, m, seed)],
                         qpsk_symbols_exp(nc, m, seed))


def test_waveform_sample_matches_symbol_samples():
    wave = OfdmWaveform(SMALL, seed=1)
    dt = 1.0 / SMALL.bandwidth_hz
    t = np.arange(SMALL.subcarriers) * dt  # symbol 0 grid
    s_direct, sdot_direct = wave.sample(t)
    s_fft, sdot_fft = (a[0] for a in wave._symbol_samples(0, 1))
    np.testing.assert_allclose(s_direct, s_fft, atol=1e-10)
    np.testing.assert_allclose(sdot_direct, sdot_fft, atol=1e-2 * np.max(np.abs(sdot_fft)) * 1e-8)
    # unit average power over the frame
    t_all = np.arange(SMALL.subcarriers * SMALL.symbols) * dt
    s_all, _ = wave.sample(t_all)
    assert np.mean(np.abs(s_all) ** 2) == pytest.approx(1.0, rel=1e-9)
    # outside the frame the signal is zero
    s_out, sdot_out = wave.sample([-dt, SMALL.frame_duration + dt])
    assert np.all(s_out == 0) and np.all(sdot_out == 0)


def test_moments_match_direct_riemann_sum():
    wave = OfdmWaveform(SMALL, seed=2)
    dt = 1.0 / SMALL.bandwidth_hz
    tau = 10 * dt
    mom = wave.moments(tau)
    total = SMALL.subcarriers * SMALL.symbols
    t = np.arange(total) * dt
    s, s_dot = wave.sample(t, tau=tau)
    np.testing.assert_allclose(mom.deriv_energy, np.sum(np.abs(s_dot) ** 2) * dt, rtol=1e-9)
    np.testing.assert_allclose(mom.time_cross, np.sum(t * s_dot * np.conj(s)) * dt, rtol=1e-9)
    np.testing.assert_allclose(mom.time_energy, np.sum(t**2 * np.abs(s) ** 2) * dt, rtol=1e-9)
    with pytest.raises(InvalidInputError):
        wave.moments(0.3 * dt)


@pytest.mark.parametrize("block", [sensing.MOMENT_BLOCK, 8])
@pytest.mark.parametrize("nc, m, shift", [(100, 37, 0), (100, 37, 5 * 100 + 37),
                                          (64, 150, 0), (64, 150, 20 * 64 + 5)])
def test_moments_match_per_symbol_reference(block, nc, m, shift, monkeypatch):
    # the shifted cases cut the frame inside a block of symbols
    monkeypatch.setattr(sensing, "MOMENT_BLOCK", block)
    params = OfdmParams(28e9, 1e9, nc, m)
    wave = OfdmWaveform(params, seed=3)
    tau = shift / params.bandwidth_hz
    mom = wave.moments(tau)
    i1, i2, i3 = moments_per_symbol(wave, tau, wave_seed=3)
    assert same_bits(np.array([mom.deriv_energy, mom.time_energy]), np.array([i1, i3]))
    assert same_bits(np.array(mom.time_cross), np.array(i2))


def test_sensing_path_coordinates():
    p = SensingPath(0, delay=2e-7, doppler=1000.0, coeff=1e-6 + 0j, carrier_hz=28e9)
    assert p.range == pytest.approx(SPEED_OF_LIGHT * 1e-7)
    assert p.velocity == pytest.approx(wavelength(28e9) * 500.0)


def test_fim_matches_finite_difference_oracle():
    wave = OfdmWaveform(SMALL, seed=5)
    dt = 1.0 / SMALL.bandwidth_hz
    noise_psd = 3.16e-20
    path = SensingPath(0, delay=12 * dt, doppler=8.0e3,
                       coeff=2e-7 * np.exp(1j * 0.7), carrier_hz=28e9)
    analytic = fim(SMALL, path, noise_psd, wave.moments(path.delay))
    numeric = fd_fim(wave, path, noise_psd, wave_seed=5)
    np.testing.assert_allclose(analytic.fim, numeric, rtol=1e-3)
    inv = np.linalg.inv(numeric)
    assert analytic.range_crb == pytest.approx(inv[0, 0], rel=1e-3)
    assert analytic.velocity_crb == pytest.approx(inv[1, 1], rel=1e-3)


def test_fim_crb_scales_inverse_square_with_coeff():
    wave = OfdmWaveform(SMALL, seed=5)
    mom = wave.moments(0.0)
    base = SensingPath(0, 0.0, 1.0e3, 1e-7 + 0j, 28e9)
    strong = SensingPath(0, 0.0, 1.0e3, 3e-7 + 0j, 28e9)
    crb1 = fim(SMALL, base, 1e-19, mom)
    crb9 = fim(SMALL, strong, 1e-19, mom)
    assert crb1.range_crb / crb9.range_crb == pytest.approx(9.0, rel=1e-12)
    assert crb1.velocity_crb / crb9.velocity_crb == pytest.approx(9.0, rel=1e-12)


def test_fim_zero_coeff_unobservable():
    wave = OfdmWaveform(SMALL, seed=0)
    path = SensingPath(0, 0.0, 0.0, 0.0j, 28e9)
    with pytest.raises(UnobservablePathError):
        fim(SMALL, path, 1e-19, wave.moments(0.0))


def test_reference_crb_scale(ctx_full):
    # the reference CRBs fall with the square of the panel amplitude: four
    # times the cells (double the side) gives 1/16, half the efficiency 2x
    region = ctx_full.regions[0]
    pos = region.reference_point()
    orient = orientation_search(pos, ctx_full.scene.bs_position,
                                ctx_full.ue_grid.centers[region.covered_cells],
                                ctx_full.uav_grid.centers, ctx_full.region_bounds(region))
    ref = reference_sensing_crbs(ctx_full, pos, orient)
    assert len(ref) == len(ctx_full.uav_grid.centers)
    cfg = ctx_full.cfg
    bigger = dataclasses.replace(ctx_full, cfg=dataclasses.replace(
        cfg, ref_cells_per_side=2 * cfg.ref_cells_per_side))
    lossier = dataclasses.replace(ctx_full, cfg=dataclasses.replace(
        cfg, efficiency=cfg.efficiency / 2))
    for base, big, lossy in zip(ref, reference_sensing_crbs(bigger, pos, orient),
                                reference_sensing_crbs(lossier, pos, orient)):
        assert base.range_crb > 0 and base.velocity_crb > 0
        assert big.range_crb == pytest.approx(base.range_crb / 16, rel=1e-9)
        assert big.velocity_crb == pytest.approx(base.velocity_crb / 16, rel=1e-9)
        assert lossy.range_crb == pytest.approx(2 * base.range_crb, rel=1e-9)
        np.testing.assert_allclose(lossy.fim, base.fim / 2, rtol=1e-9)
