import dataclasses
import functools

import numpy as np
import pytest

from risdeploy import sensing
from risdeploy.arrays import Orientation
from risdeploy.errors import InvalidInputError, UnobservablePathError
from risdeploy.optimizer import (orientation_search, reference_sensing_crbs, round_trip_coeff,
                                 sensing_path)
from risdeploy.propagation import fspl_amplitude
from risdeploy.sensing import (OfdmParams, OfdmWaveform, SensingPath, WaveformMoments,
                               crb_arrays, fim, qpsk_symbols)
from risdeploy.units import SPEED_OF_LIGHT, wavelength

from _oracles import (fd_fim, fim_scalar, moments_per_symbol, qpsk_symbols_exp,
                      reference_sensing_crbs_per_cell, same_bits, waveform_sample)
from conftest import bs_leg

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
    # unit average power over the frame
    t_all = np.arange(SMALL.subcarriers * SMALL.symbols) * dt
    s_all, _ = waveform_sample(wave, t_all)
    assert np.mean(np.abs(s_all) ** 2) == pytest.approx(1.0, rel=1e-9)
    # outside the frame the signal is zero
    s_out, sdot_out = waveform_sample(wave, [-dt, SMALL.frame_duration + dt])
    assert np.all(s_out == 0) and np.all(sdot_out == 0)


def test_moments_match_direct_riemann_sum():
    # the closed form is the expectation of the Riemann sums over the symbol
    # draw: exact for any one frame in I1 (Parseval), and in I2 and I3 the
    # mean of 200 frames' sums, which scatter about it by up to ~2e-2 and ~2e-3
    # each, comes within 4.1e-3 (Re(j I2)) and 2.1e-5 (I3), held at about 2x
    dt = 1.0 / SMALL.bandwidth_hz
    mom = OfdmWaveform(SMALL, seed=2).moments()
    t = np.arange(SMALL.subcarriers * SMALL.symbols) * dt
    sums = []
    for seed in range(2, 202):
        s, s_dot = waveform_sample(OfdmWaveform(SMALL, seed=seed), t)
        sums.append([np.sum(np.abs(s_dot) ** 2) * dt, np.sum(t * s_dot * np.conj(s)) * dt,
                     np.sum(t**2 * np.abs(s) ** 2) * dt])
    i1, i2, i3 = np.mean(sums, axis=0)
    np.testing.assert_allclose(mom.deriv_energy, sums[0][0].real, rtol=1e-9)
    assert mom.time_cross.real == 0.0
    np.testing.assert_allclose(mom.time_cross.imag, i2.imag, rtol=1e-2)
    np.testing.assert_allclose(mom.time_energy, i3.real, rtol=5e-5)


@functools.cache
def _oracle_moments(nc, m, seed):
    "moments_per_symbol of the (nc, m) frame drawn from `seed`, formed once per frame."
    return moments_per_symbol(OfdmWaveform(OfdmParams(28e9, 1e9, nc, m), seed=seed),
                              wave_seed=seed)


# ids read nc-m-delay, the delay in samples (moments() sums the undelayed
# frame), then the frame's seed where it is not 3, then the row block of the
# symbol draw. Besides the two small frames these are the frames the pipeline
# and the tests use: the demo frame (2560 x 2048) at three seeds, the 512- and
# 256-symbol frames of RISDEPLOY_SYMBOLS and A3's 64 x 16 frame, and 1001
# symbols. Each frame's bounds on |closed form / oracle - 1| for I1, Re(j I2)
# and I3 are about twice the errors measured for it (in the comments): the
# closed form is the expectation over the draw, so a drawn frame's sums
# scatter about it, less the more samples the frame has; I1 is exact up to
# the oracle's rounding.
MOMENT_BOUNDS = {
    (100, 37, 3): (1e-15, 3e-2, 2e-4),  # 1.1e-16, 1.1e-2, 6.6e-5
    (64, 150, 3): (2e-15, 5e-3, 4e-5),  # 8.9e-16, 2.1e-3, 1.7e-5
    (2560, 2048, 0): (7e-14, 2e-4, 2e-7),  # 3.3e-14, 8.7e-5, 5.2e-8
    (2560, 2048, 1): (7e-14, 1e-4, 8e-7),  # 3.3e-14, 4.9e-5, 3.7e-7
    (2560, 2048, 108): (7e-14, 4e-4, 6e-8),  # 3.3e-14, 1.8e-4, 3.0e-8
    (2560, 512, 0): (2e-14, 2e-3, 6e-7),  # 8.2e-15, 6.6e-4, 2.8e-7
    (2560, 256, 0): (1e-14, 2e-2, 8e-6),  # 4.7e-15, 7.6e-3, 3.7e-6
    (2560, 1001, 0): (4e-14, 3e-3, 3e-7),  # 1.8e-14, 1.3e-3, 1.4e-7
    (64, 16, 7): (1e-15, 9e-2, 4e-3),  # 0, 4.3e-2, 1.6e-3
}


@pytest.mark.parametrize("block", [sensing.DRAW_BLOCK, 8])
@pytest.mark.parametrize("nc, m, seed", list(MOMENT_BOUNDS),
                         ids=["100-37-0", "64-150-0", "2560-2048-0-seed0", "2560-2048-0-seed1",
                              "2560-2048-0-seed108", "2560-512-0-seed0", "2560-256-0-seed0",
                              "2560-1001-0-seed0", "64-16-0-seed7"])
def test_moments_match_per_symbol_reference(block, nc, m, seed, monkeypatch):
    # the oracle sums the frame it draws whole from `seed`; the waveform's
    # frame, drawn in row blocks of 64 or 8, is that frame (its 100 rows end
    # inside a block of either size), and the closed form is within the
    # frame's bounds
    monkeypatch.setattr(sensing, "DRAW_BLOCK", block)
    wave = OfdmWaveform(OfdmParams(28e9, 1e9, nc, m), seed=seed)
    assert np.array_equal(wave.index, np.random.default_rng(seed).integers(0, 4, (nc, m)))
    mom = wave.moments()
    i1, i2, i3 = _oracle_moments(nc, m, seed)
    errors = (abs(mom.deriv_energy / i1 - 1), abs((1j * mom.time_cross).real / (1j * i2).real - 1),
              abs(mom.time_energy / i3 - 1))
    assert all(e <= bound for e, bound in zip(errors, MOMENT_BOUNDS[nc, m, seed])), errors


def test_moments_do_not_depend_on_the_symbol_draw():
    # sizing's CRBs read the closed form, so two draws of the demo frame size alike
    params = OfdmParams(28e9, 1e9, 2560, 2048)
    assert OfdmWaveform(params, seed=0).moments() == OfdmWaveform(params, seed=1).moments()


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
    delayed = WaveformMoments(*moments_per_symbol(wave, path.delay, wave_seed=5))
    analytic = fim(SMALL, path, noise_psd, delayed)
    numeric = fd_fim(wave, path, noise_psd, wave_seed=5)
    np.testing.assert_allclose(analytic.fim, numeric, rtol=1e-3)
    inv = np.linalg.inv(numeric)
    assert analytic.range_crb == pytest.approx(inv[0, 0], rel=1e-3)
    assert analytic.velocity_crb == pytest.approx(inv[1, 1], rel=1e-3)


def test_fim_crb_scales_inverse_square_with_coeff():
    wave = OfdmWaveform(SMALL, seed=5)
    mom = wave.moments()
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
        fim(SMALL, path, 1e-19, wave.moments())


def test_reference_crb_scale(ctx_full):
    # the reference CRBs fall with the square of the panel amplitude: four
    # times the cells (double the side) gives 1/16, half the efficiency 2x
    region = ctx_full.regions[0]
    pos = region.reference_point()
    orient = orientation_search(pos, ctx_full.scene.bs_position,
                                ctx_full.ue_grid.centers[region.covered_cells],
                                ctx_full.uav_grid.centers, ctx_full.region_bounds(region))
    leg = bs_leg(ctx_full, pos)
    base = reference_sensing_crbs(ctx_full, pos, orient, *leg)
    cfg = ctx_full.cfg
    bigger = dataclasses.replace(ctx_full, cfg=dataclasses.replace(
        cfg, ref_cells_per_side=2 * cfg.ref_cells_per_side))
    lossier = dataclasses.replace(ctx_full, cfg=dataclasses.replace(
        cfg, efficiency=cfg.efficiency / 2))
    big = reference_sensing_crbs(bigger, pos, orient, *leg)
    lossy = reference_sensing_crbs(lossier, pos, orient, *leg)
    for k in range(2):  # range, then velocity
        assert base[k].shape == (len(ctx_full.uav_grid.centers),)
        assert np.all(base[k] > 0)
        np.testing.assert_allclose(big[k], base[k] / 16, rtol=1e-9)
        np.testing.assert_allclose(lossy[k], 2 * base[k], rtol=1e-9)


@pytest.mark.parametrize("mode", ["full-isac", "passive-orientation"])
def test_crb_arrays_are_fim_per_cell(ctx_full, mode):
    # sizing's CRB arrays (through each RIS and direct) are the per-cell fim
    # of the per-cell sensing paths bit for bit, and fim keeps the bits of
    # the scalar formula, also for the complex panel sums of the closure
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode=mode))
    rng = np.random.default_rng(21)
    noise, mom = ctx.link.noise_psd_w_hz, ctx.moments
    paths = [sensing_path(ctx, 0, center, 1.0) for center in ctx.uav_grid.centers]
    direct = [fim(ctx.ofdm, path, noise, mom) for path in paths]
    range_crb, velocity_crb, fims = crb_arrays(
        ctx.ofdm, np.abs(round_trip_coeff(ctx, 1.0, ctx.uav_ranges)), noise, mom)
    assert same_bits(range_crb, np.array([b.range_crb for b in direct]))
    assert same_bits(velocity_crb, np.array([b.velocity_crb for b in direct]))
    assert same_bits(np.moveaxis(fims, -1, 0), np.array([b.fim for b in direct]))
    for n, region in enumerate(ctx.regions):
        normal = region.face.normal
        for _ in range(4):
            p = region.point_at(*region.sample(rng))
            if mode == "passive-orientation":
                orient = Orientation(0.0, float(np.arctan2(normal[1], normal[0])))
            else:
                orient = orientation_search(p, ctx.scene.bs_position,
                                            ctx.ue_grid.centers[region.covered_cells],
                                            ctx.uav_grid.centers, ctx.region_bounds(region))
            range_crb, velocity_crb = reference_sensing_crbs(ctx, p, orient, *bs_leg(ctx, p))
            want = reference_sensing_crbs_per_cell(ctx, p, orient)
            assert same_bits(range_crb, np.array([b.range_crb for b in want]))
            assert same_bits(velocity_crb, np.array([b.velocity_crb for b in want]))
            paths.append(sensing_path(ctx, 1, ctx.uav_grid.centers[n], 1.0, ris=p,
                                      cascade=1e-5 * np.exp(1j * rng.uniform(0, 2 * np.pi))))
    for path in paths:
        got = fim(ctx.ofdm, path, noise, mom)
        range_crb, velocity_crb, matrix = fim_scalar(ctx.ofdm, path.coeff, noise, mom)
        assert same_bits([got.range_crb, got.velocity_crb], [range_crb, velocity_crb])
        assert same_bits(got.fim, matrix)


def test_crb_arrays_keep_the_scalar_rounding(ctx_full):
    # |a|^2 and the direct trip's squared free-space loss round as a scalar
    # `** 2` on every value, real (sizing) or complex (closure); an array
    # square would differ in about 1 of 1,000, so 20,000 values see it
    mom = OfdmWaveform(SMALL, seed=5).moments()
    rng = np.random.default_rng(8)
    d_bu = rng.uniform(5.0, 500.0, 20_000)
    scale = np.sqrt(ctx_full.link.tx_power_w) * ctx_full.bs_amp_gain**2
    assert same_bits(round_trip_coeff(ctx_full, 1.0, d_bu),
                     np.array([scale * fspl_amplitude(float(d), ctx_full.wavelength) ** 2
                               * ctx_full.rcs_amp for d in d_bu]))
    amps = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), 20_000))
    range_crb, velocity_crb, _ = crb_arrays(SMALL, amps, 1e-19, mom)
    want = np.array([fim_scalar(SMALL, a, 1e-19, mom)[:2] for a in amps])
    assert same_bits(range_crb, want[:, 0]) and same_bits(velocity_crb, want[:, 1])
    for coeff in amps[:2000] * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000)):
        got = fim(SMALL, SensingPath(0, 0.0, 0.0, coeff, 28e9), 1e-19, mom)
        assert same_bits([got.range_crb, got.velocity_crb],
                         list(fim_scalar(SMALL, coeff, 1e-19, mom)[:2]))


def test_crb_arrays_raise_the_first_failing_cells_error():
    # a zero coefficient or a FIM that is not positive definite raises fim's
    # error for that cell, with the message of the first failing cell
    mom = OfdmWaveform(SMALL, seed=0).moments()
    skew = WaveformMoments(mom.deriv_energy, 1e6 * mom.time_cross, mom.time_energy)
    cases = ((mom, [1e-7, 2e-7, 0.0, 3e-7], 0.0),  # the zero cell is the first to fail
             (skew, [3e-7, 0.0, 1e-7], 3e-7))  # a cell without a positive-definite FIM
    messages = set()
    for moments, amps, first in cases:
        with pytest.raises(UnobservablePathError) as one:
            fim(SMALL, SensingPath(0, 0.0, 0.0, complex(first), 28e9), 1e-19, moments)
        with pytest.raises(UnobservablePathError) as cells:
            crb_arrays(SMALL, np.array(amps), 1e-19, moments)
        assert str(cells.value) == str(one.value)
        messages.add(str(one.value))
    assert messages == {"zero path coefficient", "FIM is not positive definite"}
