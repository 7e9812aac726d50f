import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from risdeploy import radar
from risdeploy.errors import (EstimationFailureError, InvalidInputError,
                              UnsupportedDelayError)
from risdeploy.radar import (associate_paths, detect_paths, ls_position,
                             range_velocity_map, synthesize_returns)
from risdeploy.sensing import OfdmParams, OfdmWaveform, SensingPath
from risdeploy.units import SPEED_OF_LIGHT

from _oracles import (cfar_peaks, qpsk_grid, range_velocity_power_db, rv_map_csv_text,
                      same_bits, synthesize_returns_full)

PARAMS = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=256, symbols=64)


def _path(range_m, velocity, coeff=1e-6 + 0j, index=0):
    delay = 2.0 * range_m / SPEED_OF_LIGHT
    doppler = 2.0 * velocity / PARAMS.wavelength
    return SensingPath(index, delay, doppler, coeff, PARAMS.carrier_hz)


def _on_grid(range_bin, velocity_bin):
    "Range/velocity values sitting exactly on map bins."
    return (range_bin * PARAMS.range_resolution,
            velocity_bin * PARAMS.velocity_resolution)


def test_synthesized_frame_shape_and_delay_validation():
    wave = OfdmWaveform(PARAMS, seed=0)
    y = synthesize_returns(wave, [_path(10.0, 3.0)])
    assert y.shape == (256, 64)
    too_far = _path(0.6 * SPEED_OF_LIGHT * PARAMS.symbol_duration, 0.0)
    with pytest.raises(UnsupportedDelayError):
        synthesize_returns(wave, [too_far])
    with pytest.raises(InvalidInputError):
        synthesize_returns(wave, [])


def test_single_path_peaks_at_true_bin():
    wave = OfdmWaveform(PARAMS, seed=0)
    r, v = _on_grid(20, 5)
    y = synthesize_returns(wave, [_path(r, v)])
    rv = range_velocity_map(y, wave)
    i, j = np.unravel_index(np.argmax(rv.power_db), rv.power_db.shape)
    assert rv.range_axis[i] == pytest.approx(r)
    assert rv.velocity_axis[j] == pytest.approx(v)
    # an on-grid path is perfectly concentrated: the peak holds all the power
    power = 10 ** (rv.power_db / 10)
    assert power[i, j] / power.sum() > 0.999999


def test_peak_power_matches_coherent_processing_gain():
    # on-grid single path: peak amplitude is coeff * Nc * M after the 2-D FFTs
    wave = OfdmWaveform(PARAMS, seed=0)
    coeff = 3e-6 * np.exp(1j * 1.1)
    r, v = _on_grid(12, -7)
    y = synthesize_returns(wave, [_path(r, v, coeff)])
    rv = range_velocity_map(y, wave)
    peak_db = rv.power_db.max()
    expected_db = 20 * np.log10(abs(coeff) * 256 / 256 * 64)  # ifft carries 1/Nc
    assert peak_db == pytest.approx(expected_db, abs=1e-6)


def test_map_input_validation():
    wave = OfdmWaveform(PARAMS, seed=0)
    y = synthesize_returns(wave, [_path(10.0, 0.0)])
    with pytest.raises(InvalidInputError):
        range_velocity_map(y[:, :10], wave)


def test_cfar_finds_three_paths_within_one_bin():
    wave = OfdmWaveform(PARAMS, seed=0)
    truths = [_on_grid(20, 5), _on_grid(60, -10), _on_grid(110, 14)]
    paths = [_path(r, v, coeff=c)
             for (r, v), c in zip(truths, (2e-6, 1.2e-6, 0.8e-6))]
    y = synthesize_returns(wave, paths, noise_psd=1e-19, seed=7)
    rv = range_velocity_map(y, wave)
    report = detect_paths(rv, expected=3, threshold_db=12.0)
    assert report.warning is None
    assert len(report.detections) == 3
    got = sorted(d.range_est for d in report.detections)
    for est, (r, _) in zip(got, truths):
        assert abs(est - r) <= rv.resolution[0] + 1e-9
    for d in report.detections:
        truth_v = {round(r, 6): v for r, v in truths}[round(d.range_est, 6)]
        assert abs(d.velocity_est - truth_v) <= rv.resolution[1] + 1e-9


def test_detect_paths_shortfall_warning():
    wave = OfdmWaveform(PARAMS, seed=0)
    r, v = _on_grid(30, 2)
    y = synthesize_returns(wave, [_path(r, v)], noise_psd=1e-19, seed=3)
    rv = range_velocity_map(y, wave)
    report = detect_paths(rv, expected=3)
    assert report.warning is not None
    assert 1 <= len(report.detections) < 3
    with pytest.raises(InvalidInputError):
        detect_paths(rv, expected=0)


def test_associate_paths():
    wave = OfdmWaveform(PARAMS, seed=0)
    truths = [_on_grid(20, 5), _on_grid(60, -10)]
    y = synthesize_returns(wave, [_path(r, v) for r, v in truths], noise_psd=1e-19)
    rv = range_velocity_map(y, wave)
    dets = detect_paths(rv, expected=2).detections
    tagged = associate_paths(dets, [20 * rv.resolution[0], 60 * rv.resolution[0]])
    by_range = sorted(tagged, key=lambda d: d.range_est)
    assert [d.path_index_hypothesis for d in by_range] == [0, 1]


# a frame that is no multiple of the default or the small block sizes
ODD = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=100, symbols=37)
# (rows, columns) per block: the module's own, and a small pair
BLOCKS = pytest.mark.parametrize("rows, cols", [(radar.ROW_BLOCK, radar.COLUMN_BLOCK), (16, 8)],
                                 ids=["default-blocks", "16-8"])


def _odd_paths():
    "Three paths inside the 100-sample symbol: on and off the bin grid."
    return [SensingPath(i, delay, doppler, coeff, ODD.carrier_hz) for i, (delay, doppler, coeff)
            in enumerate([(12e-9, 1.1e4, 2e-6 * np.exp(0.4j)), (40.5e-9, -3.3e4, 1e-6 + 5e-7j),
                          (77e-9, 0.0, -8e-7j)])]


@BLOCKS
def test_blocked_frame_passes_match_whole_frame_reference(rows, cols, monkeypatch):
    monkeypatch.setattr(radar, "ROW_BLOCK", rows)
    monkeypatch.setattr(radar, "COLUMN_BLOCK", cols)
    wave = OfdmWaveform(ODD, seed=4)
    for noise in (0.0, 1e-19):
        y = synthesize_returns(wave, _odd_paths(), noise_psd=noise, seed=9)
        assert same_bits(y, synthesize_returns_full(wave, _odd_paths(), noise_psd=noise,
                                                    seed=9, wave_seed=4))
        rv = range_velocity_map(y.copy(), wave)
        assert same_bits(rv.power_db, range_velocity_power_db(y, qpsk_grid(wave, 4)))


# a frame smaller than the 21-cell outer window of the default CFAR
TINY = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=7, symbols=9)


@pytest.mark.parametrize("guard, training", [(2, 8), (1, 1), (0, 3)],
                         ids=["guard2-train8", "guard1-train1", "guard0-train3"])
@BLOCKS
@pytest.mark.parametrize("params, paths", [
    (ODD, _odd_paths()), (TINY, [SensingPath(0, 2e-9, 1.5e4, 1e-6 + 0j, TINY.carrier_hz)])],
    ids=["100x37", "7x9"])
def test_cfar_matches_whole_map_reference(params, paths, rows, cols, guard, training,
                                          monkeypatch):
    monkeypatch.setattr(radar, "ROW_BLOCK", rows)
    monkeypatch.setattr(radar, "COLUMN_BLOCK", cols)
    wave = OfdmWaveform(params, seed=4)
    rv = range_velocity_map(synthesize_returns(wave, paths, noise_psd=1e-19, seed=9), wave)
    for threshold_db in (12.0, 3.0):  # 3 dB also declares noise peaks
        peaks = cfar_peaks(rv.power_db, threshold_db, guard, training)
        report = detect_paths(rv, expected=len(peaks) + 1, threshold_db=threshold_db,
                              guard=guard, training=training)
        got = sorted((d.range_est, d.velocity_est, d.power_db) for d in report.detections)
        assert got == sorted((rv.range_axis[i], rv.velocity_axis[j], rv.power_db[i, j])
                             for i, j in peaks)
    assert len(peaks) > len(paths)


@pytest.mark.parametrize("size", [3, 5, 21])
@pytest.mark.parametrize("length", [1, 2, 4, 20, 21, 22, 100])
def test_running_mean_matches_uniform_filter1d(size, length):
    lines = 10.0 ** np.random.default_rng(length).normal(scale=3.0, size=(3, length))
    assert same_bits(radar._running_mean(lines, size),
                     ndimage.uniform_filter1d(lines, size, mode="wrap"))


FULL = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=2560, symbols=2048)
FLOAT_FRAME = 8 * FULL.subcarriers * FULL.symbols  # bytes of one float64 frame


def _frames_allocated(fn):
    "fn's result and the peak of the memory it allocates, in float64 frames of FULL."
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - start) / FLOAT_FRAME
    finally:
        tracemalloc.stop()


def test_radar_passes_stay_within_their_memory_bounds():
    # the waveform keeps symbol indices, the delay profile takes the echo's
    # buffer and the CFAR holds two box-mean frames besides its block temporaries
    wave, frames = _frames_allocated(lambda: OfdmWaveform(FULL, seed=1))
    assert frames <= 0.5, frames
    paths = [SensingPath(0, 3e-7, 1e3, 1e-6 + 0j, FULL.carrier_hz),
             SensingPath(1, 5e-7, -8e2, 5e-7j, FULL.carrier_hz)]
    y = synthesize_returns(wave, paths, noise_psd=1e-20, seed=2)
    rv, frames = _frames_allocated(lambda: range_velocity_map(y, wave))
    assert frames <= 2.0, frames
    del y
    report, frames = _frames_allocated(lambda: detect_paths(rv, expected=2))
    assert frames <= 2.6, frames
    assert len(report.detections) == 2


def test_rv_map_csv_matches_csv_writer(tmp_path):
    from risdeploy.cli import write_rv_map_csv

    wave = OfdmWaveform(ODD, seed=4)
    y = synthesize_returns(wave, _odd_paths(), noise_psd=1e-19, seed=9)
    rv = range_velocity_map(y, wave)
    rv.power_db[0, 18] = -np.inf  # an empty cell prints as -inf
    for max_range, window in ((5.0, 32), (1e3, 4)):
        write_rv_map_csv(tmp_path / "rv.csv", rv, max_range, window)
        with open(tmp_path / "rv.csv", newline="") as fh:
            assert fh.read() == rv_map_csv_text(rv, max_range, window)


def _geometry():
    bs = np.array([0.0, 0.0, 20.0])
    ris = np.array([[60.0, 40.0, 15.0], [-30.0, 70.0, 12.0]])
    target = np.array([25.0, 35.0, 50.0])
    ranges = [np.linalg.norm(target - bs)]
    for r in ris:
        ranges.append(0.5 * (np.linalg.norm(bs - r) + np.linalg.norm(target - r)
                             + np.linalg.norm(target - bs)))
    return bs, ris, target, np.array(ranges)


def test_ls_position_exact_ranges():
    bs, ris, target, ranges = _geometry()
    pos, res = ls_position(bs, ris, ranges, uav_height=50.0)
    np.testing.assert_allclose(pos, target, atol=1e-6)
    assert res < 1e-6


def test_ls_position_noisy_ranges():
    bs, ris, target, ranges = _geometry()
    rng = np.random.default_rng(1)
    errs = []
    for _ in range(20):
        noisy = ranges + rng.normal(scale=0.05, size=ranges.shape)
        pos, _ = ls_position(bs, ris, noisy, uav_height=50.0)
        errs.append(np.linalg.norm(pos[:2] - target[:2]))
    assert np.median(errs) < 0.5


def test_ls_position_validation_and_failure():
    bs, ris, target, ranges = _geometry()
    with pytest.raises(InvalidInputError):
        ls_position(bs, ris, ranges[:2], uav_height=50.0)
    with pytest.raises(InvalidInputError):
        ls_position(bs, np.empty((0, 3)), ranges[:1], uav_height=50.0)
    with pytest.raises(InvalidInputError):
        ls_position(bs, ris, -ranges, uav_height=50.0)
    # wildly inconsistent ranges cannot be reconciled
    bad = ranges.copy()
    bad[1] += 500.0
    with pytest.raises(EstimationFailureError):
        ls_position(bs, ris, bad, uav_height=50.0)


def test_ls_position_init_hint():
    bs, ris, target, ranges = _geometry()
    pos, _ = ls_position(bs, ris, ranges, uav_height=50.0, init=target + 1.0)
    np.testing.assert_allclose(pos, target, atol=1e-6)
