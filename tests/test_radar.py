import tracemalloc

import numpy as np
import pytest

from risdeploy import radar
from risdeploy.errors import (EstimationFailureError, InvalidInputError,
                              UnsupportedDelayError)
from risdeploy.radar import (associate_paths, detect_paths, ls_position, power_db,
                             range_velocity_map, synthesize_returns)
from risdeploy.sensing import OfdmParams, OfdmWaveform, SensingPath
from risdeploy.units import SPEED_OF_LIGHT, lin2db

from _oracles import (array_map, cfar_peaks, cfar_ring_means, map_noise, qpsk_grid,
                      range_velocity_field, range_velocity_power, rv_map_csv_text, same_bits,
                      synthesize_returns_full)

PARAMS = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=256, symbols=64)


def _path(range_m, velocity, coeff=1e-6 + 0j, index=0):
    delay = 2.0 * range_m / SPEED_OF_LIGHT
    doppler = 2.0 * velocity / PARAMS.wavelength
    return SensingPath(index, delay, doppler, coeff, PARAMS.carrier_hz)


def _power(rv):
    "The whole map, through its row accessor."
    return rv.rows(0, rv.range_axis.size)


def _on_grid(range_bin, velocity_bin):
    "Range/velocity values sitting exactly on map bins."
    return (range_bin * PARAMS.range_resolution,
            velocity_bin * PARAMS.velocity_resolution)


def test_synthesized_frame_shape_and_delay_validation():
    wave = OfdmWaveform(PARAMS, seed=0)
    echo = synthesize_returns(wave, [_path(10.0, 3.0), _path(20.0, -1.0)])
    assert echo.u.shape == (256, 2) and echo.v.shape == (2, 64) and echo.noise_std == 0.0
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
    power = _power(rv).astype(float)
    i, j = np.unravel_index(np.argmax(power), power.shape)
    assert rv.range_axis[i] == pytest.approx(r)
    assert rv.velocity_axis[j] == pytest.approx(v)
    # an on-grid path is perfectly concentrated: the peak holds all the power
    assert power[i, j] / power.sum() > 0.999999


def test_peak_power_matches_coherent_processing_gain():
    # on-grid single path: peak amplitude is coeff * Nc * M after the 2-D FFTs
    wave = OfdmWaveform(PARAMS, seed=0)
    coeff = 3e-6 * np.exp(1j * 1.1)
    r, v = _on_grid(12, -7)
    y = synthesize_returns(wave, [_path(r, v, coeff)])
    rv = range_velocity_map(y, wave)
    peak_db = lin2db(float(_power(rv).max()))
    expected_db = 20 * np.log10(abs(coeff) * 256 / 256 * 64)  # ifft carries 1/Nc
    assert peak_db == pytest.approx(expected_db, abs=1e-6)


def test_map_input_validation():
    wave = OfdmWaveform(PARAMS, seed=0)
    echo = synthesize_returns(OfdmWaveform(ODD, seed=0), [_path(10.0, 0.0)])
    with pytest.raises(InvalidInputError):
        range_velocity_map(echo, wave)


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
# row blocks of the map the oracle reads whole, then of the map the CFAR reads
# block by block: the module's own, and two small ones
BLOCKS = pytest.mark.parametrize("map_rows, cfar_rows", [(radar.ROW_BLOCK, radar.ROW_BLOCK),
                                                         (16, 8)], ids=["default-blocks", "16-8"])


def _odd_paths():
    "Three paths inside the 100-sample symbol: on and off the bin grid."
    return [SensingPath(i, delay, doppler, coeff, ODD.carrier_hz) for i, (delay, doppler, coeff)
            in enumerate([(12e-9, 1.1e4, 2e-6 * np.exp(0.4j)), (40.5e-9, -3.3e4, 1e-6 + 5e-7j),
                          (77e-9, 0.0, -8e-7j)])]


def _rv_map(wave, paths, map_rows, monkeypatch, noise_psd=1e-19, seed=9):
    "The map of `paths` formed in blocks of `map_rows` rows."
    monkeypatch.setattr(radar, "ROW_BLOCK", map_rows)
    return range_velocity_map(synthesize_returns(wave, paths, noise_psd=noise_psd, seed=seed),
                              wave)


def test_map_does_not_depend_on_the_row_block(monkeypatch):
    # the path terms and the noise draw of each cell are the same in any row
    # block: one row, a size that divides neither frame, and the whole frame
    for params, paths in ((ODD, _odd_paths()), (PARAMS, [_path(*_on_grid(20, 5))])):
        wave = OfdmWaveform(params, seed=4)
        maps = [_power(_rv_map(wave, paths, rows, monkeypatch))
                for rows in (radar.ROW_BLOCK, 1, 7, params.subcarriers)]
        assert maps[0].dtype == np.float32
        assert all(same_bits(m, maps[0]) for m in maps[1:])


@pytest.mark.parametrize("rows", [32, 7, 1])
def test_block_formed_again_is_its_first_formation(rows, monkeypatch):
    # the pass keeps the noise generator's state at each block's start, and a
    # block formed again from it draws the same noise: the first block, one in
    # the middle and the last, whose row below wraps to row 0, in any order
    first = []
    former = radar._block_former

    def recording(echo, block_rows):
        form = former(echo, block_rows)

        def record(r0, rng):
            block = form(r0, rng)
            first.append(block.copy())
            return block
        return record

    monkeypatch.setattr(radar, "_block_former", recording)
    rv = _rv_map(OfdmWaveform(ODD, seed=4), _odd_paths(), rows, monkeypatch)
    n_blocks = -(-ODD.subcarriers // rows)
    assert len(first) == n_blocks and first[0].dtype == np.float32
    for b in (n_blocks - 1, 0, n_blocks // 2, n_blocks - 1):
        assert same_bits(rv.block(b), first[b]), b
    assert len(first) == n_blocks + 4
    # wrapped rows read across blocks, above row 0 and below the last row
    power = np.concatenate(first[:n_blocks])
    assert same_bits(rv.rows(-3, ODD.subcarriers + 3), np.take(
        power, np.arange(-3, ODD.subcarriers + 3), axis=0, mode="wrap"))


# the largest error of the noise-free map, as a share of its peak, against the
# float64 frame pipeline: 2.2e-8 and 2.7e-8 measured on these frames, 1.9e-8
# on three paths at 2560 x 2048
MAP_ERROR = 5e-8


@pytest.mark.parametrize("params, paths", [
    (ODD, _odd_paths()), (PARAMS, [_path(*_on_grid(20, 5)), _path(3.3, -2.4, 5e-7j)])],
    ids=["100x37", "256x64"])
def test_noise_free_map_matches_the_frame_oracle(params, paths):
    # the whole frame with its QPSK symbols, equalised and transformed, in float64
    wave = OfdmWaveform(params, seed=4)
    rv = range_velocity_map(synthesize_returns(wave, paths), wave)
    reference = range_velocity_power(
        synthesize_returns_full(wave, paths, wave_seed=4), qpsk_grid(wave, 4))
    error = np.max(np.abs(_power(rv) - reference)) / np.max(reference)
    assert error <= MAP_ERROR, error


def test_noise_only_map_matches_the_frame_oracle_distribution():
    # each cell of a noise-only map is |z|^2 of circular Gaussian z with
    # sigma sqrt(M / Nc) per part: mean 2 sigma^2 M / Nc and variance its
    # square, the moments of the frame pipeline's noise-only map
    wave = OfdmWaveform(PARAMS, seed=4)
    silent = [_path(10.0, 0.0, coeff=0j)]
    noise_psd = 1e-19
    mean = noise_psd * PARAMS.bandwidth_hz * PARAMS.symbols / PARAMS.subcarriers
    ours = np.concatenate([
        _power(range_velocity_map(synthesize_returns(wave, silent, noise_psd=noise_psd,
                                                     seed=seed), wave)).ravel()
        for seed in range(8)]).astype(float)
    frames = np.concatenate([
        range_velocity_power(synthesize_returns_full(wave, silent, noise_psd=noise_psd,
                                                     seed=seed, wave_seed=4),
                             qpsk_grid(wave, 4)).ravel() for seed in range(8)])
    # 131,072 cells: the mean's standard error is 0.3 %, the variance's 0.8 %
    for power in (ours, frames):
        assert power.mean() == pytest.approx(mean, rel=0.015)
        assert power.var() == pytest.approx(mean**2, rel=0.04)
    assert ours.var() == pytest.approx(frames.var(), rel=0.05)
    # the exponential tail: P(|z|^2 > x mean) = exp(-x)
    assert np.mean(ours > 3.0 * mean) == pytest.approx(np.exp(-3.0), rel=0.05)


def _strongest_first(power, peaks):
    "The reference peaks by descending power, ties in row-major order."
    return peaks[np.argsort(-power[tuple(peaks.T)], kind="stable")]


def _declared(report):
    return [(d.range_est, d.velocity_est, d.power_db) for d in report.detections]


def _cells(rv, power, cells):
    map_db = power_db(power)
    return [(rv.range_axis[i], rv.velocity_axis[j], map_db[i, j]) for i, j in cells]


# a frame smaller than the 21-cell outer window of the default CFAR
TINY = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=7, symbols=9)


@pytest.mark.parametrize("guard, training", [(2, 8), (1, 1), (0, 3)],
                         ids=["guard2-train8", "guard1-train1", "guard0-train3"])
@BLOCKS
@pytest.mark.parametrize("params, paths", [
    (ODD, _odd_paths()), (TINY, [SensingPath(0, 2e-9, 1.5e4, 1e-6 + 0j, TINY.carrier_hz)])],
    ids=["100x37", "7x9"])
def test_cfar_matches_whole_map_reference(params, paths, map_rows, cfar_rows, guard, training,
                                          monkeypatch):
    # the scipy oracle reads the whole map, formed through the row accessor
    wave = OfdmWaveform(params, seed=4)
    power = _power(_rv_map(wave, paths, map_rows, monkeypatch))
    # every early stop and the shortfall, from the default candidate slice,
    # from a slice of five that runs out, so every block is judged, and with
    # no rows held for the candidates, so every block is judged in row order
    for candidates, held in ((radar.CANDIDATES, radar.HELD), (5, radar.HELD),
                             (radar.CANDIDATES, 0)):
        monkeypatch.setattr(radar, "CANDIDATES", candidates)
        monkeypatch.setattr(radar, "HELD", held)
        rv = _rv_map(wave, paths, cfar_rows, monkeypatch)
        for threshold_db in (12.0, 3.0):  # 3 dB also declares noise peaks
            peaks = _strongest_first(power, cfar_peaks(power, threshold_db, guard, training))
            for expected in range(1, len(peaks) + 2):
                report = detect_paths(rv, expected=expected, threshold_db=threshold_db,
                                      guard=guard, training=training)
                assert _declared(report) == _cells(rv, power, peaks[:expected])
                assert (report.warning is None) == (expected <= len(peaks))
                work = report.cfar
                assert 1 <= work.blocks_judged <= work.blocks == -(-params.subcarriers // cfar_rows)
                # each block a judged block reads is formed again once
                assert work.blocks_judged <= work.reformed <= work.blocks
                assert held or work.blocks_judged == work.blocks
    assert len(peaks) > len(paths)


def test_cfar_judges_only_the_blocks_its_detections_need(monkeypatch):
    # a seeded noise floor with nine peaks: six of equal power in rows 0-63
    # (row 0 among them), a weaker hit at row 100, beyond the 64 rows those
    # six need, a weaker one on the last row (its window wraps to row 0) and
    # one too weak to declare
    monkeypatch.setattr(radar, "ROW_BLOCK", 32)
    power = np.random.default_rng(5).exponential(size=(150, 48)).astype(np.float32)
    cells = [(0, 7), (5, 40), (20, 25), (33, 11), (40, 30), (63, 2), (100, 3), (149, 20),
             (70, 44)]
    for (i, j), level in zip(cells, (1e4,) * 6 + (1e3, 3e2, 5.0)):
        power[i, j] = level
    peaks = _strongest_first(power, cfar_peaks(power, 12.0))
    assert peaks.tolist() == [list(c) for c in cells[:8]]  # ties in row-major order
    work = []
    for candidates in (radar.CANDIDATES, 2):
        monkeypatch.setattr(radar, "CANDIDATES", candidates)
        rv = array_map(power, np.arange(150) * 0.5, np.arange(-24, 24) * 0.25, (0.5, 0.25))
        for expected in range(1, 10):
            report = detect_paths(rv, expected=expected)
            assert _declared(report) == _cells(rv, power, peaks[:expected])
            work.append(report.cfar)
    # judging a block forms it again with its wrapped neighbours (block 0
    # reads block 4), and a block formed once in a call is not formed again
    assert [(w.judged, w.blocks_judged, w.reformed) for w in work[:9]] == [
        (1, 1, 3), (2, 1, 3), (3, 1, 3), (4, 2, 4), (5, 2, 4), (6, 2, 4), (7, 3, 5), (8, 4, 5),
        (work[0].local_maxima, 5, 5)]
    # a slice of two holds every cell as strong as the second: each of the
    # first two blocks keeps its three tied peaks, and the map all six. It
    # runs out at the seventh detection, and every block is judged
    assert [tuple(divmod(c, 48)) for c in rv.cells.tolist()] == cells[:6]
    assert [(w.blocks_judged, w.reformed) for w in work[9:]] == (
        [(1, 3)] * 3 + [(2, 4)] * 3 + [(5, 5)] * 3)


@pytest.mark.parametrize("rows", [1, 3, 32])
def test_ring_means_match_a_brute_force_ring(rows):
    # every row block of the map, the first and the last among them, against
    # each cell's ring gathered on its own: random maps, and maps smaller than
    # the 21-cell outer window (7x9, and 2x1), whose boxes wrap more than once
    rng = np.random.default_rng(rows)
    for shape, outer, inner in [((40, 6), 21, 5), ((100, 37), 21, 5), ((7, 9), 21, 5),
                                ((7, 9), 3, 1), ((2, 1), 21, 5)]:
        power = rng.exponential(size=shape).astype(np.float32)
        whole = cfar_ring_means(power, outer, inner)
        for r0 in range(0, shape[0], rows):
            r1 = min(r0 + rows, shape[0])
            slab = np.take(power, np.arange(r0 - outer // 2, r1 + outer // 2), axis=0,
                           mode="wrap")
            np.testing.assert_allclose(radar._ring_means(slab, outer, inner),
                                       whole[r0:r1], rtol=1e-12, atol=0.0)


def _noisy_frames():
    "(params, paths) of the precision tests: the odd frame, and 256x64 frames."
    yield ODD, _odd_paths()
    rng = np.random.default_rng(11)
    for _ in range(2):  # three paths on random bins, one of them off the grid
        bins = rng.integers([5, -25], [120, 25], size=(3, 2)).astype(float)
        bins[2] += 0.5
        coeffs = (2e-6, 1.2e-6, 0.8e-6) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
        yield PARAMS, [_path(*_on_grid(r, v), coeff=c, index=k)
                       for k, ((r, v), c) in enumerate(zip(bins, coeffs))]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("params, paths", list(_noisy_frames()), ids=["100x37", "256x64-a", "256x64-b"])
def test_single_precision_finds_the_float64_detections(params, paths, seed):
    # the float32 radar against the float64 whole-frame pipeline's noise-free
    # map plus the same map-domain noise realisation in float64: the same CFAR
    # hits, and each detection's power_db is the float64 dB of its float32
    # cell, within 1e-3 dB of the float64 map
    wave = OfdmWaveform(params, seed=seed)
    echo = synthesize_returns(wave, paths, noise_psd=1e-19, seed=seed + 10)
    rv = range_velocity_map(echo, wave)
    field = range_velocity_field(
        synthesize_returns_full(wave, paths, wave_seed=seed), qpsk_grid(wave, seed))
    reference = np.abs(field + echo.noise_std * map_noise(params, seed + 10)) ** 2
    assert reference.dtype == np.float64
    map_db = power_db(_power(rv))
    for threshold_db in (12.0, 6.0):  # 6 dB also declares noise peaks
        peaks = cfar_peaks(reference, threshold_db)
        report = detect_paths(rv, expected=len(peaks) + 1, threshold_db=threshold_db)
        bins = {(rv.range_axis[i], rv.velocity_axis[j]): (i, j) for i, j in peaks}
        assert sorted((d.range_est, d.velocity_est) for d in report.detections) == sorted(bins)
        for d in report.detections:
            cell = bins[d.range_est, d.velocity_est]
            assert np.isfinite(d.power_db) and d.power_db == map_db[cell]
            assert abs(d.power_db - lin2db(reference[cell])) <= 1e-3
    assert len(peaks) > len(paths)


FULL = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=2560, symbols=2048)
FLOAT_FRAME = 8 * FULL.subcarriers * FULL.symbols  # bytes of one float64 (or complex64) frame


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
    # the waveform keeps symbol indices; the echo is two thin factors, and the
    # map pass holds no map: its row-block buffers, the blocks it scans, its
    # velocity band and candidates; the CFAR holds the blocks it forms again
    # and its block temporaries
    wave, frames = _frames_allocated(lambda: OfdmWaveform(FULL, seed=1))
    assert frames <= 0.5, frames
    paths = [SensingPath(0, 3e-7, 1e3, 1e-6 + 0j, FULL.carrier_hz),
             SensingPath(1, 5e-7, -8e2, 5e-7j, FULL.carrier_hz)]
    echo, frames = _frames_allocated(
        lambda: synthesize_returns(wave, paths, noise_psd=1e-20, seed=2))
    assert frames <= 0.02, frames  # 0.008 measured
    # the echo and the map together, well under the float32 map's half frame
    rv, frames = _frames_allocated(lambda: range_velocity_map(
        synthesize_returns(wave, paths, noise_psd=1e-20, seed=2), wave))
    assert frames <= 0.2, frames  # 0.143 measured
    # an early stop: the two paths are the two strongest local maxima, and
    # only their blocks are judged, each formed again with its two neighbours
    report, frames = _frames_allocated(lambda: detect_paths(rv, expected=2))
    assert frames <= 0.15, frames  # 0.108 measured
    assert len(report.detections) == 2 and report.cfar.judged == 2
    assert report.cfar.blocks_judged <= 2 and report.cfar.reformed <= 6
    # a shortfall: the map holds twelve hits, so thirteen judge every block;
    # the candidates' blocks are held up to radar.HELD rows, and the row-order
    # sweep that judges the rest holds a few blocks at a time
    report, frames = _frames_allocated(lambda: detect_paths(rv, expected=13))
    assert frames <= 0.25, frames  # 0.215 measured
    assert report.warning is not None and report.cfar.blocks_judged == report.cfar.blocks
    assert report.cfar.reformed == report.cfar.blocks
    assert len(report.detections) == 12


def test_far_path_detection_judges_one_block():
    # one path at a 2.5 us delay: its block is the last but one, and its
    # thresholds come from that block's own rows, none from the blocks before it
    wave = OfdmWaveform(FULL, seed=1)
    far = [SensingPath(0, 2.5e-6, 1e3, 1e-6 + 0j, FULL.carrier_hz)]
    rv = range_velocity_map(synthesize_returns(wave, far, noise_psd=1e-20, seed=2), wave)
    report, frames = _frames_allocated(lambda: detect_paths(rv, expected=1))
    assert frames <= 0.15, frames  # 0.090 measured
    assert report.cfar.blocks_judged == 1 and report.cfar.reformed == 3


def test_radar_stage_holds_one_frame():
    # echo, map and CFAR in a row, as the pipeline's radar stage runs them:
    # no map is held, so the stage stays well under the float32 map's half
    # frame, at an early stop and at the shortfall that judges every block
    wave = OfdmWaveform(FULL, seed=1)
    paths = [SensingPath(0, 3e-7, 1e3, 1e-6 + 0j, FULL.carrier_hz),
             SensingPath(1, 5e-7, -8e2, 5e-7j, FULL.carrier_hz)]

    def stage(expected):
        y = synthesize_returns(wave, paths, noise_psd=1e-20, seed=2)
        return detect_paths(range_velocity_map(y, wave), expected=expected)

    report, frames = _frames_allocated(lambda: stage(2))
    assert frames <= 0.25, frames  # 0.192 measured
    assert len(report.detections) == 2
    report, frames = _frames_allocated(lambda: stage(13))
    assert frames <= 0.35, frames  # 0.299 measured
    assert len(report.detections) == 12 and report.cfar.reformed == report.cfar.blocks


def test_rv_map_csv_matches_csv_writer(tmp_path):
    # the CSV of the velocity band the map kept, against the whole map formed
    # again: all 37 columns of the odd map, and the central 65 of 128
    from risdeploy.cli import write_rv_map_csv

    wide = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=40, symbols=128)
    for params, paths in ((ODD, _odd_paths()),
                          (wide, [SensingPath(0, 2e-8, 1e4, 1e-6 + 0j, wide.carrier_hz)])):
        wave = OfdmWaveform(params, seed=4)
        rv = range_velocity_map(synthesize_returns(wave, paths, noise_psd=1e-19, seed=9), wave)
        power = _power(rv)
        # an empty cell prints as -3000 dB, with no warning
        mid = params.symbols // 2
        rv.band[0, mid - rv.band_columns.start] = power[0, mid] = 0.0
        for max_range in (5.0, 1e3):
            write_rv_map_csv(tmp_path / "rv.csv", rv, max_range)
            with open(tmp_path / "rv.csv", newline="") as fh:
                text = fh.read()
            assert text == rv_map_csv_text(power, rv, max_range)
        assert ",-3000.0\r\n" in text
    assert rv.band.shape == (40, 65)


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
