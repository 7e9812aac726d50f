"""Mono-static OFDM radar pipeline.

Synthesizes echo frames over the subcarrier/symbol grid, forms the
range-velocity map by symbol-wise equalization and 2-D FFT processing,
detects peaks with a cell-averaging CFAR, and recovers the target position
from per-path ranges by Gauss-Newton least squares at a known flight height.

The frame passes run in single precision: the echo frame is complex64 and
the map holds float32 linear power. Sums that set a value (the echo of each
row block, the noise, the CFAR's running means) are formed in float64 and
rounded once; dB is formed in float64 only for the values written out. The
echo synthesis and the Doppler pass allocate their block buffers once per
call and write every block into them, and the range IFFT runs in place in its
equalised block: glibc may map a block temporary of 128 KB or more afresh,
and fault its pages in again, each time one is allocated. The CFAR judges the
map's local maxima strongest first and forms thresholds only on the row
blocks they lie in, each bit for bit the whole-map pass's.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailureError, InvalidInputError, UnsupportedDelayError
from .sensing import _QPSK, OfdmWaveform
from .units import db2lin, lin2db

# Block sizes of the frame passes; each block temporary holds a few MB, not a frame.
ROW_BLOCK = 32  # rows per block: echo synthesis, noise, Doppler FFT, CFAR passes
COLUMN_BLOCK = 32  # columns per block: equalisation, range IFFT
# the strongest local maxima the CFAR judges one row block at a time before it
# judges every block
CANDIDATES = 1024

# conj(S) for the QPSK symbol index k: equalises a received symbol by its phasor
_EQUALISER = np.conj(_QPSK).astype(np.complex64)


@dataclass(frozen=True)
class RangeVelocityMap:
    power: np.ndarray  # (Nc, M) float32 |rv|^2, linear
    range_axis: np.ndarray  # (Nc,) meters
    velocity_axis: np.ndarray  # (M,) m/s
    resolution: tuple  # (range m, velocity m/s)


@dataclass(frozen=True)
class PathDetection:
    range_est: float
    velocity_est: float
    power_db: float
    path_index_hypothesis: int = -1


@dataclass(frozen=True)
class CfarWork:
    "How much of the map one CFAR call judged."
    judged: int  # local maxima judged, strongest first (all of them after a shortfall)
    local_maxima: int
    blocks_judged: int  # row blocks whose thresholds were formed
    blocks: int
    prefix_rows: int  # rows the range pass formed, from row 0
    rows: int


@dataclass(frozen=True)
class DetectionReport:
    detections: list
    cfar: CfarWork
    warning: str | None = None


def synthesize_returns(waveform: OfdmWaveform, paths: list, noise_psd: float = 0.0,
                       seed: int = 1) -> np.ndarray:
    """Received frequency-domain frame Y of shape (Nc, M), complex64.

    Y[p, m] = sum_n a_n exp(-j 2 pi f_p tau_n) exp(j 2 pi fD_n m T_sym) S[p, m]
    plus (optionally) white noise of power noise_psd * B per resource element.
    Each row block is summed in complex128 and rounded once; each noise sample
    is drawn in float64 and rounded as it is added.
    """
    params = waveform.params
    if not paths:
        raise InvalidInputError("at least one sensing path is required")
    tsym = params.symbol_duration
    for path in paths:
        if path.delay < 0 or path.delay >= tsym:
            raise UnsupportedDelayError(
                f"path delay {path.delay:.3e} s outside [0, T_sym={tsym:.3e})")
    nc, nm = params.subcarriers, params.symbols
    m_idx = np.arange(nm)
    phases = [(path.coeff, np.exp(-1j * 2.0 * np.pi * waveform.freqs * path.delay),
               np.exp(1j * 2.0 * np.pi * path.doppler * m_idx * tsym)) for path in paths]
    y = np.empty((nc, nm), dtype=np.complex64)
    buffers = np.empty((3, min(ROW_BLOCK, nc), nm), dtype=complex)
    for r0 in range(0, nc, ROW_BLOCK):
        rows = slice(r0, r0 + ROW_BLOCK)
        block, term, symbols = buffers[:, :y[rows].shape[0]]
        block.fill(0.0)
        for coeff, delay_phase, doppler_phase in phases:
            np.outer(delay_phase[rows], doppler_phase, out=term)
            # coeff first, as in coeff * outer: the SIMD complex product does not
            # round the same with its operands swapped
            np.multiply(coeff, term, out=term)
            block += term
        block *= waveform.symbols(rows=rows, out=symbols)
        y[rows] = block
    if noise_psd > 0.0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(noise_psd * params.bandwidth_hz / 2.0)
        draw = np.empty(buffers.shape[1:])  # float64 noise of one row block
        # every real part first, then every imaginary part: the same generator
        # stream as one whole-frame draw for each
        for part in (y.real, y.imag):
            for r0 in range(0, nc, ROW_BLOCK):
                block = part[r0:r0 + ROW_BLOCK]
                noise = rng.standard_normal(out=draw[:block.shape[0]])
                noise *= sigma
                block += noise
    return y


def range_velocity_map(received: np.ndarray, waveform: OfdmWaveform) -> RangeVelocityMap:
    """Equalize by the known symbols, IFFT over subcarriers, FFT over symbols.

    Runs in single precision (NumPy's FFT keeps complex64 input in complex64)
    and maps float32 linear power |rv|^2. The delay profile is formed in the
    buffer of `received`, which is overwritten when it is a complex64 array.
    """
    ofdm = waveform.params
    received = np.asarray(received, dtype=np.complex64)
    nc, nm = ofdm.subcarriers, ofdm.symbols
    if received.shape != (nc, nm):
        raise InvalidInputError(f"frames must have shape ({nc}, {nm})")
    profile = received  # delay peaks at bin tau * B
    for c0 in range(0, nm, COLUMN_BLOCK):
        cols = slice(c0, c0 + COLUMN_BLOCK)
        equalised = received[:, cols] * _EQUALISER.take(waveform.index[:, cols])
        profile[:, cols] = np.fft.ifft(equalised, axis=0, out=equalised)
    power = np.empty((nc, nm), dtype=np.float32)
    # the Doppler pass's block buffers, one set per pass
    spectrum = np.empty((min(ROW_BLOCK, nc), nm), dtype=np.complex64)
    magnitude = np.empty(spectrum.shape, dtype=np.float32)
    shift = nm // 2  # fftshift: bin k of the FFT is column (k + shift) % nm of the map
    for r0 in range(0, nc, ROW_BLOCK):
        rows = slice(r0, r0 + ROW_BLOCK)
        n = power[rows].shape[0]
        rv = np.fft.fft(profile[rows], axis=1, out=spectrum[:n])
        rv_abs = np.abs(rv, out=magnitude[:n])
        np.square(rv_abs[:, nm - shift:], out=power[rows, :shift])
        np.square(rv_abs[:, :nm - shift], out=power[rows, shift:])
    range_axis = np.arange(nc) * ofdm.range_resolution
    velocity_axis = (np.arange(nm) - nm // 2) * ofdm.velocity_resolution
    return RangeVelocityMap(power=power, range_axis=range_axis,
                            velocity_axis=velocity_axis,
                            resolution=(ofdm.range_resolution, ofdm.velocity_resolution))


def power_db(power) -> np.ndarray:
    "Map power in float64 dB; an empty cell reads -3000 dB (a 1e-300 floor), not -inf."
    return lin2db(np.maximum(np.asarray(power, dtype=float), 1e-300))


def _running_sums(lines: np.ndarray, size: int, start: int, stop: int, carry) -> np.ndarray:
    """Sums start..stop-1 of `_running_mean` along axis 0, before it divides.

    Each sum continues the one before it: `carry` (the sum at start - 1, None
    at start 0, where the first window is summed in order) plus the sample
    entering minus the one leaving. So the sums of a line formed a piece at a
    time are bit for bit the sums formed at once.
    """
    ahead = size // 2
    k = np.arange(start + size - 1 if start else 0, stop + size - 1)  # extended-line steps
    ext = np.take(lines, k - ahead, axis=0, mode="wrap").astype(float, copy=False)
    leaving = max(0, size - int(k[0]))  # the first step that drops a sample
    ext[leaving:] -= np.take(lines, k[leaving:] - size - ahead, axis=0, mode="wrap")
    if start:
        ext[0] += carry
    np.cumsum(ext, axis=0, out=ext)
    return ext[k.size - (stop - start):]


def _running_mean(lines: np.ndarray, size: int) -> np.ndarray:
    """Mean of `size` consecutive samples along the last axis, centered, with
    wrap-around ends.

    Bit for bit `scipy.ndimage.uniform_filter1d(lines, size, mode="wrap")`: the
    first window is summed in order, then each step adds `new - old`, and every
    running sum is divided by `size`.
    """
    sums = _running_sums(np.swapaxes(lines, 0, -1), size, 0, lines.shape[-1], None)
    sums /= size
    return np.swapaxes(sums, 0, -1)


class _RangeMeans:
    """The CFAR's range pass: the running means over ranges of every column,
    taken in float64 and rounded to float32, formed row block by row block
    from row 0 as far as a judged block needs, and kept until its velocity pass
    takes them."""

    def __init__(self, power: np.ndarray, sizes: tuple):
        self.power, self.sizes = power, sizes
        self.carry = [None] * len(sizes)  # each window's last running sum
        self.rows = 0  # rows formed so far
        self.kept = {}  # row block -> one float32 mean block per window

    def take(self, block: int) -> list:
        "Row block `block`'s range means, one per window size, extending the prefix to it."
        while block not in self.kept:
            r0 = self.rows
            r1 = min(r0 + ROW_BLOCK, self.power.shape[0])
            means = []
            for n, size in enumerate(self.sizes):
                sums = _running_sums(self.power, size, r0, r1, self.carry[n])
                self.carry[n] = sums[-1].copy()
                sums /= size
                means.append(sums.astype(np.float32))
            self.kept[r0 // ROW_BLOCK] = means
            self.rows = r1
        return self.kept.pop(block)


def _local_maxima(power: np.ndarray) -> np.ndarray:
    "Flat indices, in row-major order, of the cells that are 3x3 wrap-around local maxima."
    n_rows, n_cols = power.shape
    cells = []
    for r0 in range(0, n_rows, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n_rows)
        # the block's power with one wrapped row above and below it
        block = np.take(power, np.arange(r0 - 1, r1 + 1), axis=0, mode="wrap")
        across = np.maximum(block, np.roll(block, 1, axis=1))
        np.maximum(across, np.roll(block, -1, axis=1), out=across)
        local_max = np.maximum(across[:-2], across[1:-1])
        np.maximum(local_max, across[2:], out=local_max)
        cells.append(np.flatnonzero(block[1:-1] >= local_max) + r0 * n_cols)
    return np.concatenate(cells)


def detect_paths(rv: RangeVelocityMap, expected: int, threshold_db: float = 12.0,
                 guard: int = 2, training: int = 8) -> DetectionReport:
    """Cell-averaging CFAR with a square training ring and peak grouping.

    A cell is declared when its power exceeds the training-ring mean by
    threshold_db and it is a local maximum in its 3x3 neighborhood (both with
    wrap-around edges). Returns the `expected` strongest detections, ties in
    row-major order; a shortfall is flagged as a warning, not an error.
    Estimates stay on the bin grid (no super-resolution).

    Only a local maximum can be declared, so the local maxima of the whole map
    are judged strongest first, from the `CANDIDATES` strongest, until
    `expected` are declared. A judged cell's row block gets its thresholds:
    the ring mean is the difference of two box means, each a running mean over
    ranges and then over velocities (the arithmetic of
    `scipy.ndimage.uniform_filter` on the float32 map). The range pass stores
    float32 and is formed from row 0 only as far as the judged blocks reach;
    the velocity pass and the threshold run on the judged row blocks; each
    running mean is taken in float64. When those candidates hold fewer than
    `expected` detections, every row block is judged. Linear power is compared
    throughout, and dB is formed only for the detections.
    """
    if expected < 1:
        raise InvalidInputError("expected must be >= 1")
    outer = 2 * (guard + training) + 1
    inner = 2 * guard + 1
    power = rv.power
    n_rows, n_cols = power.shape
    scale = db2lin(threshold_db)
    cells = _local_maxima(power)
    values = power.take(cells)
    block_cells = ROW_BLOCK * n_cols
    n_blocks = -(-n_rows // ROW_BLOCK)
    # row block b's local maxima are cells[bounds[b]:bounds[b + 1]]
    bounds = np.searchsorted(cells, np.arange(n_blocks + 1) * block_cells)
    hit = np.zeros(cells.size, dtype=bool)
    judged = np.zeros(n_blocks, dtype=bool)
    range_means = _RangeMeans(power, (outer, inner))

    def judge(b):
        "Threshold row block b and decide its local maxima."
        outer_mean, inner_mean = range_means.take(b)
        noise = _running_mean(outer_mean.astype(float), outer)
        noise *= outer**2
        inner_sum = _running_mean(inner_mean.astype(float), inner)
        inner_sum *= inner**2
        noise -= inner_sum
        noise /= outer**2 - inner**2
        np.maximum(noise, 0.0, out=noise)
        noise *= scale
        mine = slice(bounds[b], bounds[b + 1])
        i, j = np.divmod(cells[mine] - b * block_cells, n_cols)
        hit[mine] = values[mine] > noise[i, j]
        judged[b] = True

    # the strongest candidates in descending power, ties in row-major order
    top = np.arange(cells.size)
    if cells.size > CANDIDATES:  # every cell as strong as the CANDIDATES-th
        top = np.flatnonzero(values >= np.partition(values, -CANDIDATES)[-CANDIDATES])
    order = top[np.argsort(-values[top], kind="stable")]
    block_of = cells[order] // block_cells
    stop = 0  # the candidates before it in `order` are decided
    while True:
        waiting = np.flatnonzero(~judged[block_of[stop:]])
        stop = stop + int(waiting[0]) if waiting.size else order.size
        found = np.flatnonzero(hit[order[:stop]])  # the declared cells' places in `order`
        if found.size >= expected or stop == order.size:
            break
        judge(block_of[stop])
    declared = order[found[:expected]]
    judged_cells = int(found[expected - 1]) + 1 if found.size >= expected else cells.size
    if found.size < expected and order.size < cells.size:
        for b in np.flatnonzero(~judged):  # the candidates ran out: judge every block
            judge(b)
        declared = np.flatnonzero(hit)
        declared = declared[np.argsort(-values[declared], kind="stable")][:expected]
    i, j = np.divmod(cells[declared], n_cols)
    detections = [
        PathDetection(range_est=r, velocity_est=v, power_db=p)
        for r, v, p in zip(rv.range_axis[i].tolist(), rv.velocity_axis[j].tolist(),
                           power_db(values[declared]).tolist())
    ]
    warning = None
    if len(detections) < expected:
        warning = f"partial detection: {len(detections)} of {expected} paths found"
    work = CfarWork(judged=judged_cells, local_maxima=cells.size,
                    blocks_judged=int(judged.sum()), blocks=n_blocks,
                    prefix_rows=range_means.rows, rows=n_rows)
    return DetectionReport(detections=detections, warning=warning, cfar=work)


def associate_paths(detections: list, expected_ranges) -> list:
    "Tag each detection with the index of the nearest expected per-path range."
    expected_ranges = np.asarray(expected_ranges, dtype=float)
    out = []
    for det in detections:
        idx = int(np.argmin(np.abs(expected_ranges - det.range_est)))
        out.append(PathDetection(range_est=det.range_est, velocity_est=det.velocity_est,
                                 power_db=det.power_db, path_index_hypothesis=idx))
    return out


def _residuals(xy: np.ndarray, bs: np.ndarray, ris: np.ndarray, ranges: np.ndarray,
               height: float):
    p = np.array([xy[0], xy[1], height])
    d_bs = max(np.linalg.norm(p - bs), 1e-12)
    u_bs = (p - bs)[:2] / d_bs
    rows = [u_bs]
    vals = [d_bs - ranges[0]]
    for k in range(ris.shape[0]):
        d_r = max(np.linalg.norm(p - ris[k]), 1e-12)
        u_r = (p - ris[k])[:2] / d_r
        half = 0.5 * (np.linalg.norm(bs - ris[k]) + d_r + d_bs)
        rows.append(0.5 * (u_r + u_bs))
        vals.append(half - ranges[k + 1])
    return np.asarray(vals), np.asarray(rows)


def ls_position(bs_position, ris_positions, path_ranges, uav_height: float,
                init=None, residual_tol: float = 1.0):
    """Recover the target (x, y, z=uav_height) from per-path ranges.

    path_ranges[0] is the direct mono-static range |p - bs|; path_ranges[k]
    for k >= 1 is half the BS -> RIS_k -> target -> BS round trip. Solved by
    Gauss-Newton over (x, y) with multi-start initialization on the
    direct-range circle; returns (position, residual norm).
    """
    bs = np.asarray(bs_position, dtype=float)
    ris = np.asarray(ris_positions, dtype=float).reshape(-1, 3)
    ranges = np.asarray(path_ranges, dtype=float).ravel()
    if ranges.shape[0] != ris.shape[0] + 1:
        raise InvalidInputError("need one direct range plus one range per RIS")
    if ranges.shape[0] < 2:
        raise InvalidInputError("at least two range measurements are required")
    if np.any(ranges <= 0.0):
        raise InvalidInputError("ranges must be positive")
    dz = uav_height - bs[2]
    rho = np.sqrt(max(ranges[0] ** 2 - dz**2, 0.0))  # direct-range circle radius
    starts = []
    if init is not None:
        starts.append(np.asarray(init, dtype=float)[:2])
    for ang in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
        starts.append(bs[:2] + rho * np.array([np.cos(ang), np.sin(ang)]))
    best_xy, best_res = None, np.inf
    for start in starts:
        xy = start.astype(float).copy()
        res_norm = np.inf
        for _ in range(50):
            vals, jac = _residuals(xy, bs, ris, ranges, uav_height)
            try:
                step, *_ = np.linalg.lstsq(jac, vals, rcond=None)
            except np.linalg.LinAlgError:
                break
            xy = xy - step
            res_norm = float(np.linalg.norm(_residuals(xy, bs, ris, ranges, uav_height)[0]))
            if np.linalg.norm(step) < 1e-9:
                break
        if res_norm < best_res:
            best_xy, best_res = xy, res_norm
    if best_xy is None or not np.isfinite(best_res) or best_res > residual_tol:
        raise EstimationFailureError("position solve did not converge", residual=best_res)
    return np.array([best_xy[0], best_xy[1], uav_height]), best_res
