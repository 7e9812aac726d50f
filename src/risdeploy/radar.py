"""Mono-static OFDM radar pipeline.

Synthesizes the echo of the sensing paths, forms the range-velocity map,
detects peaks with a cell-averaging CFAR, and recovers the target position
from per-path ranges by Gauss-Newton least squares at a known flight height.

The echo is formed in the map domain, with no frame over the subcarrier and
symbol grid. The received frame is Y = sum_n a_n outer(D_n, E_n) * S + W,
with delay phasor D_n over the subcarriers, Doppler phasor E_n over the
symbols, the QPSK symbols S and white noise W. Equalising by conj(S), with
|S| = 1, leaves each path one rank-1 term a_n outer(D_n, E_n), and the 2-D
transform of a rank-1 term is the outer product of two 1-D transforms: the
subcarrier IFFT of D_n and the fftshifted symbol FFT of E_n. conj(S) W is
again white circular Gaussian, and so is its transform, which the IFFT (1/Nc)
and the unnormalised FFT scale to a standard deviation of sigma sqrt(M/Nc)
per part (M. Braun, OFDM Radar Algorithms in Mobile Communication Networks,
KIT 2014; C. Sturm and W. Wiesbeck, Proc. IEEE 99(7), 2011). So the map is
|U V + W'|^2 with W' drawn in the map domain, the frame pipeline's
distribution. `synthesize_returns` returns U, V, the std and the seed, and
`range_velocity_map` writes the map one row block at a time.

The map holds float32 linear power. Each row block is summed in complex128
from the path terms and the float32 noise draw, and its |.|^2 is formed in
float64 and rounded once; the CFAR's ring sums are formed and compared in
float64; dB is formed in float64 only for the values written out. The CFAR
judges the map's local maxima strongest first and forms thresholds only on
the row blocks they lie in, each from the block's own wrapped rows through
one float64 summed-area table; the set it declares is the whole-map filter's.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailureError, InvalidInputError, UnsupportedDelayError
from .sensing import OfdmWaveform
from .units import db2lin, lin2db

ROW_BLOCK = 32  # rows per block of the map and of the CFAR passes
# the strongest local maxima the CFAR judges one row block at a time before it
# judges every block
CANDIDATES = 1024


@dataclass(frozen=True)
class Echo:
    "The equalised echo in the map domain: the map is |u @ v + noise|^2."
    u: np.ndarray  # (Nc, P) complex128: subcarrier IFFT of each path's delay phasor
    v: np.ndarray  # (P, M) complex128: coeff * fftshift(symbol FFT of its Doppler phasor)
    noise_std: float  # standard deviation of each part of a map cell's noise
    seed: int  # of the map-domain noise draw


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


@dataclass(frozen=True)
class DetectionReport:
    detections: list
    cfar: CfarWork
    warning: str | None = None


def synthesize_returns(waveform: OfdmWaveform, paths: list, noise_psd: float = 0.0,
                       seed: int = 1) -> Echo:
    """The echo of `paths` after equalisation, in the map domain (no frame).

    The frame it stands for is Y[p, m] = sum_n a_n exp(-j 2 pi f_p tau_n)
    exp(j 2 pi fD_n m T_sym) S[p, m] plus (optionally) white noise of power
    noise_psd * B per resource element, std sigma per part; in the map that
    noise has std sigma sqrt(M / Nc) per part.
    """
    params = waveform.params
    if not paths:
        raise InvalidInputError("at least one sensing path is required")
    tsym = params.symbol_duration
    for path in paths:
        if path.delay < 0 or path.delay >= tsym:
            raise UnsupportedDelayError(
                f"path delay {path.delay:.3e} s outside [0, T_sym={tsym:.3e})")
    delays = np.array([path.delay for path in paths])
    dopplers = np.array([path.doppler for path in paths])
    coeffs = np.array([path.coeff for path in paths], dtype=complex)
    u = np.fft.ifft(np.exp(-1j * 2.0 * np.pi * np.outer(waveform.freqs, delays)), axis=0)
    doppler = np.exp(1j * 2.0 * np.pi * np.outer(dopplers, np.arange(params.symbols) * tsym))
    v = coeffs[:, None] * np.fft.fftshift(np.fft.fft(doppler, axis=1), axes=1)
    sigma = np.sqrt(noise_psd * params.bandwidth_hz / 2.0)
    return Echo(u=u, v=v, noise_std=float(sigma * np.sqrt(params.symbols / params.subcarriers)),
                seed=seed)


def range_velocity_map(echo: Echo, waveform: OfdmWaveform) -> RangeVelocityMap:
    """The map |u @ v + noise|^2 as float32 linear power, one row block at a time.

    The noise is drawn in float32 as interleaved (re, im) pairs from one
    generator seeded with `echo.seed`, row block after row block, so the
    stream is one whole-map draw's whatever the block size. Every block is
    written into one set of buffers: glibc may map a block temporary of 128 KB
    or more afresh, and fault its pages in again, each time one is allocated.
    """
    ofdm = waveform.params
    nc, nm = ofdm.subcarriers, ofdm.symbols
    if echo.u.shape[0] != nc or echo.v.shape[1] != nm:
        raise InvalidInputError(f"the echo must span the ({nc}, {nm}) map")
    power = np.empty((nc, nm), dtype=np.float32)
    cells = np.empty((min(ROW_BLOCK, nc), nm), dtype=complex)
    term = np.empty_like(cells)
    noise = np.empty((cells.shape[0], 2 * nm), dtype=np.float32)
    rng = np.random.default_rng(echo.seed)
    for r0 in range(0, nc, ROW_BLOCK):
        u = echo.u[r0:r0 + ROW_BLOCK]
        n = u.shape[0]
        block = np.multiply(u[:, :1], echo.v[0], out=cells[:n])
        for k in range(1, u.shape[1]):
            block += np.multiply(u[:, k:k + 1], echo.v[k], out=term[:n])
        if echo.noise_std > 0.0:
            draw = rng.standard_normal(dtype=np.float32, out=noise[:n])
            draw *= echo.noise_std
            block += draw.view(np.complex64)
        parts = block.view(float)  # (re, im) pairs
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power[r0:r0 + n])
    range_axis = np.arange(nc) * ofdm.range_resolution
    velocity_axis = (np.arange(nm) - nm // 2) * ofdm.velocity_resolution
    return RangeVelocityMap(power=power, range_axis=range_axis,
                            velocity_axis=velocity_axis,
                            resolution=(ofdm.range_resolution, ofdm.velocity_resolution))


def power_db(power) -> np.ndarray:
    "Map power in float64 dB; an empty cell reads -3000 dB (a 1e-300 floor), not -inf."
    return lin2db(np.maximum(np.asarray(power, dtype=float), 1e-300))


def _ring_means(power: np.ndarray, r0: int, r1: int, outer: int, inner: int) -> np.ndarray:
    """Training-ring mean of each cell in rows r0..r1-1 of `power`: its outer x
    outer box less its inner x inner box (odd sizes, centred on the cell), with
    wrap-around edges. The rows with outer // 2 wrapped rows and columns on
    every side form one float64 summed-area table, and each box sum is read
    from four of its corners."""
    half = outer // 2
    n_rows, n_cols = r1 - r0, power.shape[1]
    slab = np.take(power, np.arange(r0 - half, r1 + half), axis=0, mode="wrap")
    slab = np.take(slab, np.arange(-half, n_cols + half), axis=1, mode="wrap")
    table = np.zeros((slab.shape[0] + 1, slab.shape[1] + 1))  # table[a, b]: sum of slab[:a, :b]
    np.cumsum(slab, axis=0, dtype=float, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])

    def box(size):
        lo, hi = half - size // 2, half + size // 2 + 1  # the box's slab offsets
        return (table[hi:hi + n_rows, hi:hi + n_cols] - table[lo:lo + n_rows, hi:hi + n_cols]
                - table[hi:hi + n_rows, lo:lo + n_cols] + table[lo:lo + n_rows, lo:lo + n_cols])

    ring = box(outer)
    ring -= box(inner)
    ring /= outer**2 - inner**2
    return ring


def _local_maxima(power: np.ndarray) -> tuple:
    """Flat indices, in row-major order, of the cells that are 3x3 wrap-around
    local maxima (int32 where the map's indices fit it), and their power."""
    n_rows, n_cols = power.shape
    # each block's indices from its first cell, in the narrowest type that holds them
    offsets = np.min_scalar_type(min(ROW_BLOCK, n_rows) * n_cols - 1)
    blocks = []
    for r0 in range(0, n_rows, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n_rows)
        # the block's power with one wrapped row above and below it
        block = np.take(power, np.arange(r0 - 1, r1 + 1), axis=0, mode="wrap")
        across = np.maximum(block, np.roll(block, 1, axis=1))
        np.maximum(across, np.roll(block, -1, axis=1), out=across)
        local_max = np.maximum(across[:-2], across[1:-1])
        np.maximum(local_max, across[2:], out=local_max)
        blocks.append(np.flatnonzero(block[1:-1] >= local_max).astype(offsets))
    size = sum(b.size for b in blocks)
    cells = np.empty(size, dtype=np.int32 if power.size <= np.iinfo(np.int32).max else np.intp)
    values = np.empty(size, dtype=power.dtype)
    end = 0
    for r0, block in zip(range(0, n_rows, ROW_BLOCK), blocks):
        mine = slice(end, end + block.size)
        values[mine] = power[r0:r0 + ROW_BLOCK].reshape(-1)[block]
        cells[mine] = block
        cells[mine] += r0 * n_cols
        end += block.size
    return cells, values


def _kth_largest(values: np.ndarray, k: int):
    """The k-th largest of `values` (k <= values.size), partitioned a slice at a
    time: it is the k-th largest of the union of each slice's k largest."""
    size = 64 * k
    tops = [part if part.size <= k else np.partition(part, -k)[-k:].copy()
            for part in (values[i:i + size] for i in range(0, values.size, size))]
    union = np.concatenate(tops)
    return np.partition(union, -k)[-k]


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
    `expected` are declared. A judged cell's row block gets its thresholds
    from its own wrapped rows through one float64 summed-area table
    (`_ring_means`), with nothing shared between blocks; the declared set is
    the whole-map filter's. When those candidates hold fewer than `expected`
    detections, every row block is judged. Linear power is compared
    throughout, and dB is formed only for the detections.
    """
    if expected < 1:
        raise InvalidInputError("expected must be >= 1")
    outer = 2 * (guard + training) + 1
    inner = 2 * guard + 1
    power = rv.power
    n_rows, n_cols = power.shape
    scale = db2lin(threshold_db)
    cells, values = _local_maxima(power)
    block_cells = ROW_BLOCK * n_cols
    n_blocks = -(-n_rows // ROW_BLOCK)
    # row block b's local maxima are cells[bounds[b]:bounds[b + 1]]
    # (in the cells' own type: searchsorted would convert a whole int32 array to int64)
    bounds = np.searchsorted(cells, np.minimum(np.arange(n_blocks + 1) * block_cells,
                                               power.size).astype(cells.dtype))
    hit = np.zeros(cells.size, dtype=bool)
    judged = np.zeros(n_blocks, dtype=bool)

    def judge(b):
        "Threshold row block b and decide its local maxima."
        r0 = b * ROW_BLOCK
        noise = _ring_means(power, r0, min(r0 + ROW_BLOCK, n_rows), outer, inner)
        np.maximum(noise, 0.0, out=noise)
        noise *= scale
        mine = slice(bounds[b], bounds[b + 1])
        i, j = np.divmod(cells[mine] - r0 * n_cols, n_cols)
        hit[mine] = values[mine] > noise[i, j]
        judged[b] = True

    # the strongest candidates in descending power, ties in row-major order
    if cells.size > CANDIDATES:  # every cell as strong as the CANDIDATES-th
        top = np.flatnonzero(values >= _kth_largest(values, CANDIDATES))
    else:
        top = np.arange(cells.size)
    order = top[np.argsort(-values[top], kind="stable")]
    declared, judged_cells = [], cells.size
    for place, (k, b) in enumerate(zip(order.tolist(), (cells[order] // block_cells).tolist())):
        if not judged[b]:
            judge(b)
        if hit[k]:
            declared.append(k)
            if len(declared) == expected:
                judged_cells = place + 1
                break
    else:
        if order.size < cells.size:  # the candidates ran out: judge every block
            for b in np.flatnonzero(~judged):
                judge(b)
            declared = np.flatnonzero(hit)
            declared = declared[np.argsort(-values[declared], kind="stable")][:expected]
    declared = np.asarray(declared, dtype=np.intp)
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
                    blocks_judged=int(judged.sum()), blocks=n_blocks)
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
