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
distribution. `synthesize_returns` returns U, V, the std and the seed.

No whole map is held. `range_velocity_map` forms the map one row block at a
time, in one pass, and keeps three things of each block: the noise
generator's state at its start, its count of 3x3 wrapped local maxima with
its strongest maxima, and its rows of the velocity band that rv_map.csv
writes. Block 0 is held back until the map's last row, the row above it, is
formed. A block formed again from its saved state draws the same noise, so
its rows are the first formation's bit for bit; `RangeVelocityMap.rows`
reads the map's wrapped rows that way, and it is the CFAR's one access to it.

The map is float32 linear power. Each row block is summed in complex128
from the path terms and the float32 noise draw, and its |.|^2 is formed in
float64 and rounded once; the CFAR's ring sums are formed and compared in
float64; dB is formed in float64 only for the values written out. The CFAR
judges the map's strongest local maxima first and forms thresholds only on
the row blocks they lie in, each formed again with its wrapped neighbours
and thresholded through one float64 summed-area table; the set it declares
is the whole-map filter's. When those candidates hold too few detections,
or their blocks would hold more than `HELD` rows, it judges every block not
yet judged in row order and all its local maxima, holding a few blocks at a
time.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailureError, InvalidInputError, UnsupportedDelayError
from .sensing import OfdmWaveform
from .units import db2lin, lin2db

ROW_BLOCK = 32  # rows per block of the map: formed, scanned and formed again whole
# the strongest local maxima the CFAR judges one row block at a time before it
# judges every block
CANDIDATES = 1024
# rows of formed blocks the CFAR holds for its candidates; past them it judges
# every block in row order, which holds a few blocks at a time
HELD = 16 * ROW_BLOCK
BAND = 32  # velocity columns each side of zero whose power the map keeps for rv_map.csv


@dataclass(frozen=True)
class Echo:
    "The equalised echo in the map domain: the map is |u @ v + noise|^2."
    u: np.ndarray  # (Nc, P) complex128: subcarrier IFFT of each path's delay phasor
    v: np.ndarray  # (P, M) complex128: coeff * fftshift(symbol FFT of its Doppler phasor)
    noise_std: float  # standard deviation of each part of a map cell's noise
    seed: int  # of the map-domain noise draw


@dataclass(frozen=True)
class RangeVelocityMap:
    """What one pass over the map keeps of it; no whole-map array is held.

    `block(b)` forms row block b again, with the bits of its first formation,
    and `rows` reads the map's wrapped rows through it."""
    block: Callable  # b -> (rows, M) float32 |rv|^2 of row block b, linear, a new array
    block_rows: int  # rows per block
    maxima: np.ndarray  # (blocks,) each row block's count of 3x3 wrapped local maxima
    cells: np.ndarray  # flat indices, row-major, of the CANDIDATES strongest maxima (ties kept)
    values: np.ndarray  # their float32 power
    band: np.ndarray  # (Nc, columns) float32 power of the velocity columns `band_columns`
    band_columns: slice  # the central velocity columns, BAND each side of zero
    range_axis: np.ndarray  # (Nc,) meters
    velocity_axis: np.ndarray  # (M,) m/s
    resolution: tuple  # (range m, velocity m/s)

    def rows(self, r0: int, r1: int, formed: dict | None = None) -> np.ndarray:
        """Rows r0..r1-1 of the map, wrapped (r0 may be negative and r1 past the
        last row), as a new array. A row block they lie in is formed again
        unless `formed` (block -> its rows) holds it, and is added to it."""
        formed = {} if formed is None else formed
        out = np.empty((r1 - r0, self.velocity_axis.size), dtype=np.float32)
        at = r0
        while at < r1:
            b, first = divmod(at % self.range_axis.size, self.block_rows)
            if b not in formed:
                formed[b] = self.block(b)
            take = min(formed[b].shape[0] - first, r1 - at)
            out[at - r0:at - r0 + take] = formed[b][first:first + take]
            at += take
        return out


@dataclass(frozen=True)
class PathDetection:
    range_est: float
    velocity_est: float
    power_db: float
    path_index_hypothesis: int = -1


@dataclass(frozen=True)
class CfarWork:
    "How much of the map one CFAR call judged."
    judged: int  # local maxima judged, strongest first (all of them after a row-order sweep)
    local_maxima: int
    blocks_judged: int  # row blocks whose thresholds were formed
    blocks: int
    reformed: int  # row blocks formed again to judge them


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


def _block_former(echo: Echo, rows: int) -> Callable:
    """form(r0, rng): the float32 power of the `rows`-row block from row r0,
    its noise drawn from rng, as a new array. Each block is summed in one set
    of buffers: glibc may map a temporary of 128 KB or more afresh, and fault
    its pages in again, each time one is allocated."""
    cells = np.empty((rows, echo.v.shape[1]), dtype=complex)
    term = np.empty_like(cells)
    noise = np.empty((rows, 2 * echo.v.shape[1]), dtype=np.float32)

    def form(r0, rng):
        u = echo.u[r0:r0 + rows]
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
        return np.add(parts[:, 0::2], parts[:, 1::2], out=np.empty((n, cells.shape[1]),
                                                                   dtype=np.float32))

    return form


def range_velocity_map(echo: Echo, waveform: OfdmWaveform) -> RangeVelocityMap:
    """The map |u @ v + noise|^2 as float32 linear power, formed one row block
    at a time in one pass that keeps only what `RangeVelocityMap` holds.

    The noise is drawn in float32 as interleaved (re, im) pairs from one
    generator seeded with `echo.seed`, row block after row block, so the
    stream is one whole-map draw's whatever the block size. The generator's
    state at each block's start is kept: a block formed again from it draws
    the same noise, so its rows are the first formation's bit for bit.
    """
    ofdm = waveform.params
    nc, nm = ofdm.subcarriers, ofdm.symbols
    if echo.u.shape[0] != nc or echo.v.shape[1] != nm:
        raise InvalidInputError(f"the echo must span the ({nc}, {nm}) map")
    rows = min(ROW_BLOCK, nc)
    form = _block_former(echo, rows)
    rng = np.random.default_rng(echo.seed)
    states = []  # the generator's state at each block's start

    def first_pass():
        for r0 in range(0, nc, rows):
            states.append(rng.bit_generator.state)
            yield form(r0, rng)

    def block(b):
        replay = np.random.default_rng(echo.seed)
        replay.bit_generator.state = states[b]
        return form(b * rows, replay)

    return RangeVelocityMap(block=block, block_rows=rows, **_scan(first_pass(), nc, nm, rows),
                            range_axis=np.arange(nc) * ofdm.range_resolution,
                            velocity_axis=(np.arange(nm) - nm // 2) * ofdm.velocity_resolution,
                            resolution=(ofdm.range_resolution, ofdm.velocity_resolution))


def _scan(blocks, n_rows: int, n_cols: int, rows: int) -> dict:
    """What the map keeps of its row blocks, which `blocks` yields in order:
    each block's count of 3x3 wrapped local maxima, the CANDIDATES strongest
    of all of them (ties kept, from each block's own CANDIDATES strongest),
    and the band columns. A block's maxima are found once the next block's
    first row is formed; block 0 is held back until the map's last row, the
    row above it, is formed."""
    columns = slice(max(0, n_cols // 2 - BAND), min(n_cols, n_cols // 2 + BAND + 1))
    band = np.empty((n_rows, columns.stop - columns.start), dtype=np.float32)
    n_blocks = -(-n_rows // rows)
    counts = np.zeros(n_blocks, dtype=np.intp)
    strongest = [None] * n_blocks

    def scan(b, above, block, below):
        cells = _block_maxima(np.concatenate((above[None], block, below[None])))
        counts[b] = cells.size
        cells, values = _strongest(cells, block.reshape(-1)[cells])
        strongest[b] = (cells + b * rows * n_cols, values)

    for b, block in enumerate(blocks):
        band[b * rows:b * rows + block.shape[0]] = block[:, columns]
        if b == 0:
            first = block
        else:
            if b == 1:
                below_first = block[0].copy()
            else:
                scan(b - 1, above, previous, block[0])
            above = previous[-1].copy()
        previous = block
    if n_blocks > 1:  # the wrap: the map's first row is below its last block
        scan(n_blocks - 1, above, previous, first[0])
        scan(0, previous[-1], first, below_first)
    else:
        scan(0, first[-1], first, first[0])
    cells, values = _strongest(*map(np.concatenate, zip(*strongest)))
    return {"maxima": counts, "cells": cells, "values": values, "band": band,
            "band_columns": columns}


def _block_maxima(slab: np.ndarray) -> np.ndarray:
    """Flat indices, in row-major order, of the cells of slab's rows but its
    first and last (the wrapped rows above and below) that are 3x3 local
    maxima, with wrap-around columns."""
    across = np.maximum(slab, np.roll(slab, 1, axis=1))
    np.maximum(across, np.roll(slab, -1, axis=1), out=across)
    local_max = np.maximum(across[:-2], across[1:-1])
    np.maximum(local_max, across[2:], out=local_max)
    return np.flatnonzero(slab[1:-1] >= local_max)


def _strongest(cells: np.ndarray, values: np.ndarray) -> tuple:
    "The cells at least as strong as the CANDIDATES-th strongest (ties kept), in their order."
    if values.size <= CANDIDATES:
        return cells, values
    keep = values >= np.partition(values, -CANDIDATES)[-CANDIDATES]
    return cells[keep], values[keep]


def power_db(power) -> np.ndarray:
    "Map power in float64 dB; an empty cell reads -3000 dB (a 1e-300 floor), not -inf."
    return lin2db(np.maximum(np.asarray(power, dtype=float), 1e-300))


def _ring_means(slab: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Training-ring mean of each cell of slab's rows but its outer // 2 first
    and last, the wrapped rows above and below: its outer x outer box less its
    inner x inner box (odd sizes, centred on the cell), with wrap-around
    columns. The slab with outer // 2 wrapped columns on each side forms one
    float64 summed-area table, and each box sum is read from four of its
    corners."""
    half = outer // 2
    n_rows, n_cols = slab.shape[0] - 2 * half, slab.shape[1]
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


def detect_paths(rv: RangeVelocityMap, expected: int, threshold_db: float = 12.0,
                 guard: int = 2, training: int = 8) -> DetectionReport:
    """Cell-averaging CFAR with a square training ring and peak grouping.

    A cell is declared when its power exceeds the training-ring mean by
    threshold_db and it is a local maximum in its 3x3 neighborhood (both with
    wrap-around edges). Returns the `expected` strongest detections, ties in
    row-major order; a shortfall is flagged as a warning, not an error.
    Estimates stay on the bin grid (no super-resolution).

    Only a local maximum can be declared, so the map's `CANDIDATES` strongest
    local maxima are judged strongest first until `expected` are declared. A
    judged cell's row block gets its thresholds from its own wrapped rows
    through one float64 summed-area table (`_ring_means`), with nothing
    shared between blocks; the declared set is the whole-map filter's. The
    map is read only through `rv.rows`, and no row block is formed twice in
    one call. The blocks formed again for the candidates are kept, up to
    `HELD` rows. A judged block's local maxima are found again from its rows
    and all of them are decided. So past `HELD` rows, or when the candidates
    hold fewer than `expected` detections, the blocks not yet judged are
    judged in row order: that sweep drops each block no later block reads,
    keeps the first blocks for the last block's wrap, and so holds a few
    blocks, not the map. The candidates' order then picks the same cells.
    Linear power is compared throughout, and dB is formed only for the
    detections.
    """
    if expected < 1:
        raise InvalidInputError("expected must be >= 1")
    outer = 2 * (guard + training) + 1
    inner = 2 * guard + 1
    half = outer // 2
    n_rows, n_cols = rv.range_axis.size, rv.velocity_axis.size
    scale = db2lin(threshold_db)
    cells, values = rv.cells, rv.values
    block_cells = rv.block_rows * n_cols
    n_blocks, local_maxima = rv.maxima.size, int(rv.maxima.sum())
    bounds = np.searchsorted(cells, np.arange(n_blocks + 1) * block_cells)  # block b's candidates
    hit = np.zeros(cells.size, dtype=bool)
    found = [None] * n_blocks  # each judged block's hits, from all its local maxima
    formed = {}  # the row blocks formed again that a later judgement may read
    dropped = 0  # blocks formed again and since dropped from `formed`
    swept = False  # every block judged in row order: all local maxima decided
    reach = max(half, 1)  # rows read above and below a block

    def judge(b):
        "Threshold row block b and decide its local maxima, its candidates among them."
        r0 = b * rv.block_rows
        slab = rv.rows(r0 - reach, min(r0 + rv.block_rows, n_rows) + reach, formed)
        noise = _ring_means(slab[reach - half:slab.shape[0] - reach + half], outer, inner)
        np.maximum(noise, 0.0, out=noise)
        noise *= scale
        local = _block_maxima(slab[reach - 1:slab.shape[0] - reach + 1])
        power = slab[reach:slab.shape[0] - reach].reshape(-1)[local]
        hits = power > noise.reshape(-1)[local]
        found[b] = (local[hits] + b * block_cells, power[hits])
        mine = slice(bounds[b], bounds[b + 1])
        hit[mine] = np.isin(cells[mine], found[b][0])

    def sweep():
        "Judge every block not yet judged, in row order, holding a few blocks at a time."
        nonlocal dropped, swept
        swept = True
        wrap = (reach - 1) // rv.block_rows  # the last block reads blocks 0..wrap
        for b in range(n_blocks):
            if found[b] is None:
                judge(b)
            low = ((b + 1) * rv.block_rows - reach) // rv.block_rows  # the next block reads none below
            for old in [k for k in formed if wrap < k < low]:
                del formed[old]
                dropped += 1

    # the candidates in descending power, ties in row-major order
    order = np.argsort(-values, kind="stable")
    declared, judged_cells = [], cells.size
    for place, (k, b) in enumerate(zip(order.tolist(), (cells[order] // block_cells).tolist())):
        if found[b] is None:
            if len(formed) * rv.block_rows < HELD:
                judge(b)
            else:
                sweep()
        if hit[k]:
            declared.append(k)
            if len(declared) == expected:
                judged_cells = place + 1
                break
    declared_cells, declared_values = cells[declared], values[declared]
    if len(declared) < expected and cells.size < local_maxima:
        # the candidates ran out: judge every block
        sweep()
        found_cells, found_values = map(np.concatenate, zip(*found))
        best = np.argsort(-found_values, kind="stable")[:expected]
        declared_cells, declared_values = found_cells[best], found_values[best]
    i, j = np.divmod(declared_cells, n_cols)
    detections = [
        PathDetection(range_est=r, velocity_est=v, power_db=p)
        for r, v, p in zip(rv.range_axis[i].tolist(), rv.velocity_axis[j].tolist(),
                           power_db(declared_values).tolist())
    ]
    warning = None
    if len(detections) < expected:
        warning = f"partial detection: {len(detections)} of {expected} paths found"
    work = CfarWork(judged=local_maxima if swept else judged_cells, local_maxima=local_maxima,
                    blocks_judged=sum(f is not None for f in found), blocks=n_blocks,
                    reformed=len(formed) + dropped)
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
