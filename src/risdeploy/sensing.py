"""Sensing model: OFDM waveform moments, Fisher information and CRBs.

The probing waveform is a seeded random-QPSK OFDM frame. All integrals are
Riemann sums on the 1/B sample grid over one frame, so analytic FIM entries
and finite-difference oracles share the same discretization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnobservablePathError
from .units import SPEED_OF_LIGHT, wavelength

MOMENT_BLOCK = 64  # symbols per batched IFFT in OfdmWaveform.moments
DRAW_BLOCK = 64  # subcarrier rows per integer draw in qpsk_symbols

# exp(j(pi/4 + k pi/2)) for the QPSK symbol index k = 0..3
_QPSK = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * np.arange(4)))


@dataclass(frozen=True)
class OfdmParams:
    carrier_hz: float
    bandwidth_hz: float
    subcarriers: int
    symbols: int

    def __post_init__(self):
        if self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise InvalidInputError("carrier and bandwidth must be > 0")
        if self.subcarriers < 1 or self.symbols < 1:
            raise InvalidInputError("subcarriers and symbols must be >= 1")

    @property
    def symbol_duration(self) -> float:
        return self.subcarriers / self.bandwidth_hz

    @property
    def frame_duration(self) -> float:
        return self.symbols * self.symbol_duration

    @property
    def wavelength(self) -> float:
        return wavelength(self.carrier_hz)

    @property
    def range_resolution(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def velocity_resolution(self) -> float:
        return self.wavelength / (2.0 * self.frame_duration)


@dataclass(frozen=True)
class WaveformMoments:
    "The three frame integrals feeding the FIM."
    deriv_energy: float  # integral |s_dot|^2 dt
    time_cross: complex  # integral t * s_dot * conj(s) dt
    time_energy: float  # integral t^2 |s|^2 dt


def qpsk_symbols(subcarriers: int, symbols: int, seed: int) -> np.ndarray:
    """Seeded QPSK symbol indices k = 0..3 (symbol _QPSK[k]), uint8 of shape
    (subcarriers, symbols).

    The rows are drawn in blocks from one generator, which gives the same
    stream as one whole-frame draw without its int64 temporary.
    """
    rng = np.random.default_rng(seed)
    index = np.empty((subcarriers, symbols), dtype=np.uint8)
    for r0 in range(0, subcarriers, DRAW_BLOCK):
        block = index[r0:r0 + DRAW_BLOCK]
        block[...] = rng.integers(0, 4, size=block.shape)
    return index


class OfdmWaveform:
    """Sampled baseband OFDM frame with centered subcarriers.

    The unit-average-power signal is s(t) = (1/sqrt(Nc)) * sum_p S[p, m]
    exp(j 2 pi f_p (t - m T_sym)) within symbol m, with f_p = (p - Nc//2) B/Nc.
    The frame is kept as its symbol indices; `symbols` expands a block of them.
    """

    def __init__(self, params: OfdmParams, seed: int = 0):
        self.params = params
        self.index = qpsk_symbols(params.subcarriers, params.symbols, seed)
        nc = params.subcarriers
        self.freqs = (np.arange(nc) - nc // 2) * params.bandwidth_hz / nc
        self._scale = 1.0 / np.sqrt(nc)

    def symbols(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        "The complex symbols S[rows, cols] of the frame."
        return _QPSK.take(self.index[rows, cols])

    def _symbol_samples(self, m0: int, m1: int):
        "Samples of s and s_dot over symbols m0..m1-1 on the 1/B grid, one row per symbol."
        nc = self.params.subcarriers
        # one contiguous row per symbol: the IFFTs along rows run faster than on a transpose
        sym = _QPSK.take(np.ascontiguousarray(self.index[:, m0:m1].T))
        spec = np.roll(sym, -(nc // 2), axis=1)
        spec_dot = np.roll(1j * 2.0 * np.pi * self.freqs * sym, -(nc // 2), axis=1)
        s = np.fft.ifft(spec, axis=1) * nc * self._scale
        s_dot = np.fft.ifft(spec_dot, axis=1) * nc * self._scale
        return s, s_dot

    def sample(self, t, tau: float = 0.0):
        """Direct evaluation of (s(t - tau), s_dot(t - tau)) at arbitrary times.

        O(len(t) * Nc); intended for small frames and oracles.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tp = t - tau
        tsym = self.params.symbol_duration
        m = np.floor(tp / tsym).astype(int)
        valid = (tp >= 0.0) & (tp < self.params.frame_duration - 1e-15)
        m_safe = np.clip(m, 0, self.params.symbols - 1)
        local = tp - m_safe * tsym
        phases = np.exp(1j * 2.0 * np.pi * np.outer(self.freqs, local))  # (Nc, Nt)
        sym = self.symbols(cols=m_safe)
        s = self._scale * np.sum(sym * phases, axis=0)
        s_dot = self._scale * np.sum(sym * (1j * 2.0 * np.pi * self.freqs)[:, None] * phases, axis=0)
        s[~valid] = 0.0
        s_dot[~valid] = 0.0
        return s, s_dot

    def moments(self, tau: float = 0.0) -> WaveformMoments:
        """Riemann-sum frame moments of s(t - tau) at 1/B spacing.

        tau must land on the sample grid (delay quantized to 1/B).
        """
        bw = self.params.bandwidth_hz
        shift = int(round(tau * bw))
        if abs(tau * bw - shift) > 1e-6:
            raise InvalidInputError("tau must be a multiple of the 1/B sample spacing")
        nc, nm = self.params.subcarriers, self.params.symbols
        dt = 1.0 / bw
        i1 = 0.0
        i2 = 0.0 + 0.0j
        i3 = 0.0
        limit = nc * nm - shift  # samples of s that fit the frame after the delay
        # (first symbol, end symbol, samples kept per symbol); only the last
        # symbol can be cut by the delay, and it is summed over its kept samples
        n_full = min(nm, max(limit, 0) // nc)
        spans = [(m0, min(m0 + MOMENT_BLOCK, n_full), nc)
                 for m0 in range(0, n_full, MOMENT_BLOCK)]
        if n_full < nm and limit > n_full * nc:
            spans.append((n_full, n_full + 1, limit - n_full * nc))
        for m0, m1, n_keep in spans:
            s, s_dot = self._symbol_samples(m0, m1)
            s, s_dot = s[:, :n_keep], s_dot[:, :n_keep]
            t = (np.arange(m0, m1)[:, None] * nc + shift + np.arange(n_keep)) * dt
            # one 1-D sum per symbol, accumulated in symbol order (a sum over
            # axis 1 of the block adds in another order)
            for e1, e2, e3 in zip(np.abs(s_dot) ** 2, t * s_dot * np.conj(s),
                                  t**2 * np.abs(s) ** 2):
                i1 += float(np.sum(e1)) * dt
                i2 += complex(np.sum(e2)) * dt
                i3 += float(np.sum(e3)) * dt
        return WaveformMoments(deriv_energy=i1, time_cross=i2, time_energy=i3)


@dataclass(frozen=True)
class SensingPath:
    """One round-trip sensing path in delay-Doppler coordinates."""

    index: int
    delay: float
    doppler: float
    coeff: complex
    carrier_hz: float

    @property
    def range(self) -> float:
        return SPEED_OF_LIGHT * self.delay / 2.0

    @property
    def velocity(self) -> float:
        return wavelength(self.carrier_hz) * self.doppler / 2.0


@dataclass(frozen=True)
class CrbPair:
    range_crb: float  # m^2
    velocity_crb: float  # (m/s)^2
    fim: np.ndarray  # 2x2


def fim(ofdm: OfdmParams, path: SensingPath, noise_psd_linear: float,
        moments: WaveformMoments) -> CrbPair:
    """Analytic 2x2 range/velocity FIM and its CRBs.

    J_dd = 8|a|^2/(sigma c0^2) * Re(I1), J_vd = 16 pi |a|^2/(sigma lam c0)
    * Re(j I2), J_vv = 32 pi^2 |a|^2/(sigma lam^2) * Re(I3).
    """
    a2 = abs(path.coeff) ** 2
    if a2 == 0.0:
        raise UnobservablePathError("zero path coefficient")
    lam = ofdm.wavelength
    c0 = SPEED_OF_LIGHT
    s2 = noise_psd_linear
    jdd = 8.0 * a2 / (s2 * c0**2) * np.real(moments.deriv_energy)
    jvd = 16.0 * np.pi * a2 / (s2 * lam * c0) * np.real(1j * moments.time_cross)
    jvv = 32.0 * np.pi**2 * a2 / (s2 * lam**2) * np.real(moments.time_energy)
    f = np.array([[jdd, jvd], [jvd, jvv]])
    det = jdd * jvv - jvd * jvd
    if det <= 0.0 or jdd <= 0.0:
        raise UnobservablePathError("FIM is not positive definite")
    inv = np.array([[jvv, -jvd], [-jvd, jdd]]) / det
    return CrbPair(range_crb=float(inv[0, 0]), velocity_crb=float(inv[1, 1]), fim=f)

