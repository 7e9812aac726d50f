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
        # j 2 pi f_p in IFFT order: the spectrum of s_dot is this times that of s
        self._dot_weight = np.roll(1j * 2.0 * np.pi * self.freqs, -(nc // 2))

    def symbols(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        "The complex symbols S[rows, cols] of the frame."
        return _QPSK.take(self.index[rows, cols])

    def _symbol_samples(self, m0: int, m1: int):
        "Samples of s and s_dot over symbols m0..m1-1 on the 1/B grid, one row per symbol."
        nc = self.params.subcarriers
        # rolled into IFFT order, then one contiguous row per symbol: the IFFTs
        # along rows run faster than on a transpose
        index = np.ascontiguousarray(np.roll(self.index[:, m0:m1], -(nc // 2), axis=0).T)
        spec = _QPSK.take(index)
        s = np.fft.ifft(spec, axis=1)
        np.multiply(self._dot_weight, spec, out=spec)
        s_dot = np.fft.ifft(spec, axis=1, out=spec)
        for x in (s, s_dot):
            x *= nc
            x *= self._scale
        return s, s_dot

    def moments(self) -> WaveformMoments:
        """Riemann-sum frame moments of s(t) at 1/B spacing.

        Each block of symbols is reduced to one sum per symbol (a row of the
        block), and those sums are added in symbol order as Python floats.
        """
        nc, nm = self.params.subcarriers, self.params.symbols
        dt = 1.0 / self.params.bandwidth_hz
        i1 = 0.0
        i2 = 0.0 + 0.0j
        i3 = 0.0
        # a block's arrays are freed as the next block's replace them: freed
        # first, their pages go back to the system and fault in again each block
        for m0 in range(0, nm, MOMENT_BLOCK):
            m1 = min(m0 + MOMENT_BLOCK, nm)
            s, s_dot = self._symbol_samples(m0, m1)
            # sample index m nc + k, exact in float64
            t = np.arange(m0 * nc, m1 * nc, dtype=float).reshape(m1 - m0, nc)
            t *= dt
            # the row sums match the per-symbol 1-D sums of tests/_oracles.py
            # bit for bit, which test_moments_match_per_symbol_reference holds
            power = np.abs(s_dot)
            power **= 2
            r1 = power.sum(axis=1).tolist()
            cross = np.multiply(t, s_dot, out=s_dot)
            cross *= np.conjugate(s, out=s)
            r2 = cross.sum(axis=1).tolist()
            np.abs(s, out=power)
            power **= 2
            t **= 2
            r3 = np.multiply(t, power, out=power).sum(axis=1).tolist()
            for e1, e2, e3 in zip(r1, r2, r3):
                i1 += e1 * dt
                i2 += e2 * dt
                i3 += e3 * dt
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


def crb_arrays(ofdm: OfdmParams, amp, noise_psd_linear: float, moments: WaveformMoments):
    """Range and velocity CRB arrays and the FIMs (shape (2, 2, paths)), one
    per path amplitude |a| in `amp`: J_dd = 8|a|^2/(sigma c0^2) * Re(I1),
    J_vd = 16 pi |a|^2/(sigma lam c0) * Re(j I2), J_vv = 32 pi^2 |a|^2/(sigma
    lam^2) * Re(I3). The first path with a zero amplitude or a FIM that is
    not positive definite raises UnobservablePathError."""
    # float_power squares through libm pow, as a scalar ** does; an array ** 2
    # multiplies, which rounds differently for about 1 value in 1,000
    a2 = np.float_power(np.atleast_1d(amp), 2.0)
    lam = ofdm.wavelength
    c0 = SPEED_OF_LIGHT
    s2 = noise_psd_linear
    jdd = 8.0 * a2 / (s2 * c0**2) * np.real(moments.deriv_energy)
    jvd = 16.0 * np.pi * a2 / (s2 * lam * c0) * np.real(1j * moments.time_cross)
    jvv = 32.0 * np.pi**2 * a2 / (s2 * lam**2) * np.real(moments.time_energy)
    det = jdd * jvv - jvd * jvd
    bad = np.flatnonzero((a2 == 0.0) | (det <= 0.0) | (jdd <= 0.0))
    if bad.size:
        raise UnobservablePathError("zero path coefficient" if a2[bad[0]] == 0.0
                                    else "FIM is not positive definite")
    return jvv / det, jdd / det, np.array([[jdd, jvd], [jvd, jvv]])


def fim(ofdm: OfdmParams, path: SensingPath, noise_psd_linear: float,
        moments: WaveformMoments) -> CrbPair:
    "Analytic 2x2 range/velocity FIM of one path and its CRBs (crb_arrays)."
    (range_crb,), (velocity_crb,), f = crb_arrays(ofdm, abs(path.coeff), noise_psd_linear, moments)
    return CrbPair(range_crb=float(range_crb), velocity_crb=float(velocity_crb), fim=f[:, :, 0])
