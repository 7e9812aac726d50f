"""Sensing model: OFDM waveform moments, Fisher information and CRBs.

The probing waveform is a seeded random-QPSK OFDM frame. The FIM's three
frame integrals are sums on the 1/B sample grid over one frame, taken in
closed form: their expectations over the unit-modulus symbols (exact for the
derivative energy, by Parseval's theorem), so sizing does not depend on the
symbol draw. Finite-difference oracles sum the same grid for a drawn frame.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnobservablePathError
from .units import SPEED_OF_LIGHT, wavelength

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

    def symbols(self, rows=slice(None), cols=slice(None), out=None) -> np.ndarray:
        "The complex symbols S[rows, cols] of the frame, written into `out` when it is given."
        # indices are 0..3, so "clip" never clips; unlike "raise" it writes
        # straight into `out`, with no temporary
        return _QPSK.take(self.index[rows, cols], out=out, mode="clip")

    def moments(self) -> WaveformMoments:
        """Frame moments of s(t) on the 1/B grid, in closed form.

        With N = Nc M samples at dt = 1/B, n dt the time of sample n and w_p =
        2 pi f_p, independent unit-modulus symbols give E[|s|^2] = 1 and
        E[s_dot conj(s)] = j mean(w) at every sample. So I1 = sum |s_dot|^2 dt
        = N mean(w^2) dt, exactly for any draw (Parseval's theorem per
        symbol), and the expectations of the others are I2 = sum t s_dot
        conj(s) dt = j mean(w) dt^2 N(N-1)/2 and I3 = sum t^2 |s|^2 dt = dt^3
        (N-1)N(2N-1)/6 (M. Braun, OFDM Radar Algorithms in Mobile Communication
        Networks, KIT 2014). The sums over n are Python ints, exact.
        """
        n = self.params.subcarriers * self.params.symbols
        dt = 1.0 / self.params.bandwidth_hz
        w = 2.0 * np.pi * self.freqs
        i2 = float(np.mean(w)) * dt**2 * (n * (n - 1) // 2)
        return WaveformMoments(deriv_energy=n * float(np.mean(w * w)) * dt,
                               time_cross=complex(0.0, i2),
                               time_energy=dt**3 * ((n - 1) * n * (2 * n - 1) // 6))


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
