"""Independent numerical oracles shared by the unit and acceptance tests.

The Fisher-information oracle below never calls the analytic moment formulas:
it builds the received-signal samples for perturbed (delay, Doppler) values
and forms the FIM from central finite differences on the same 1/B Riemann
grid the analytic code integrates over. Delay perturbations are applied per
symbol as an exact subcarrier phase ramp, which is the delayed version of the
same piecewise trigonometric-polynomial signal whose derivative the analytic
moments use. The orientation-score reference lays the cosines out one row
per axis, the transpose of the optimizer's layout.
"""

import numpy as np

from risdeploy.channel import PANEL_FOV_RAD
from risdeploy.units import SPEED_OF_LIGHT


def _delayed_symbol(wave, m, offset):
    "Samples of symbol m's trig polynomial delayed by `offset` seconds."
    nc = wave.params.subcarriers
    spec = wave.grid[:, m] * np.exp(-1j * 2.0 * np.pi * wave.freqs * offset)
    return np.fft.ifft(np.roll(spec, -(nc // 2))) * nc * wave._scale


def fd_fim(wave, path, noise_psd, h_tau=6e-12, h_dop=100.0):
    """2x2 range/velocity FIM from central differences, shape (2, 2).

    The signal model is mu(t) = coeff * s(t - tau) * exp(j 2 pi doppler t)
    sampled at 1/B over the frame, with the delay quantized part handled by
    an integer grid shift (as in the analytic moments) and the perturbation
    applied inside each symbol.
    """
    p = wave.params
    bw = p.bandwidth_hz
    dt = 1.0 / bw
    nc, nm = p.subcarriers, p.symbols
    shift = int(round(path.delay * bw))
    assert abs(path.delay * bw - shift) < 1e-6, "oracle expects an on-grid delay"
    total = nc * nm
    limit = total - shift

    d_tau = []
    d_dop = []
    for m in range(nm):
        base = m * nc
        if base >= limit:
            break
        n_keep = min(nc, limit - base)
        t = (base + shift + np.arange(n_keep)) * dt
        s0 = _delayed_symbol(wave, m, 0.0)[:n_keep]
        s_p = _delayed_symbol(wave, m, +h_tau)[:n_keep]
        s_m = _delayed_symbol(wave, m, -h_tau)[:n_keep]
        carrier = np.exp(1j * 2.0 * np.pi * path.doppler * t)
        # d mu / d tau by central difference on the delayed signal
        d_tau.append(path.coeff * (s_p - s_m) / (2.0 * h_tau) * carrier)
        # d mu / d nu by central difference on the Doppler exponential
        ramp = (np.exp(1j * 2.0 * np.pi * h_dop * t)
                - np.exp(-1j * 2.0 * np.pi * h_dop * t)) / (2.0 * h_dop)
        d_dop.append(path.coeff * s0 * ramp * carrier)
    d_tau = np.concatenate(d_tau)
    d_dop = np.concatenate(d_dop)

    grads = np.stack([d_tau, d_dop])
    j_tau_nu = (2.0 / noise_psd) * np.real(grads @ grads.conj().T) * dt
    # delay/Doppler -> range/velocity: tau = 2 d / c, nu = 2 v / lambda
    jac = np.diag([2.0 / SPEED_OF_LIGHT, 2.0 / p.wavelength])
    return jac @ j_tau_nu @ jac


def orientation_score_rows(axes, u_bs, u_ue, u_uav):
    """Worst-target cosine product, shape (n_axes,), from (n_axes, 3) axes.

    The cosines form one short row per axis and the minima over targets run
    along those rows.
    """
    targets = [u_bs[None, :], u_ue] + ([] if u_uav is None else [u_uav])
    cos = axes @ np.vstack(targets).T
    cos *= cos > np.cos(PANEL_FOV_RAD)
    n_ue = len(u_ue)
    score = cos[:, 0] * np.min(cos[:, 1:n_ue + 1], axis=1)
    if u_uav is not None:
        score *= np.min(cos[:, n_ue + 1:], axis=1)
    return score
