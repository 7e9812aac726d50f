"""Independent numerical oracles shared by the unit and acceptance tests.

The Fisher-information oracle below never calls the analytic moment formulas:
it builds the received-signal samples for perturbed (delay, Doppler) values
and forms the FIM from central finite differences on the same 1/B grid
whose sums the analytic moments take in closed form. Delay perturbations are
applied per symbol as an exact subcarrier phase ramp, which is the delayed
version of the same piecewise trigonometric-polynomial signal whose
derivative the analytic moments use. `fim_scalar` is the analytic FIM of one path in scalar
arithmetic, the rounding the array form in `sensing` must reproduce. The orientation-score reference lays the cosines out one row
per axis, the transpose of the optimizer's layout. The waveform and radar
references keep the whole-frame, one-symbol-at-a-time arithmetic that the
blocked code in `sensing` and `radar` must reproduce bit for bit, and
`moments_per_symbol` sums one drawn frame, which the closed-form moments are
held to at measured bounds. They draw
the complex QPSK grid again from the seed the waveform was built with (their
`wave_seed`), not from its index grid. The radar references take the
precision of their input: on complex64 frames and float32 maps they round
where the radar rounds, and on complex128 frames they give the float64
pipeline the single-precision radar is held to. `waveform_sample` evaluates
the waveform directly at arbitrary times, one sum over subcarriers. The
closure references synthesize the SNR table one (UE cell, UAV cell) pair at a
time and the CRBs one UAV cell at a time, each from its own legs (traversal
weights through `exp(-j kappa (d_b + d))`), float `np.mod` phases and `exp`
of the quantized phases. The step-1 reference is the joint loop that forms every
RIS's reference and sizes the plan in one pass, recomputing the worst served
SNR for each (UAV cell, RIS) pair. It forms each UE leg's dominant path with
its own `dominant_path_between` call, each UAV cell's reference cascade and
CRB one cell at a time through `fim`, and each (UAV cell, RIS) pair's beta
split with its own look over the grid, and searches orientations over the
whole coarse grid. The masked orientation score applies the field-of-view
mask to every cosine before the minima over targets. The full-grid
orientation search scores every coarse node, and the every-face path
enumeration runs the image method on every face whatever the budget.
"""

import numpy as np

from risdeploy.arrays import Orientation, OrientationBounds, panel_normal
from risdeploy.channel import PANEL_FOV_RAD, unit_cell_amplitude_gain
from risdeploy.errors import (InvalidInputError, NoPathError, SizeCapError,
                              UnobservablePathError, UnreachableTargetsError)
from risdeploy.optimizer import (ORIENTATION_STEP, Step1Result, _axis_grid,
                                 _orientation_score, constraint_constants,
                                 direct_power_share, kkt_power_allocation, ris_size,
                                 sensing_path)
from risdeploy.propagation import (_coincident, _face_checker, _los_path, _reflection_path,
                                   dominant_path_between, fspl_amplitude, path_loss_db)
from risdeploy.scene import line_of_sight
from risdeploy.sensing import fim
from risdeploy.units import SPEED_OF_LIGHT, db2lin


def qpsk_grid(wave, seed):
    "The complex QPSK grid (Nc, M) of `wave`, drawn again from the seed it was built with."
    return qpsk_symbols_exp(wave.params.subcarriers, wave.params.symbols, seed)


def _scale(wave) -> float:
    "The 1/sqrt(Nc) amplitude of the unit-average-power signal."
    return 1.0 / np.sqrt(wave.params.subcarriers)


def waveform_sample(wave, t, tau=0.0):
    """Direct evaluation of (s(t - tau), s_dot(t - tau)) of `wave` at arbitrary times.

    O(len(t) * Nc); for small frames.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tp = t - tau
    params = wave.params
    tsym = params.symbol_duration
    m = np.floor(tp / tsym).astype(int)
    valid = (tp >= 0.0) & (tp < params.frame_duration - 1e-15)
    m_safe = np.clip(m, 0, params.symbols - 1)
    local = tp - m_safe * tsym
    phases = np.exp(1j * 2.0 * np.pi * np.outer(wave.freqs, local))  # (Nc, Nt)
    sym = wave.symbols(cols=m_safe)
    s = _scale(wave) * np.sum(sym * phases, axis=0)
    s_dot = _scale(wave) * np.sum(sym * (1j * 2.0 * np.pi * wave.freqs)[:, None] * phases, axis=0)
    s[~valid] = 0.0
    s_dot[~valid] = 0.0
    return s, s_dot


def _delayed_symbol(grid, wave, m, offset):
    "Samples of symbol m's trig polynomial delayed by `offset` seconds."
    nc = wave.params.subcarriers
    spec = grid[:, m] * np.exp(-1j * 2.0 * np.pi * wave.freqs * offset)
    return np.fft.ifft(np.roll(spec, -(nc // 2))) * nc * _scale(wave)


def fd_fim(wave, path, noise_psd, *, wave_seed, h_tau=6e-12, h_dop=100.0):
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
    grid = qpsk_grid(wave, wave_seed)

    d_tau = []
    d_dop = []
    for m in range(nm):
        base = m * nc
        if base >= limit:
            break
        n_keep = min(nc, limit - base)
        t = (base + shift + np.arange(n_keep)) * dt
        s0 = _delayed_symbol(grid, wave, m, 0.0)[:n_keep]
        s_p = _delayed_symbol(grid, wave, m, +h_tau)[:n_keep]
        s_m = _delayed_symbol(grid, wave, m, -h_tau)[:n_keep]
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


def fim_scalar(ofdm, coeff, noise_psd, moments):
    """The analytic FIM of one path coefficient in scalar arithmetic, with
    |coeff|^2 as a scalar `** 2`: (range CRB, velocity CRB, 2x2 FIM)."""
    a2 = abs(coeff) ** 2
    if a2 == 0.0:
        raise UnobservablePathError("zero path coefficient")
    lam = ofdm.wavelength
    c0 = SPEED_OF_LIGHT
    jdd = 8.0 * a2 / (noise_psd * c0**2) * np.real(moments.deriv_energy)
    jvd = 16.0 * np.pi * a2 / (noise_psd * lam * c0) * np.real(1j * moments.time_cross)
    jvv = 32.0 * np.pi**2 * a2 / (noise_psd * lam**2) * np.real(moments.time_energy)
    det = jdd * jvv - jvd * jvd
    if det <= 0.0 or jdd <= 0.0:
        raise UnobservablePathError("FIM is not positive definite")
    inv = np.array([[jvv, -jvd], [-jvd, jdd]]) / det
    return float(inv[0, 0]), float(inv[1, 1]), np.array([[jdd, jvd], [jvd, jvv]])

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


def orientation_score_masked(axes, u_bs, u_ue, u_uav):
    """Worst-target cosine product, shape (n_axes,), from (3, n_axes) axes,
    with every cosine outside the field of view set to zero first."""
    n_ue = len(u_ue)
    targets = np.vstack([u_bs[None, :], u_ue] + ([] if u_uav is None else [u_uav]))
    cos = targets @ axes
    cos *= cos > np.cos(PANEL_FOV_RAD)
    score = cos[0] * np.min(cos[1:n_ue + 1], axis=0)
    if u_uav is not None:
        score *= np.min(cos[n_ue + 1:], axis=0)
    return score


def orientation_search_full(ris_pos, bs_pos, ue_centers, uav_centers, bounds):
    """The orientation search scoring every node of the coarse grid, then the
    20x finer pass in a +-1.5 step window around the coarse optimum."""
    p = np.asarray(ris_pos, dtype=float)

    def unit_rows(points):
        d = np.asarray(points, dtype=float).reshape(-1, 3) - p
        n = np.linalg.norm(d, axis=1, keepdims=True)
        if np.any(n < 1e-9):
            raise InvalidInputError("target coincides with the RIS position")
        return d / n

    u_bs = unit_rows(bs_pos)[0]
    u_ue = unit_rows(ue_centers)
    u_uav = unit_rows(uav_centers) if uav_centers is not None and len(uav_centers) else None
    axes, thetas, psis = _axis_grid(bounds, ORIENTATION_STEP)
    tg, pg = np.repeat(thetas, len(psis)), np.tile(psis, len(thetas))  # each node's angles
    score = _orientation_score(axes, u_bs, u_ue, u_uav)
    best = int(np.argmax(score))
    if score[best] <= 0.0:
        raise UnreachableTargetsError("no orientation sees the BS and any target")
    window = 1.5 * ORIENTATION_STEP
    fine = OrientationBounds(
        max(bounds.theta_low, tg[best] - window), min(bounds.theta_high, tg[best] + window),
        max(bounds.psi_low, pg[best] - window), min(bounds.psi_high, pg[best] + window))
    axes_f, thetas_f, psis_f = _axis_grid(fine, ORIENTATION_STEP / 20.0)
    tg_f, pg_f = np.repeat(thetas_f, len(psis_f)), np.tile(psis_f, len(thetas_f))
    score_f = _orientation_score(axes_f, u_bs, u_ue, u_uav)
    best_f = int(np.argmax(score_f))
    return Orientation(float(tg_f[best_f]), float(pg_f[best_f]))


def enumerate_paths_every_face(scene, cfg, a, b, *, los=None):
    """All modeled paths between two points, strongest first, with the image
    method run on every building face and the ground whatever the budget."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if _coincident(a, b):
        raise InvalidInputError("degenerate link: a == b")
    lam = cfg.wavelength
    loss_amp = 10.0 ** (-cfg.reflection_loss_db / 20.0)
    paths = []
    if los is None:
        los = line_of_sight(scene, a, b)
    if los:
        paths.append(_los_path(a, b, lam))
    for building in scene.buildings:
        for face in building.faces:
            rec = _reflection_path(scene, a, b, face.origin, face.normal, _face_checker(face),
                                   lam, loss_amp, cfg.pl_max_db)
            if rec is not None:
                paths.append(rec)
    rec = _reflection_path(scene, a, b, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                           lambda p: True, lam, loss_amp, cfg.pl_max_db)
    if rec is not None:
        paths.append(rec)
    paths = [p for p in paths if path_loss_db(p) <= cfg.pl_max_db]
    paths.sort(key=lambda p: (-p.attenuation, p.length))
    return paths


def same_bits(a, b) -> bool:
    "Equal shapes and dtypes and bit-for-bit equal values."
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def qpsk_symbols_exp(subcarriers, symbols, seed):
    "Seeded QPSK grid of shape (subcarriers, symbols), one exp per symbol."
    quad = np.random.default_rng(seed).integers(0, 4, size=(subcarriers, symbols))
    return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quad))


def moments_per_symbol(wave, tau=0.0, *, wave_seed):
    """(deriv_energy, time_cross, time_energy) of s(t - tau), one IFFT pair per symbol.

    The per-symbol sums are accumulated in symbol order.
    """
    p = wave.params
    nc, nm = p.subcarriers, p.symbols
    dt = 1.0 / p.bandwidth_hz
    shift = int(round(tau * p.bandwidth_hz))
    i1, i2, i3 = 0.0, 0.0 + 0.0j, 0.0
    limit = nc * nm - shift
    grid = qpsk_grid(wave, wave_seed)
    for m in range(nm):
        base = m * nc
        if base >= limit:
            break
        spec = np.roll(grid[:, m], -(nc // 2))
        spec_dot = np.roll(1j * 2.0 * np.pi * wave.freqs * grid[:, m], -(nc // 2))
        n_keep = min(nc, limit - base)
        s = (np.fft.ifft(spec) * nc * _scale(wave))[:n_keep]
        s_dot = (np.fft.ifft(spec_dot) * nc * _scale(wave))[:n_keep]
        t = (base + shift + np.arange(n_keep)) * dt
        i1 += float(np.sum(np.abs(s_dot) ** 2)) * dt
        i2 += complex(np.sum(t * s_dot * np.conj(s))) * dt
        i3 += float(np.sum(t**2 * np.abs(s) ** 2)) * dt
    return i1, i2, i3


def synthesize_returns_full(wave, paths, noise_psd=0.0, seed=1, *, wave_seed,
                            dtype=np.complex64):
    """Received frame (Nc, M) built from whole-frame outer products in complex128,
    rounded to `dtype`, plus one whole-frame noise draw for each part."""
    p = wave.params
    tsym = p.symbol_duration
    m_idx = np.arange(p.symbols)
    y = np.zeros((p.subcarriers, p.symbols), dtype=complex)
    for path in paths:
        delay_phase = np.exp(-1j * 2.0 * np.pi * wave.freqs * path.delay)
        doppler_phase = np.exp(1j * 2.0 * np.pi * path.doppler * m_idx * tsym)
        y += path.coeff * np.outer(delay_phase, doppler_phase)
    y = (y * qpsk_grid(wave, wave_seed)).astype(dtype)
    if noise_psd > 0.0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(noise_psd * p.bandwidth_hz / 2.0)
        y.real += sigma * rng.standard_normal(y.shape)
        y.imag += sigma * rng.standard_normal(y.shape)
    return y


def range_velocity_power(received, transmitted):
    """Range-velocity map |rv|^2 from whole-frame equalisation and FFTs, in the
    precision of `received` (complex64 gives a float32 map)."""
    equaliser = np.conj(transmitted).astype(received.dtype)
    profile = np.fft.ifft(received * equaliser, axis=0)
    rv = np.fft.fftshift(np.fft.fft(profile, axis=1), axes=1)
    return np.abs(rv) ** 2


def cfar_peaks(power, threshold_db, guard=2, training=8):
    """(row, column) of the CA-CFAR hits that are 3x3 local maxima, from whole-map
    temporaries. Each box mean keeps its range pass in the map's precision and
    takes its velocity pass in float64."""
    from scipy import ndimage

    def box_sum(size):
        ranges = ndimage.uniform_filter1d(power, size, axis=0, mode="wrap")
        return ndimage.uniform_filter1d(ranges, size, axis=1, mode="wrap",
                                        output=np.float64) * size**2

    outer = 2 * (guard + training) + 1
    inner = 2 * guard + 1
    sum_outer = box_sum(outer)
    sum_inner = box_sum(inner)
    noise = (sum_outer - sum_inner) / (outer**2 - inner**2)
    hits = power > db2lin(threshold_db) * np.maximum(noise, 0.0)
    local_max = power >= ndimage.maximum_filter(power, size=3, mode="wrap")
    return np.argwhere(hits & local_max)


def rv_map_csv_text(rv, max_range, vel_window=32):
    "Text of the cropped range-velocity map CSV, one csv.writer row per cell."
    import csv
    import io

    from risdeploy.radar import power_db

    keep_r = min(len(rv.range_axis), int(np.searchsorted(rv.range_axis, max_range)) + 32)
    mid = len(rv.velocity_axis) // 2
    lo, hi = max(0, mid - vel_window), min(len(rv.velocity_axis), mid + vel_window + 1)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["# range_resolution_m", rv.resolution[0]])
    writer.writerow(["# velocity_resolution_mps", rv.resolution[1]])
    writer.writerow(["range_m", "velocity_mps", "power_db"])
    map_db = power_db(rv.power)
    for i in range(keep_r):
        for j in range(lo, hi):
            writer.writerow([repr(float(rv.range_axis[i])), repr(float(rv.velocity_axis[j])),
                             repr(float(map_db[i, j]))])
    return buf.getvalue()


def quantize_phases_mod(ideal, bits):
    """Nearest L-bit codeword 2 pi l / 2^L to each phase, as a phase, from
    float np.mod; exact midpoints resolve to the lower codeword."""
    n = 2**bits
    step = 2.0 * np.pi / n
    x = np.asarray(ideal, dtype=float) % (2.0 * np.pi)
    lower = np.floor(x / step)
    frac = x / step - lower
    idx = np.where(frac > 0.5, lower + 1, lower) % n
    return idx * step


def dual_beam_phases_mod(ctx, d_b, d_ue, d_uav, beta):
    "Quantized focused dual-beam phases over the panel cells, through np.mod."
    kappa = 2.0 * np.pi / ctx.wavelength
    comm = np.exp(1j * kappa * (d_b + d_ue))
    if d_uav is None or beta >= 1.0:
        ideal = np.mod(np.angle(comm), 2.0 * np.pi)
    else:
        sense = np.exp(1j * kappa * (d_b + d_uav))
        ideal = np.mod(np.angle(np.sqrt(beta) * comm + np.sqrt(1.0 - beta) * sense),
                       2.0 * np.pi)
    return quantize_phases_mod(ideal, ctx.cfg.bits)


def panel_leg(ctx, panel, point):
    """Distance of each panel cell toward a point and the traversal weights of
    the BS -> panel -> point leg: amplitudes times exp(-j kappa (d_b + d))."""
    diff = np.asarray(point, dtype=float) - panel.cells
    dist = np.linalg.norm(diff, axis=1)
    cos = np.clip(np.einsum("ij,j->i", diff, panel.axis) / dist, -1.0, 1.0)
    amp = (unit_cell_amplitude_gain(np.arccos(cos), ctx.cell_area, ctx.wavelength)
           * fspl_amplitude(dist, ctx.wavelength))
    kappa = 2.0 * np.pi / ctx.wavelength
    return dist, panel.amp_b * amp * np.exp(-1j * kappa * (panel.d_b + dist))


def explicit_ue_snr_pairs(ctx, result, panel):
    "SNR table (covered cells, UAV columns) of one panel, one pair at a time."
    n = panel.index
    uavs = [None] if ctx.cfg.mode == "comm-only" else ctx.uav_grid.centers
    cells = ctx.regions[n].covered_cells
    table = np.zeros((len(cells), len(uavs)))
    for i, cell in enumerate(cells):
        d_k, weights = panel_leg(ctx, panel, ctx.ue_grid.centers[cell])
        for u, uav in enumerate(uavs):
            d_u = None if uav is None else panel_leg(ctx, panel, uav)[0]
            phases = dual_beam_phases_mod(ctx, panel.d_b, d_k, d_u,
                                          float(result.beta_per_uav[u, n]))
            h = np.sum(weights * np.exp(1j * phases))
            p_rx = (ctx.link.tx_power_w * result.omega_per_uav[u, n + 1]
                    * ctx.bs_amp_gain**2 * abs(h) ** 2)
            table[i, u] = p_rx / ctx.link.noise_power_w
    return table


def explicit_sensing_crb_columns(ctx, result, panel, ue_cell):
    """Closure CRBs (range row, velocity row) over the UAV cells, one column at
    a time: each column forms its own UE and UAV legs and three exps."""
    n = panel.index
    crb = np.empty((2, len(ctx.uav_grid.centers)))
    for u, uav in enumerate(ctx.uav_grid.centers):
        d_k, _ = panel_leg(ctx, panel, ctx.ue_grid.centers[ue_cell])
        d_u, weights = panel_leg(ctx, panel, uav)
        phases = dual_beam_phases_mod(ctx, panel.d_b, d_k, d_u, float(result.beta_per_uav[u, n]))
        h = complex(np.sum(weights * np.exp(1j * phases)))
        path = sensing_path(ctx, n + 1, uav, float(result.omega_per_uav[u, n + 1]),
                            ris=result.positions[n], cascade=h)
        pair = fim(ctx.ofdm, path, ctx.link.noise_psd_w_hz, ctx.moments)
        crb[:, u] = pair.range_crb, pair.velocity_crb
    return crb


def reference_comm_snr_per_leg(ctx, position, orientation, region):
    "Reference per-UE-cell SNR with one dominant_path_between call per leg."
    p = np.asarray(position, dtype=float)
    path_b = dominant_path_between(ctx.scene, ctx.prop, p, ctx.scene.bs_position)
    paths_k = [dominant_path_between(ctx.scene, ctx.prop, p, ctx.ue_grid.centers[cell])
               for cell in region.covered_cells]
    axis = panel_normal(orientation.theta_r, orientation.psi_r)
    cos = np.array([path_b.depart_dir] + [path.depart_dir for path in paths_k]) @ axis
    g = unit_cell_amplitude_gain(np.arccos(np.clip(cos, -1, 1)), ctx.cell_area,
                                 ctx.wavelength)
    att_k = np.array([path.attenuation for path in paths_k])
    base = (ctx.link.tx_power_w / ctx.link.noise_power_w * ctx.quant_eff
            * ctx.bs_amp_gain**2 * path_b.attenuation**2)
    return base * att_k**2 * ctx.cfg.efficiency * (ctx.m_ref * g[0] * g[1:]) ** 2


def reference_sensing_crbs_per_cell(ctx, position, orientation):
    "Reference CRB pair per UAV cell, each cell's cascade formed on its own."
    p = np.asarray(position, dtype=float)
    axis = panel_normal(orientation.theta_r, orientation.psi_r)
    bs = ctx.scene.bs_position
    lam = ctx.wavelength
    crbs = []
    for center in ctx.uav_grid.centers:
        d_b = float(np.linalg.norm(p - bs))
        d_u = float(np.linalg.norm(center - p))
        cos_b = float(np.clip(np.dot((bs - p) / d_b, axis), 0.0, None))
        cos_u = float(np.clip(np.dot((center - p) / d_u, axis), 0.0, None))
        g_cells = (ctx.m_ref * np.sqrt(ctx.cfg.efficiency * ctx.quant_eff)
                   * unit_cell_amplitude_gain(np.arccos(cos_b), ctx.cell_area, lam)
                   * unit_cell_amplitude_gain(np.arccos(cos_u), ctx.cell_area, lam))
        cascade = fspl_amplitude(d_b, lam) * g_cells * fspl_amplitude(d_u, lam)
        crbs.append(fim(ctx.ofdm, sensing_path(ctx, 1, center, 1.0, ris=p, cascade=cascade),
                        ctx.link.noise_psd_w_hz, ctx.moments))
    return crbs


def best_beta_per_cell(ctx, gamma_worst, range_crb, velocity_crb):
    """Beta in the grid minimizing c_n = max(c1, c2, c3) for one (UAV cell,
    RIS) pair with these reference CRBs, the first one on a tie, and that c_n."""
    grid = np.asarray(ctx.cfg.beta_grid, dtype=float)
    c_max = constraint_constants(gamma_worst, range_crb, velocity_crb, ctx, grid).c_max
    best = int(np.argmin(c_max))
    return float(grid[best]), float(c_max[best])


def step1_evaluate_joint(positions, context, omega0=None):
    "Step 1 as one joint loop over the RISs, then the sizing over (UAV cell, RIS) pairs."
    n_ris = len(context.regions)
    if len(positions) != n_ris:
        raise InvalidInputError("one position per deployable region required")
    if omega0 is None:
        omega0 = direct_power_share(context)
    mode = context.cfg.mode
    comm_only = mode == "comm-only"
    cov_areas = np.array([r.coverage_area for r in context.regions])
    orientations = []
    gamma_refs = []
    crb_refs = []
    for n, region in enumerate(context.regions):
        bounds = context.region_bounds(region)
        uav_centers = None if comm_only else context.uav_grid.centers
        if mode == "passive-orientation":
            normal = region.face.normal
            orient = Orientation(0.0, float(np.arctan2(normal[1], normal[0])))
        else:
            orient = orientation_search_full(positions[n], context.scene.bs_position,
                                             context.ue_grid.centers[region.covered_cells],
                                             uav_centers, bounds)
        orientations.append(orient)
        try:
            gamma = reference_comm_snr_per_leg(context, positions[n], orient, region)
        except NoPathError as exc:
            raise UnreachableTargetsError(
                f"RIS {n} at {np.round(positions[n], 2)}: {exc}") from exc
        if np.max(gamma) <= 0.0:
            raise UnreachableTargetsError(
                f"RIS {n} at {np.round(positions[n], 2)} reaches no UE cell")
        if np.min(gamma) <= 0.0 and mode != "passive-orientation":
            raise UnreachableTargetsError(
                f"RIS {n} at {np.round(positions[n], 2)} has a zero-SNR UE cell")
        gamma_refs.append(gamma)
        if comm_only:
            crb_refs.append(None)
        else:
            try:
                crb_refs.append(reference_sensing_crbs_per_cell(context, positions[n],
                                                                orient))
            except UnobservablePathError as exc:
                raise UnreachableTargetsError(
                    f"RIS {n} at {np.round(positions[n], 2)}: {exc}") from exc
    m_u = 1 if comm_only else len(context.uav_grid.centers)
    betas = np.zeros((m_u, n_ris))
    omegas = np.zeros((m_u, n_ris + 1))
    c_table = np.zeros((m_u, n_ris))
    for u in range(m_u):
        for n in range(n_ris):
            gamma = gamma_refs[n]
            gamma_worst = float(np.min(gamma[gamma > 0.0]))
            if comm_only:
                beta, c_n = 1.0, context.link.snr_threshold_linear / gamma_worst
            else:
                crb = crb_refs[n][u]
                beta, c_n = best_beta_per_cell(context, gamma_worst, crb.range_crb,
                                               crb.velocity_crb)
            betas[u, n] = beta
            c_table[u, n] = c_n
        omega = kkt_power_allocation(c_table[u], cov_areas, omega0)
        omegas[u, 0] = omega0
        omegas[u, 1:] = omega
    sizes = []
    objective = 0.0
    margin = db2lin(context.cfg.size_margin_db)
    size_cap = context.cfg.size_cap
    for n in range(n_ris):
        u_star = int(np.argmax(c_table[:, n] / omegas[:, n + 1]))
        size = ris_size(c_table[u_star, n] * margin, omegas[u_star, n + 1],
                        context.cell_area, context.m_ref, context.cell_spacing)
        if size.side > size_cap:
            raise SizeCapError(f"RIS {n} at {np.round(positions[n], 2)} needs a "
                               f"{size.side:.4g} m panel side, over size_cap {size_cap:g} m")
        sizes.append(size)
        objective += size.area / cov_areas[n]
    return Step1Result(objective=float(objective),
                       positions=[np.asarray(p, dtype=float) for p in positions],
                       orientations=orientations, sizes=sizes, beta_per_uav=betas,
                       omega_per_uav=omegas, gamma_ref=gamma_refs)
