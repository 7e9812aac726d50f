"""Independent numerical oracles shared by the unit and acceptance tests.

The Fisher-information oracle below never calls the analytic moment formulas:
it builds the received-signal samples for perturbed (delay, Doppler) values
and forms the FIM from central finite differences on the same 1/B Riemann
grid the analytic code integrates over. Delay perturbations are applied per
symbol as an exact subcarrier phase ramp, which is the delayed version of the
same piecewise trigonometric-polynomial signal whose derivative the analytic
moments use. The orientation-score reference lays the cosines out one row
per axis, the transpose of the optimizer's layout. The waveform and radar
references keep the whole-frame, one-symbol-at-a-time arithmetic that the
blocked code in `sensing` and `radar` must reproduce bit for bit. They draw
the complex QPSK grid again from the seed the waveform was built with (their
`wave_seed`), not from its index grid. The
closure reference synthesizes the SNR table one (UE cell, UAV cell) pair at a
time, each from its own legs, float `np.mod` phases and `exp` of the
quantized phases. The step-1 reference is the joint loop that forms every
RIS's reference and sizes the plan in one pass, recomputing the worst served
SNR for each (UAV cell, RIS) pair.
"""

import numpy as np

from risdeploy.arrays import Orientation
from risdeploy.channel import PANEL_FOV_RAD
from risdeploy.errors import (InvalidInputError, NoPathError, UnobservablePathError,
                              UnreachableTargetsError)
from risdeploy.optimizer import (Step1Result, _best_beta, _square_panel, direct_power_share,
                                 kkt_power_allocation, orientation_search, reference_comm_snr,
                                 reference_sensing_crbs, ris_size)
from risdeploy.units import SPEED_OF_LIGHT, db2lin, lin2db


def qpsk_grid(wave, seed):
    "The complex QPSK grid (Nc, M) of `wave`, drawn again from the seed it was built with."
    return qpsk_symbols_exp(wave.params.subcarriers, wave.params.symbols, seed)


def _delayed_symbol(grid, wave, m, offset):
    "Samples of symbol m's trig polynomial delayed by `offset` seconds."
    nc = wave.params.subcarriers
    spec = grid[:, m] * np.exp(-1j * 2.0 * np.pi * wave.freqs * offset)
    return np.fft.ifft(np.roll(spec, -(nc // 2))) * nc * wave._scale


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


def same_bits(a, b) -> bool:
    "Equal shapes and bit-for-bit equal float64/complex128 values."
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


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
        s = (np.fft.ifft(spec) * nc * wave._scale)[:n_keep]
        s_dot = (np.fft.ifft(spec_dot) * nc * wave._scale)[:n_keep]
        t = (base + shift + np.arange(n_keep)) * dt
        i1 += float(np.sum(np.abs(s_dot) ** 2)) * dt
        i2 += complex(np.sum(t * s_dot * np.conj(s))) * dt
        i3 += float(np.sum(t**2 * np.abs(s) ** 2)) * dt
    return i1, i2, i3


def synthesize_returns_full(wave, paths, noise_psd=0.0, seed=1, *, wave_seed):
    "Received frame (Nc, M) built from whole-frame outer products and one noise draw."
    p = wave.params
    tsym = p.symbol_duration
    m_idx = np.arange(p.symbols)
    y = np.zeros((p.subcarriers, p.symbols), dtype=complex)
    for path in paths:
        delay_phase = np.exp(-1j * 2.0 * np.pi * wave.freqs * path.delay)
        doppler_phase = np.exp(1j * 2.0 * np.pi * path.doppler * m_idx * tsym)
        y += path.coeff * np.outer(delay_phase, doppler_phase)
    y *= qpsk_grid(wave, wave_seed)
    if noise_psd > 0.0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(noise_psd * p.bandwidth_hz / 2.0)
        y += sigma * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y


def range_velocity_power_db(received, transmitted):
    "Range-velocity power map in dB from whole-frame equalisation and FFTs."
    profile = np.fft.ifft(received / transmitted, axis=0)
    rv = np.fft.fftshift(np.fft.fft(profile, axis=1), axes=1)
    return lin2db(np.maximum(np.abs(rv) ** 2, 1e-300))


def cfar_peaks(power_db, threshold_db, guard=2, training=8):
    "(row, column) of the CA-CFAR hits that are 3x3 local maxima, from whole-map temporaries."
    from scipy import ndimage

    power = db2lin(power_db)
    outer = 2 * (guard + training) + 1
    inner = 2 * guard + 1
    sum_outer = ndimage.uniform_filter(power, size=outer, mode="wrap") * outer**2
    sum_inner = ndimage.uniform_filter(power, size=inner, mode="wrap") * inner**2
    noise = (sum_outer - sum_inner) / (outer**2 - inner**2)
    hits = power > db2lin(threshold_db) * np.maximum(noise, 0.0)
    local_max = power >= ndimage.maximum_filter(power, size=3, mode="wrap")
    return np.argwhere(hits & local_max)


def rv_map_csv_text(rv, max_range, vel_window=32):
    "Text of the cropped range-velocity map CSV, one csv.writer row per cell."
    import csv
    import io

    keep_r = min(len(rv.range_axis), int(np.searchsorted(rv.range_axis, max_range)) + 32)
    mid = len(rv.velocity_axis) // 2
    lo, hi = max(0, mid - vel_window), min(len(rv.velocity_axis), mid + vel_window + 1)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["# range_resolution_m", rv.resolution[0]])
    writer.writerow(["# velocity_resolution_mps", rv.resolution[1]])
    writer.writerow(["range_m", "velocity_mps", "power_db"])
    for i in range(keep_r):
        for j in range(lo, hi):
            writer.writerow([repr(float(rv.range_axis[i])), repr(float(rv.velocity_axis[j])),
                             repr(float(rv.power_db[i, j]))])
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


def explicit_ue_snr_pairs(ctx, result, panel):
    "SNR table (covered cells, UAV columns) of one panel, one pair at a time."
    from risdeploy.evaluation import _leg, _traversal

    n = panel.index
    uavs = [None] if ctx.cfg.mode == "comm-only" else ctx.uav_grid.centers
    cells = ctx.regions[n].covered_cells
    table = np.zeros((len(cells), len(uavs)))
    for i, cell in enumerate(cells):
        d_k, cos_k = _leg(panel.cells, ctx.ue_grid.centers[cell], panel.axis)
        weights = _traversal(ctx, panel, d_k, cos_k)
        for u, uav in enumerate(uavs):
            d_u = None if uav is None else _leg(panel.cells, uav, panel.axis)[0]
            phases = dual_beam_phases_mod(ctx, panel.d_b, d_k, d_u,
                                          float(result.beta_per_uav[u, n]))
            h = np.sum(weights * np.exp(1j * phases))
            p_rx = (ctx.link.tx_power_w * result.omega_per_uav[u, n + 1]
                    * ctx.bs_amp_gain**2 * abs(h) ** 2)
            table[i, u] = p_rx / ctx.link.noise_power_w
    return table


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
            normal = region.normal()
            orient = Orientation(0.0, float(np.arctan2(normal[1], normal[0])))
        else:
            orient = orientation_search(positions[n], context.scene.bs_position,
                                        context.ue_grid.centers[region.covered_cells],
                                        uav_centers, bounds)
        orientations.append(orient)
        try:
            gamma = reference_comm_snr(context, positions[n], orient, region)
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
                crb_refs.append(reference_sensing_crbs(context, positions[n], orient))
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
                beta, c_n = _best_beta(context, gamma_worst, crb_refs[n][u])
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
            size = _square_panel(size_cap**2, context.cell_spacing)
        sizes.append(size)
        objective += size.area / cov_areas[n]
    return Step1Result(objective=float(objective),
                       positions=[np.asarray(p, dtype=float) for p in positions],
                       orientations=orientations, sizes=sizes, beta_per_uav=betas,
                       omega_per_uav=omegas, c_per_uav=c_table, gamma_ref=gamma_refs)
