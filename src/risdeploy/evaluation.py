"""Deployment closure checks: explicit channel synthesis for a sized result.

The optimizer sizes panels through the scaled reference model; this module
re-evaluates the returned deployment with the full machinery — per-cell RIS
geometry, dual-beam phase profiles focused with exact per-cell distances,
L-bit quantization — and reports the SNR/CRB margins and the gap between the
scaling model and the synthesized gains. Each cell uses the sizing model's
per-cell gain, field of view included.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import panel_normal
from .channel import unit_cell_amplitude_gain
from .errors import InvalidInputError
from .optimizer import OptimizerContext, OptimizationResult
from .propagation import fspl_amplitude
from .ris_bf import quantize_phases, ris_cell_positions
from .sensing import CrbPair, SensingPath, fim
from .units import SPEED_OF_LIGHT, lin2db


@dataclass(frozen=True)
class ClosureReport:
    snr_db: list  # per RIS: (covered cells,) worst over UAV cells
    crb_range: np.ndarray  # (N, M_u)
    crb_velocity: np.ndarray  # (N, M_u)
    snr_margin_db: float  # min over served cells of SNR - threshold
    crb_range_margin_db: float  # min over cells of threshold/CRB, in dB
    crb_velocity_margin_db: float
    gain_gap_db: np.ndarray  # per RIS mean |synthesized - predicted| served-cell SNR gap


def _panel(ctx: OptimizerContext, result: OptimizationResult, n: int):
    size = result.sizes[n]
    cells = ris_cell_positions(size.cells_per_side, ctx.cell_spacing,
                               result.positions[n], result.orientations[n])
    o = result.orientations[n]
    return cells, panel_normal(o.theta_r, o.psi_r)


def _leg(cells: np.ndarray, point, axis: np.ndarray):
    "Per-cell distance and boresight cosine toward a point."
    diff = np.asarray(point, dtype=float) - cells
    dist = np.linalg.norm(diff, axis=1)
    return dist, np.clip(np.einsum("ij,j->i", diff, axis) / dist, -1.0, 1.0)


def _dual_beam_profile(ctx, cells, d_b, d_ue, d_uav, beta: float) -> np.ndarray:
    "Quantized focused dual-beam phases over the panel cells."
    kappa = 2.0 * np.pi / ctx.wavelength
    comm = np.exp(1j * kappa * (d_b + d_ue))
    if d_uav is None or beta >= 1.0:
        ideal = np.mod(np.angle(comm), 2.0 * np.pi)
    else:
        sense = np.exp(1j * kappa * (d_b + d_uav))
        ideal = np.mod(np.angle(np.sqrt(beta) * comm + np.sqrt(1.0 - beta) * sense),
                       2.0 * np.pi)
    return quantize_phases(ideal, ctx.bits)


def _cascade_sum(ctx, phases, d_a, cos_a, d_b_leg, cos_b_leg):
    "Complex panel sum of one RIS traversal between two endpoints."
    kappa = 2.0 * np.pi / ctx.wavelength
    amp = (np.sqrt(ctx.efficiency)
           * unit_cell_amplitude_gain(np.arccos(cos_a), ctx.cell_area, ctx.wavelength)
           * unit_cell_amplitude_gain(np.arccos(cos_b_leg), ctx.cell_area, ctx.wavelength)
           * (ctx.wavelength / (4.0 * np.pi * d_a))
           * (ctx.wavelength / (4.0 * np.pi * d_b_leg)))
    return complex(np.sum(amp * np.exp(1j * phases) * np.exp(-1j * kappa * (d_a + d_b_leg))))


def explicit_ue_snr(ctx: OptimizerContext, result: OptimizationResult, n: int,
                    cell_index: int, uav_index: int) -> float:
    """Synthesized SNR at one UE cell through RIS n while cell uav_index is
    being sensed (the dual-beam split for that UAV cell applies)."""
    cells, axis = _panel(ctx, result, n)
    ue = ctx.ue_grid.centers[cell_index]
    d_b, cos_b = _leg(cells, ctx.scene.bs_position, axis)
    d_k, cos_k = _leg(cells, ue, axis)
    comm_only = ctx.mode == "comm-only"
    if comm_only:
        phases = _dual_beam_profile(ctx, cells, d_b, d_k, None, 1.0)
        omega = result.omega_per_uav[0, n + 1]
    else:
        uav = ctx.uav_grid.centers[uav_index]
        d_u, _ = _leg(cells, uav, axis)
        beta = float(result.beta_per_uav[uav_index, n])
        phases = _dual_beam_profile(ctx, cells, d_b, d_k, d_u, beta)
        omega = result.omega_per_uav[uav_index, n + 1]
    h = _cascade_sum(ctx, phases, d_b, cos_b, d_k, cos_k)
    p_rx = ctx.link.tx_power_w * omega * ctx.bs_amp_gain**2 * abs(h) ** 2
    return float(p_rx / ctx.link.noise_power_w)


def explicit_sensing_crb(ctx: OptimizerContext, result: OptimizationResult, n: int,
                         uav_index: int, ue_cell: int | None = None) -> CrbPair:
    """Synthesized CRB for UAV cell uav_index through the sized RIS n, with
    the comm beam pointed at ue_cell (default: the RIS's first covered cell)."""
    if ctx.mode == "comm-only":
        raise InvalidInputError("sensing closure undefined in comm-only mode")
    cells, axis = _panel(ctx, result, n)
    region = ctx.regions[n]
    if ue_cell is None:
        ue_cell = region.covered_cells[0]
    ue = ctx.ue_grid.centers[ue_cell]
    uav = ctx.uav_grid.centers[uav_index]
    d_b, cos_b = _leg(cells, ctx.scene.bs_position, axis)
    d_k, _ = _leg(cells, ue, axis)
    d_u, cos_u = _leg(cells, uav, axis)
    beta = float(result.beta_per_uav[uav_index, n])
    omega = float(result.omega_per_uav[uav_index, n + 1])
    phases = _dual_beam_profile(ctx, cells, d_b, d_k, d_u, beta)
    h = _cascade_sum(ctx, phases, d_b, cos_b, d_u, cos_u)
    d_bu = float(np.linalg.norm(np.asarray(uav) - ctx.scene.bs_position))
    coeff = (2.0 * np.sqrt(ctx.link.tx_power_w * omega) * ctx.bs_amp_gain**2
             * h * ctx.rcs_amp * fspl_amplitude(d_bu, ctx.wavelength))
    d_round = (float(np.linalg.norm(np.asarray(uav) - result.positions[n]))
               + float(np.linalg.norm(result.positions[n] - ctx.scene.bs_position)) + d_bu)
    path = SensingPath(index=n + 1, delay=d_round / SPEED_OF_LIGHT, doppler=0.0,
                       coeff=coeff, carrier_hz=ctx.ofdm.carrier_hz)
    return fim(ctx.ofdm, path, ctx.link.noise_psd_w_hz, ctx.moments)


def closure_report(ctx: OptimizerContext, result: OptimizationResult,
                   step1_result=None) -> ClosureReport:
    """Re-evaluate the deployment through the explicit channel stack.

    For each RIS and covered UE cell, the reported SNR is the worst over UAV
    cells (each UAV cell fixes the beta split in force while it is sensed).
    The gain gap compares the synthesized SNR against the scaling-model
    prediction beta * omega * (M_n / M_ref)^2 * gamma_ref. The SNR margin,
    the gain gap and the comm beam of the CRB check cover the cells the
    sizing model serves (gamma_ref > 0); the others stay in snr_db, at
    -inf when the panel sees them beyond its field of view.
    """
    comm_only = ctx.mode == "comm-only"
    m_u = 1 if comm_only else len(ctx.uav_grid.centers)
    n_ris = len(ctx.regions)
    snr_db = []
    gaps = np.zeros(n_ris)
    crb_r = np.full((n_ris, m_u), np.nan)
    crb_v = np.full((n_ris, m_u), np.nan)
    thr_db = lin2db(ctx.thresholds.snr_threshold)
    snr_margin = np.inf
    gamma_ref = None if step1_result is None else step1_result.gamma_ref
    for n, region in enumerate(ctx.regions):
        worst = np.full(len(region.covered_cells), np.inf)
        gamma = np.ones(len(worst)) if gamma_ref is None else gamma_ref[n]
        served = gamma > 0.0
        gap_samples = []
        for i, cell in enumerate(region.covered_cells):
            for u in range(m_u):
                snr = explicit_ue_snr(ctx, result, n, cell, u)
                worst[i] = min(worst[i], snr)
                if gamma_ref is not None and served[i]:
                    beta = 1.0 if comm_only else float(result.beta_per_uav[u, n])
                    omega = float(result.omega_per_uav[u, n + 1])
                    scale = (result.sizes[n].cell_count / ctx.m_ref) ** 2
                    pred = beta * omega * scale * gamma_ref[n][i]
                    gap_samples.append(lin2db(snr) - lin2db(pred))
        with np.errstate(divide="ignore"):
            snr_db.append(lin2db(worst))
        snr_margin = min(snr_margin, float(np.min(snr_db[n][served]) - thr_db))
        gaps[n] = float(np.mean(np.abs(gap_samples))) if gap_samples else np.nan
        if not comm_only:
            worst_cell = region.covered_cells[int(np.argmin(np.where(served, gamma, np.inf)))]
            for u in range(m_u):
                pair = explicit_sensing_crb(ctx, result, n, u, ue_cell=worst_cell)
                crb_r[n, u] = pair.range_crb
                crb_v[n, u] = pair.velocity_crb
    if comm_only:
        rng_margin = vel_margin = np.nan
    else:
        rng_margin = float(np.min(lin2db(ctx.thresholds.range_crb_max / crb_r)))
        vel_margin = float(np.min(lin2db(ctx.thresholds.velocity_crb_max / crb_v)))
    return ClosureReport(snr_db=snr_db, crb_range=crb_r, crb_velocity=crb_v,
                         snr_margin_db=float(snr_margin), crb_range_margin_db=rng_margin,
                         crb_velocity_margin_db=vel_margin, gain_gap_db=gaps)


def demo_sensing_paths(ctx: OptimizerContext, result: OptimizationResult, uav_position,
                       uav_velocity) -> list:
    """Delay/Doppler/coefficient per modeled path for one UAV state.

    Doppler is the geometric range-rate of each round trip: the direct path
    sees both legs to the BS, a RIS path one leg to the RIS and one to the BS.
    """
    bs = ctx.scene.bs_position
    uav = np.asarray(uav_position, dtype=float)
    vel = np.asarray(uav_velocity, dtype=float)
    lam = ctx.wavelength
    paths = []
    d_bu = float(np.linalg.norm(uav - bs))
    u_bs = (uav - bs) / d_bu
    omega0 = float(result.omega_per_uav[0, 0])
    coeff0 = (np.sqrt(ctx.link.tx_power_w * max(omega0, 1e-12)) * ctx.bs_amp_gain**2
              * fspl_amplitude(d_bu, lam) ** 2 * ctx.rcs_amp)
    paths.append(SensingPath(index=0, delay=2.0 * d_bu / SPEED_OF_LIGHT,
                             doppler=-2.0 * float(np.dot(vel, u_bs)) / lam,
                             coeff=coeff0, carrier_hz=ctx.ofdm.carrier_hz))
    uav_index = int(np.argmin(np.linalg.norm(ctx.uav_grid.centers - uav, axis=1)))
    for n in range(len(ctx.regions)):
        cells, axis = _panel(ctx, result, n)
        region = ctx.regions[n]
        ue = ctx.ue_grid.centers[region.covered_cells[0]]
        d_b, cos_b = _leg(cells, bs, axis)
        d_k, _ = _leg(cells, ue, axis)
        d_u, cos_u = _leg(cells, uav, axis)
        beta = float(result.beta_per_uav[uav_index, n])
        omega = float(result.omega_per_uav[uav_index, n + 1])
        phases = _dual_beam_profile(ctx, cells, d_b, d_k, d_u, beta)
        h = _cascade_sum(ctx, phases, d_b, cos_b, d_u, cos_u)
        d_rn = float(np.linalg.norm(uav - result.positions[n]))
        u_ris = (uav - result.positions[n]) / d_rn
        coeff = (2.0 * np.sqrt(ctx.link.tx_power_w * omega) * ctx.bs_amp_gain**2 * h
                 * ctx.rcs_amp * fspl_amplitude(d_bu, lam))
        length = d_rn + d_bu + float(np.linalg.norm(result.positions[n] - bs))
        doppler = -float(np.dot(vel, u_ris) + np.dot(vel, u_bs)) / lam
        paths.append(SensingPath(index=n + 1, delay=length / SPEED_OF_LIGHT,
                                 doppler=doppler, coeff=coeff,
                                 carrier_hz=ctx.ofdm.carrier_hz))
    return paths
