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
from .optimizer import OptimizationResult, OptimizerContext, sensing_path
from .propagation import fspl_amplitude
from .ris_bf import quantize_phases, ris_cell_positions
from .sensing import CrbPair, SensingPath, fim
from .units import lin2db


@dataclass(frozen=True)
class ClosureReport:
    snr_db: list  # per RIS: (covered cells,) worst over UAV cells
    crb_range: np.ndarray  # (N, M_u)
    crb_velocity: np.ndarray  # (N, M_u)
    snr_margin_db: float  # min over served cells of SNR - threshold
    crb_range_margin_db: float  # min over cells of threshold/CRB, in dB
    crb_velocity_margin_db: float
    gain_gap_db: np.ndarray  # per RIS mean |synthesized - predicted| served-cell SNR gap


@dataclass(frozen=True)
class Panel:
    """One sized RIS as the closure synthesizes it, built once per RIS."""

    index: int  # RIS n
    cells: np.ndarray  # (M, 3) unit-cell positions
    axis: np.ndarray  # panel normal
    d_b: np.ndarray  # (M,) cell distances to the BS
    amp_b: np.ndarray  # (M,) BS leg: sqrt(eta), cell gain and free-space amplitude


def build_panel(ctx: OptimizerContext, result: OptimizationResult, n: int) -> Panel:
    "Cells, normal and BS leg of the sized RIS n."
    o = result.orientations[n]
    cells = ris_cell_positions(result.sizes[n].cells_per_side, ctx.cell_spacing,
                               result.positions[n], o)
    axis = panel_normal(o.theta_r, o.psi_r)
    d_b, cos_b = _leg(cells, ctx.scene.bs_position, axis)
    return Panel(index=n, cells=cells, axis=axis, d_b=d_b,
                 amp_b=np.sqrt(ctx.cfg.efficiency) * _leg_amplitude(ctx, d_b, cos_b))


def _leg(cells: np.ndarray, point, axis: np.ndarray):
    "Per-cell distance and boresight cosine toward a point."
    diff = np.asarray(point, dtype=float) - cells
    dist = np.linalg.norm(diff, axis=1)
    return dist, np.clip(np.einsum("ij,j->i", diff, axis) / dist, -1.0, 1.0)


def _dual_beam_profile(ctx, d_b, d_ue, d_uav, beta: float) -> np.ndarray:
    "Quantized focused dual-beam phases over the panel cells."
    kappa = 2.0 * np.pi / ctx.wavelength
    comm = np.exp(1j * kappa * (d_b + d_ue))
    if d_uav is None or beta >= 1.0:
        ideal = np.mod(np.angle(comm), 2.0 * np.pi)
    else:
        sense = np.exp(1j * kappa * (d_b + d_uav))
        ideal = np.mod(np.angle(np.sqrt(beta) * comm + np.sqrt(1.0 - beta) * sense),
                       2.0 * np.pi)
    return quantize_phases(ideal, ctx.cfg.bits)


def _leg_amplitude(ctx, dist, cos):
    "Per-cell gain times free-space amplitude of one leg."
    return (unit_cell_amplitude_gain(np.arccos(cos), ctx.cell_area, ctx.wavelength)
            * fspl_amplitude(dist, ctx.wavelength))


def _traversal(ctx, panel: Panel, dist, cos) -> np.ndarray:
    """Per-cell complex weight of the BS -> panel -> point traversal; the
    panel sum weights it with the cell phases."""
    kappa = 2.0 * np.pi / ctx.wavelength
    return (panel.amp_b * _leg_amplitude(ctx, dist, cos)
            * np.exp(-1j * kappa * (panel.d_b + dist)))


def explicit_ue_snr(ctx: OptimizerContext, result: OptimizationResult,
                    panel: Panel) -> np.ndarray:
    """Synthesized SNR table of one RIS: a row per covered UE cell, a column
    per UAV cell, whose dual-beam split applies while it is sensed (one
    column in comm-only mode)."""
    n = panel.index
    comm_only = ctx.cfg.mode == "comm-only"
    uavs = [None] if comm_only else ctx.uav_grid.centers
    cells = ctx.regions[n].covered_cells
    table = np.zeros((len(cells), len(uavs)))
    for i, cell in enumerate(cells):
        d_k, cos_k = _leg(panel.cells, ctx.ue_grid.centers[cell], panel.axis)
        weights = _traversal(ctx, panel, d_k, cos_k)
        for u, uav in enumerate(uavs):
            d_u = None if uav is None else _leg(panel.cells, uav, panel.axis)[0]
            phases = _dual_beam_profile(ctx, panel.d_b, d_k, d_u,
                                        float(result.beta_per_uav[u, n]))
            h = np.sum(weights * np.exp(1j * phases))
            p_rx = (ctx.link.tx_power_w * result.omega_per_uav[u, n + 1]
                    * ctx.bs_amp_gain**2 * abs(h) ** 2)
            table[i, u] = p_rx / ctx.link.noise_power_w
    return table


def _ris_sensing_path(ctx, result, panel: Panel, uav, uav_index: int, ue_cell: int,
                      velocity) -> SensingPath:
    """Round trip through the sized panel toward a UAV while cell uav_index
    is sensed, with the comm beam on ue_cell."""
    n = panel.index
    d_k, _ = _leg(panel.cells, ctx.ue_grid.centers[ue_cell], panel.axis)
    d_u, cos_u = _leg(panel.cells, uav, panel.axis)
    phases = _dual_beam_profile(ctx, panel.d_b, d_k, d_u,
                                float(result.beta_per_uav[uav_index, n]))
    h = complex(np.sum(_traversal(ctx, panel, d_u, cos_u) * np.exp(1j * phases)))
    return sensing_path(ctx, n + 1, uav, float(result.omega_per_uav[uav_index, n + 1]),
                        ris=result.positions[n], cascade=h, velocity=velocity)


def explicit_sensing_crb(ctx: OptimizerContext, result: OptimizationResult, panel: Panel,
                         uav_index: int, ue_cell: int) -> CrbPair:
    """Synthesized CRB for UAV cell uav_index through the sized panel, with
    the comm beam pointed at ue_cell."""
    if ctx.cfg.mode == "comm-only":
        raise InvalidInputError("sensing closure undefined in comm-only mode")
    path = _ris_sensing_path(ctx, result, panel, ctx.uav_grid.centers[uav_index],
                             uav_index, ue_cell, None)
    return fim(ctx.ofdm, path, ctx.link.noise_psd_w_hz, ctx.moments)


def closure_report(ctx: OptimizerContext, result: OptimizationResult) -> ClosureReport:
    """Re-evaluate the deployment through the explicit channel stack.

    For each RIS and covered UE cell, the reported SNR is the worst over UAV
    cells (each UAV cell fixes the beta split in force while it is sensed).
    The gain gap compares the synthesized SNR against the scaling-model
    prediction beta * omega * (M_n / M_ref)^2 * gamma_ref. The SNR margin,
    the gain gap and the comm beam of the CRB check cover the cells the
    sizing model serves (gamma_ref > 0); the others stay in snr_db, at
    -inf when the panel sees them beyond its field of view.
    """
    comm_only = ctx.cfg.mode == "comm-only"
    m_u = 1 if comm_only else len(ctx.uav_grid.centers)
    n_ris = len(ctx.regions)
    snr_db = []
    gaps = np.zeros(n_ris)
    crb_r = np.full((n_ris, m_u), np.nan)
    crb_v = np.full((n_ris, m_u), np.nan)
    thr_db = lin2db(ctx.thresholds.snr_threshold)
    snr_margin = np.inf
    for n, region in enumerate(ctx.regions):
        panel = build_panel(ctx, result, n)
        table = explicit_ue_snr(ctx, result, panel)
        gamma = result.step1.gamma_ref[n]
        served = gamma > 0.0
        with np.errstate(divide="ignore"):
            snr_db.append(lin2db(np.min(table, axis=1)))
        snr_margin = min(snr_margin, float(np.min(snr_db[n][served]) - thr_db))
        scale = (result.sizes[n].cell_count / ctx.m_ref) ** 2
        pred = (result.beta_per_uav[:, n] * result.omega_per_uav[:, n + 1]
                * scale * gamma[served, None])
        gaps[n] = float(np.mean(np.abs(lin2db(table[served]) - lin2db(pred))))
        if not comm_only:
            worst_cell = region.covered_cells[int(np.argmin(np.where(served, gamma, np.inf)))]
            for u in range(m_u):
                pair = explicit_sensing_crb(ctx, result, panel, u, worst_cell)
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
    """Delay/Doppler/coefficient per modeled path for one UAV state: the
    direct round trip, then one through each sized RIS with its comm beam on
    the RIS's first covered cell and the split of the nearest UAV cell."""
    uav = np.asarray(uav_position, dtype=float)
    vel = np.asarray(uav_velocity, dtype=float)
    omega0 = float(result.omega_per_uav[0, 0])
    paths = [sensing_path(ctx, 0, uav, max(omega0, 1e-12), velocity=vel)]
    uav_index = int(np.argmin(np.linalg.norm(ctx.uav_grid.centers - uav, axis=1)))
    for n, region in enumerate(ctx.regions):
        paths.append(_ris_sensing_path(ctx, result, build_panel(ctx, result, n), uav,
                                       uav_index, region.covered_cells[0], vel))
    return paths
