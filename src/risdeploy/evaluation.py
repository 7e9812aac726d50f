"""Deployment closure checks: explicit channel synthesis for a sized plan.

The optimizer sizes panels through the scaled reference model; this module
re-evaluates the returned deployment with the full machinery — per-cell RIS
geometry, dual-beam phase profiles focused with exact per-cell distances,
L-bit quantization — and reports the SNR/CRB margins and the gap between the
scaling model and the synthesized gains. Each cell uses the sizing model's
per-cell gain, field of view included.
"""

import time
from dataclasses import dataclass

import numpy as np

from .arrays import panel_normal
from .channel import unit_cell_amplitude_gain
from .errors import InvalidInputError
from .optimizer import OptimizerContext, Step1Result, sensing_path
from .propagation import fspl_amplitude
from .ris_bf import codeword_index, codeword_phasors, ris_cell_positions
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
    synthesis: list  # per RIS: (panel cells, covered cells, UAV columns, seconds of its checks)


@dataclass(frozen=True)
class Panel:
    """One sized RIS as the closure synthesizes it, built once per RIS."""

    index: int  # RIS n
    cells: np.ndarray  # (M, 3) unit-cell positions
    axis: np.ndarray  # panel normal
    d_b: np.ndarray  # (M,) cell distances to the BS
    amp_b: np.ndarray  # (M,) BS leg: sqrt(eta), cell gain and free-space amplitude


def build_panel(ctx: OptimizerContext, plan: Step1Result, n: int) -> Panel:
    "Cells, normal and BS leg of the sized RIS n."
    o = plan.orientations[n]
    cells = ris_cell_positions(plan.sizes[n].cells_per_side, ctx.cell_spacing,
                               plan.positions[n], o)
    axis = panel_normal(o.theta_r, o.psi_r)
    d_b, cos_b = _leg(cells, ctx.scene.bs_position, axis)
    return Panel(index=n, cells=cells, axis=axis, d_b=d_b,
                 amp_b=np.sqrt(ctx.cfg.efficiency) * _leg_amplitude(ctx, d_b, cos_b))


def _leg(cells: np.ndarray, point, axis: np.ndarray):
    "Per-cell distance and boresight cosine toward a point."
    diff = np.asarray(point, dtype=float) - cells
    dist = np.linalg.norm(diff, axis=1)
    return dist, np.clip(np.einsum("ij,j->i", diff, axis) / dist, -1.0, 1.0)


def _beam(ctx, d_b, dist) -> np.ndarray:
    "Per-cell phasor that focuses the panel from the BS onto a point at distances dist."
    kappa = 2.0 * np.pi / ctx.wavelength
    return np.exp(1j * kappa * (d_b + dist))


def _sense_beam(ctx, d_b, d_uav, beta: float) -> np.ndarray:
    """The sense beam of the dual-beam split, weighted by sqrt(1 - beta); the
    panel's beam adds it to the comm beam weighted by sqrt(beta)."""
    return np.sqrt(1.0 - beta) * _beam(ctx, d_b, d_uav)


def _panel_sum(weights, beam, phasors, bits: int) -> complex:
    """Panel sum of the traversal weights times the phasors of the beam's
    phases quantized to `bits` (`phasors` = codeword_phasors(bits))."""
    terms = phasors.take(codeword_index(np.angle(beam), bits))
    return np.sum(np.multiply(weights, terms, out=terms))


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


def explicit_ue_snr(ctx: OptimizerContext, plan: Step1Result, panel: Panel) -> np.ndarray:
    """Synthesized SNR table of one RIS: a row per covered UE cell, a column
    per UAV cell, whose dual-beam split applies while it is sensed (one
    column in comm-only mode).

    The work is hoisted out of the (cell, UAV) pairs: each UAV cell's
    weighted sense beam is built once, each UE cell's leg, traversal weights
    and comm beam once per cell, and a pair only adds the two beams and takes
    their _panel_sum.
    Memory holds one sense beam per UAV cell and a fixed number of other
    panel vectors, whatever the number of cells."""
    n = panel.index
    bits = ctx.cfg.bits
    phasors = codeword_phasors(bits)
    uavs = [None] if ctx.cfg.mode == "comm-only" else ctx.uav_grid.centers
    power = [ctx.link.tx_power_w * plan.omega_per_uav[u, n + 1] * ctx.bs_amp_gain**2
             for u in range(len(uavs))]
    single = []  # columns with the comm beam alone
    groups = {}  # split beta -> the columns that add both beams at it
    sense = {}  # column -> its weighted sense beam
    for u, uav in enumerate(uavs):
        beta = float(plan.beta_per_uav[u, n])
        if uav is None or beta >= 1.0:
            single.append(u)
            continue
        groups.setdefault(beta, []).append(u)
        sense[u] = _sense_beam(ctx, panel.d_b, _leg(panel.cells, uav, panel.axis)[0], beta)
    cells = ctx.regions[n].covered_cells
    table = np.zeros((len(cells), len(uavs)))
    weighted, beam = np.empty((2, len(panel.cells)), dtype=complex)
    for i, cell in enumerate(cells):
        d_k, cos_k = _leg(panel.cells, ctx.ue_grid.centers[cell], panel.axis)
        weights = _traversal(ctx, panel, d_k, cos_k)
        comm = _beam(ctx, panel.d_b, d_k)
        h = dict.fromkeys(single, _panel_sum(weights, comm, phasors, bits)) if single else {}
        for beta, columns in groups.items():
            np.multiply(np.sqrt(beta), comm, out=weighted)
            for u in columns:
                h[u] = _panel_sum(weights, np.add(weighted, sense[u], out=beam), phasors, bits)
        for u, h_u in h.items():
            table[i, u] = power[u] * abs(h_u) ** 2 / ctx.link.noise_power_w
        del d_k, cos_k, weights, comm  # freed before the next cell's are built
    return table


def _ris_sensing_path(ctx, plan: Step1Result, panel: Panel, uav, uav_index: int, ue_cell: int,
                      velocity) -> SensingPath:
    """Round trip through the sized panel toward a UAV while cell uav_index
    is sensed, with the comm beam on ue_cell."""
    n = panel.index
    beta = float(plan.beta_per_uav[uav_index, n])
    d_k, _ = _leg(panel.cells, ctx.ue_grid.centers[ue_cell], panel.axis)
    d_u, cos_u = _leg(panel.cells, uav, panel.axis)
    beam = np.sqrt(beta) * _beam(ctx, panel.d_b, d_k) + _sense_beam(ctx, panel.d_b, d_u, beta)
    bits = ctx.cfg.bits
    h = complex(_panel_sum(_traversal(ctx, panel, d_u, cos_u), beam,
                           codeword_phasors(bits), bits))
    return sensing_path(ctx, n + 1, uav, float(plan.omega_per_uav[uav_index, n + 1]),
                        ris=plan.positions[n], cascade=h, velocity=velocity)


def explicit_sensing_crb(ctx: OptimizerContext, plan: Step1Result, panel: Panel,
                         uav_index: int, ue_cell: int) -> CrbPair:
    """Synthesized CRB for UAV cell uav_index through the sized panel, with
    the comm beam pointed at ue_cell."""
    if ctx.cfg.mode == "comm-only":
        raise InvalidInputError("sensing closure undefined in comm-only mode")
    path = _ris_sensing_path(ctx, plan, panel, ctx.uav_grid.centers[uav_index],
                             uav_index, ue_cell, None)
    return fim(ctx.ofdm, path, ctx.link.noise_psd_w_hz, ctx.moments)


def closure_report(ctx: OptimizerContext, plan: Step1Result) -> ClosureReport:
    """Re-evaluate the sized plan through the explicit channel stack.

    For each RIS and covered UE cell, the reported SNR is the worst over UAV
    cells (each UAV cell fixes the beta split in force while it is sensed).
    The gain gap compares the synthesized SNR against the scaling-model
    prediction beta * omega * (M_n / M_ref)^2 * gamma_ref. The SNR margin,
    the gain gap and the comm beam of the CRB check cover the cells the
    sizing model serves (gamma_ref > 0); the others stay in snr_db, at
    -inf when the panel sees them beyond its field of view.
    """
    comm_only = ctx.cfg.mode == "comm-only"
    m_u = plan.beta_per_uav.shape[0]
    n_ris = len(ctx.regions)
    snr_db = []
    gaps = np.zeros(n_ris)
    crb_r = np.full((n_ris, m_u), np.nan)
    crb_v = np.full((n_ris, m_u), np.nan)
    thr_db = lin2db(ctx.link.snr_threshold_linear)
    snr_margin = np.inf
    synthesis = []
    for n, region in enumerate(ctx.regions):
        t0 = time.perf_counter()
        panel = build_panel(ctx, plan, n)
        table = explicit_ue_snr(ctx, plan, panel)
        gamma = plan.gamma_ref[n]
        served = gamma > 0.0
        with np.errstate(divide="ignore"):
            snr_db.append(lin2db(np.min(table, axis=1)))
        snr_margin = min(snr_margin, float(np.min(snr_db[n][served]) - thr_db))
        scale = (plan.sizes[n].cell_count / ctx.m_ref) ** 2
        pred = (plan.beta_per_uav[:, n] * plan.omega_per_uav[:, n + 1]
                * scale * gamma[served, None])
        gaps[n] = float(np.mean(np.abs(lin2db(table[served]) - lin2db(pred))))
        if not comm_only:
            worst_cell = region.covered_cells[int(np.argmin(np.where(served, gamma, np.inf)))]
            for u in range(m_u):
                pair = explicit_sensing_crb(ctx, plan, panel, u, worst_cell)
                crb_r[n, u] = pair.range_crb
                crb_v[n, u] = pair.velocity_crb
        synthesis.append((len(panel.cells), *table.shape, time.perf_counter() - t0))
    if comm_only:
        rng_margin = vel_margin = np.nan
    else:
        rng_margin = float(np.min(lin2db(ctx.cfg.range_crb_max / crb_r)))
        vel_margin = float(np.min(lin2db(ctx.cfg.velocity_crb_max / crb_v)))
    return ClosureReport(snr_db=snr_db, crb_range=crb_r, crb_velocity=crb_v,
                         snr_margin_db=float(snr_margin), crb_range_margin_db=rng_margin,
                         crb_velocity_margin_db=vel_margin, gain_gap_db=gaps,
                         synthesis=synthesis)


def demo_sensing_paths(ctx: OptimizerContext, plan: Step1Result, uav_position,
                       uav_velocity) -> list:
    """Delay/Doppler/coefficient per modeled path for one UAV state: the
    direct round trip, then one through each sized RIS with its comm beam on
    the RIS's first covered cell and the split of the nearest UAV cell."""
    uav = np.asarray(uav_position, dtype=float)
    vel = np.asarray(uav_velocity, dtype=float)
    omega0 = float(plan.omega_per_uav[0, 0])
    paths = [sensing_path(ctx, 0, uav, max(omega0, 1e-12), velocity=vel)]
    uav_index = int(np.argmin(np.linalg.norm(ctx.uav_grid.centers - uav, axis=1)))
    for n, region in enumerate(ctx.regions):
        paths.append(_ris_sensing_path(ctx, plan, build_panel(ctx, plan, n), uav,
                                       uav_index, region.covered_cells[0], vel))
    return paths
