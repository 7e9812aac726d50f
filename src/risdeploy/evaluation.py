"""Deployment closure checks: explicit channel synthesis for a sized plan.

The optimizer sizes panels through the scaled reference model; this module
re-evaluates the returned deployment with the full machinery — per-cell RIS
geometry, dual-beam phase profiles focused with exact per-cell distances,
L-bit quantization — and reports the SNR/CRB margins and the gap between the
scaling model and the synthesized gains. Each cell uses the sizing model's
per-cell gain, field of view included, and the BS and UE legs that sized the
plan (optimizer.ris_paths: apparent far ends and bounces); UAV legs are straight.
"""

import time
from dataclasses import dataclass

import numpy as np

from .channel import cell_amplitude_gain
from .errors import InvalidInputError
from .optimizer import OptimizerContext, Step1Result, ris_paths, round_trip_coeff, sensing_path
from .propagation import fspl_amplitude
from .ris_bf import codeword_index, codeword_phasors, ris_cell_positions
from .sensing import fim
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
    d_b: np.ndarray  # (M,) cell distances to the BS leg's apparent end
    amp_b: np.ndarray  # (M,) BS leg: sqrt(eta), cell gain, free-space amplitude and bounce
    ue_ends: np.ndarray  # (K, 3) apparent far ends of the UE legs, covered-cell row order
    ue_bounce: np.ndarray  # (K,) bounce amplitudes of the UE legs


def build_panel(ctx: OptimizerContext, plan: Step1Result, n: int) -> Panel:
    "Cells, normal, BS leg and UE legs of the sized RIS n, from the legs that sized it."
    o = plan.orientations[n]
    cells = ris_cell_positions(plan.sizes[n].cells_per_side, ctx.cell_spacing,
                               plan.positions[n], o)
    axis = o.normal
    _, _, apparent, bounce = ris_paths(ctx, n, plan.positions[n])
    d_b, amp_b = _toward(ctx, cells, apparent[0], bounce[0], axis)
    return Panel(index=n, cells=cells, axis=axis, d_b=d_b,
                 amp_b=np.sqrt(ctx.cfg.efficiency) * amp_b,
                 ue_ends=apparent[1:], ue_bounce=bounce[1:])


def _toward(ctx, cells: np.ndarray, point, bounce: float, axis: np.ndarray):
    "Per-cell distance to a leg's apparent end, and cell gain times fspl and bounce of that leg."
    diff = np.asarray(point, dtype=float) - cells
    dist = np.linalg.norm(diff, axis=1)
    cos = np.einsum("ij,j->i", diff, axis) / dist
    return dist, (cell_amplitude_gain(cos, ctx.cell_area, ctx.wavelength)
                  * (fspl_amplitude(dist, ctx.wavelength) * bounce))


def _leg(ctx, panel: Panel, point, bounce: float):
    """Traversal weights and focusing phasor of the BS -> panel -> point leg,
    the point a leg's apparent end and `bounce` its bounce amplitude.

    One exp forms the phasor exp(j kappa (d_b + d)) that focuses the panel on
    the point; the weights are the two legs' amplitudes times its conjugate,
    the traversal phase that the panel sum weights with the cell phases."""
    dist, amp = _toward(ctx, panel.cells, point, bounce, panel.axis)
    phasor = np.exp(1j * (2.0 * np.pi / ctx.wavelength) * (panel.d_b + dist))
    return panel.amp_b * amp * np.conj(phasor), phasor


def _panel_sum(weights, beam, phasors, bits: int) -> complex:
    """Panel sum of the traversal weights times the phasors of the beam's
    phases quantized to `bits` (`phasors` = codeword_phasors(bits))."""
    terms = phasors.take(codeword_index(np.angle(beam), bits))
    return np.sum(np.multiply(weights, terms, out=terms))


def explicit_ue_snr(ctx: OptimizerContext, plan: Step1Result, panel: Panel) -> np.ndarray:
    """Synthesized SNR table of one RIS: a row per covered UE cell, a column
    per UAV cell, the dual beam sqrt(beta) comm + sqrt(1 - beta) sense of the
    split in force while it is sensed (in comm-only mode one column, the comm
    beam alone).

    The work is hoisted out of the (cell, UAV) pairs: each UAV cell's
    weighted sense beam is built once, each UE cell's leg once per cell and
    sqrt(beta) comm once per distinct beta, and a pair only adds the two
    beams and takes their _panel_sum.
    Memory holds one sense beam per UAV cell and a fixed number of other
    panel vectors, whatever the number of cells."""
    n = panel.index
    bits = ctx.cfg.bits
    phasors = codeword_phasors(bits)
    comm_only = ctx.cfg.mode == "comm-only"
    groups = {}  # split beta -> (column, weighted sense beam) pairs at it
    for u, uav in enumerate([] if comm_only else ctx.uav_grid.centers):
        beta = float(plan.beta_per_uav[u, n])
        groups.setdefault(beta, []).append((u, np.sqrt(1.0 - beta) * _leg(ctx, panel, uav, 1.0)[1]))
    power = ctx.link.tx_power_w * plan.omega_per_uav[:, n + 1] * ctx.bs_amp_gain**2
    table = np.zeros((len(panel.ue_ends), len(power)))
    weighted, beam = np.empty((2, len(panel.cells)), dtype=complex)
    for i, (end, bounce) in enumerate(zip(panel.ue_ends, panel.ue_bounce)):
        weights, comm = _leg(ctx, panel, end, bounce)
        h = {0: _panel_sum(weights, comm, phasors, bits)} if comm_only else {}
        for beta, columns in groups.items():
            np.multiply(np.sqrt(beta), comm, out=weighted)
            for u, sense in columns:
                h[u] = _panel_sum(weights, np.add(weighted, sense, out=beam), phasors, bits)
        for u, h_u in h.items():
            table[i, u] = power[u] * abs(h_u) ** 2 / ctx.link.noise_power_w
        del weights, comm  # freed before the next cell's are built
    return table


def _panel_cascades(ctx, plan: Step1Result, panel: Panel, row: int, columns):
    """Traversal amplitudes of the sized panel with its comm beam on UE leg
    `row`, one per (UAV cell index, UAV position) column under that cell's
    split: one leg per column gives its traversal weights and its sense beam."""
    n = panel.index
    bits = ctx.cfg.bits
    phasors = codeword_phasors(bits)
    comm = _leg(ctx, panel, panel.ue_ends[row], panel.ue_bounce[row])[1]
    for u, uav in columns:
        beta = float(plan.beta_per_uav[u, n])
        weights, sense = _leg(ctx, panel, uav, 1.0)
        beam = np.sqrt(beta) * comm + np.sqrt(1.0 - beta) * sense
        yield complex(_panel_sum(weights, beam, phasors, bits))


def explicit_sensing_crb(ctx: OptimizerContext, plan: Step1Result, panel: Panel,
                         row: int) -> np.ndarray:
    """Synthesized range and velocity CRBs, rows (2, M_u) over the UAV cells,
    through the sized panel with the comm beam on UE leg `row` (covered-cell order)."""
    if ctx.cfg.mode == "comm-only":
        raise InvalidInputError("sensing closure undefined in comm-only mode")
    h = np.fromiter(_panel_cascades(ctx, plan, panel, row, enumerate(ctx.uav_grid.centers)),
                    complex)
    coeff = round_trip_coeff(ctx, plan.omega_per_uav[:, panel.index + 1], ctx.uav_ranges, h)
    return np.array(fim(ctx.ofdm, np.abs(coeff), ctx.link.noise_psd_w_hz, ctx.moments)[:2])


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
    for n in range(n_ris):
        t0 = time.perf_counter()
        panel = build_panel(ctx, plan, n)
        table = explicit_ue_snr(ctx, plan, panel)
        gamma = plan.gamma_ref[n]
        served = gamma > 0.0
        scale = (plan.sizes[n].cell_count / ctx.m_ref) ** 2
        pred = (plan.beta_per_uav[:, n] * plan.omega_per_uav[:, n + 1]
                * scale * gamma[served, None])
        with np.errstate(divide="ignore"):
            snr_db.append(lin2db(np.min(table, axis=1)))
            gaps[n] = float(np.mean(np.abs(lin2db(table[served]) - lin2db(pred))))
        snr_margin = min(snr_margin, float(np.min(snr_db[n][served]) - thr_db))
        if not comm_only:
            worst_row = int(np.argmin(np.where(served, gamma, np.inf)))
            crb_r[n], crb_v[n] = explicit_sensing_crb(ctx, plan, panel, worst_row)
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
    the RIS's first covered cell (row 0) and the split of the nearest UAV cell."""
    uav = np.asarray(uav_position, dtype=float)
    vel = np.asarray(uav_velocity, dtype=float)
    omega0 = float(plan.omega_per_uav[0, 0])
    paths = [sensing_path(ctx, 0, uav, max(omega0, 1e-12), velocity=vel)]
    uav_index = int(np.argmin(np.linalg.norm(ctx.uav_grid.centers - uav, axis=1)))
    for n in range(len(ctx.regions)):
        h, = _panel_cascades(ctx, plan, build_panel(ctx, plan, n), 0, [(uav_index, uav)])
        paths.append(sensing_path(ctx, n + 1, uav, float(plan.omega_per_uav[uav_index, n + 1]),
                                  ris=plan.positions[n], cascade=h, velocity=vel))
    return paths
