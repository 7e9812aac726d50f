"""Deployment optimizer: orientation search, sizing and Nelder-Mead placement.

The placement problem minimizes the size-to-coverage sum ratio
E = sum_n A_n / A_n^cov. For fixed positions, the inner problem factors into
closed forms: per-RIS constraint constants c_n from the communication and
sensing thresholds, a KKT power split across RISs, and the panel area
A_n = sqrt(c_n) A_u M_ref / sqrt(omega_n). The outer loop is a standard
Nelder-Mead simplex over 2-D mounting-patch coordinates, one (u, v) pair per
RIS, with out-of-patch proposals projected back.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arrays import Orientation, OrientationBounds, panel_normal
from .channel import PANEL_FOV_COS, LinkBudget, cell_amplitude_gain
from .errors import (InfeasiblePowerError, InvalidInputError, NoPathError, SizeCapError,
                     UnobservablePathError, UnreachableTargetsError)
from .propagation import (PropagationConfig, dominant_legs, dominant_path_between,
                          fspl_amplitude, leg_geometry)
from .ris_bf import quantization_efficiency
from .sensing import OfdmParams, OfdmWaveform, SensingPath, WaveformMoments, fim
from .units import SPEED_OF_LIGHT, db2lin


@dataclass(frozen=True)
class ConstraintConstants:
    c1: float | np.ndarray
    c2: float | np.ndarray
    c3: float | np.ndarray

    @property
    def c_max(self) -> float | np.ndarray:
        return np.maximum(np.maximum(self.c1, self.c2), self.c3)


def constraint_constants(gamma_ref_worst: float, range_crb, velocity_crb,
                         ctx: "OptimizerContext", beta) -> ConstraintConstants:
    """Per-RIS normalized constraint constants for a beta split, elementwise
    over the broadcast of the reference CRBs and the splits.

    c1 compares the SNR threshold of `ctx.link` to the worst reference SNR
    over the RIS's UE cells; c2/c3 compare the reference range/velocity CRBs
    to the caps of `ctx.cfg`.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all((0.0 < beta) & (beta < 1.0)):
        raise InvalidInputError("beta must be strictly inside (0, 1)")
    if gamma_ref_worst <= 0:
        raise InvalidInputError("reference SNR must be positive")
    return ConstraintConstants(
        c1=ctx.link.snr_threshold_linear / (beta * gamma_ref_worst),
        c2=range_crb / ((1.0 - beta) * ctx.cfg.range_crb_max),
        c3=velocity_crb / ((1.0 - beta) * ctx.cfg.velocity_crb_max),
    )


def kkt_power_allocation(c, cov_areas, omega0: float) -> np.ndarray:
    """Optimal BS power split across RISs for the sizing objective, per row
    of `c` (one row per UAV cell, the last axis over the RISs).

    omega_n proportional to (sqrt(c_n) / (2 A_n^cov))^(2/3), rescaled to sum
    to 1 - omega0 (the remainder of the power after the direct sensing beam).
    """
    c = np.asarray(c, dtype=float)
    areas = np.asarray(cov_areas, dtype=float)
    if c.shape[-1:] != areas.shape or c.ndim not in (1, 2) or c.size == 0:
        raise InvalidInputError("c and cov_areas must be equal-length 1-D arrays")
    if np.any(c <= 0) or np.any(areas <= 0):
        raise InvalidInputError("constraint constants and areas must be positive")
    if not (0.0 <= omega0 < 1.0):
        raise InfeasiblePowerError(f"omega0 = {omega0} leaves no power for the RIS beams")
    w = (np.sqrt(c) / (2.0 * areas)) ** (2.0 / 3.0)
    return w / np.sum(w, axis=-1, keepdims=True) * (1.0 - omega0)


# Search and headroom constants no config sets.
ORIENTATION_STEP = np.deg2rad(1.0)  # coarse orientation grid resolution
THETA_LIMIT = np.deg2rad(60.0)  # largest panel tilt off the horizontal
PSI_HALFWIDTH = np.deg2rad(85.0)  # azimuth window around the face normal
OMEGA0_MARGIN_DB = 6.0  # direct-beam headroom over the bare CRB need


@dataclass(frozen=True)
class RisSize:
    area: float  # m^2
    side: float  # m
    cells_per_side: int

    @property
    def cell_count(self) -> int:
        return self.cells_per_side**2


def ris_size(c_max: float, omega: float, cell_area: float, m_ref: int,
             spacing: float) -> RisSize:
    "Panel area sqrt(c) A_u M_ref / sqrt(omega), square side, cell grid."
    if c_max <= 0 or cell_area <= 0 or m_ref < 1 or spacing <= 0:
        raise InvalidInputError("c_max, cell_area, m_ref, spacing must be positive")
    if omega <= 0:
        raise InfeasiblePowerError("zero power share leaves the panel unbounded")
    return _square_panel(np.sqrt(c_max) * cell_area * m_ref / np.sqrt(omega), spacing)


def _square_panel(area: float, spacing: float) -> RisSize:
    "Square panel of the given area on the cell grid."
    side = float(np.sqrt(area))
    return RisSize(area=float(area), side=side, cells_per_side=int(np.ceil(side / spacing)))


def _axis_grid(bounds: OrientationBounds, step: float):
    """Panel-normal direction vectors over a (theta_r, psi_r) grid, (3, n_axes)
    in theta-major node order, with the grid's thetas and psis: node k lies at
    (thetas[k // len(psis)], psis[k % len(psis)]). The nodes are laid from the
    bounds rounded to 12 decimals and the step rounded to 15."""
    step = round(step, 15)
    thetas = np.arange(round(bounds.theta_low, 12), round(bounds.theta_high, 12) + step / 2, step)
    psis = np.arange(round(bounds.psi_low, 12), round(bounds.psi_high, 12) + step / 2, step)
    axes = np.ascontiguousarray(panel_normal(thetas[:, None], psis).reshape(-1, 3).T)  # (3, n_axes)
    return axes, thetas, psis


BLOCK = 8  # coarse-grid nodes per block side in the bounded coarse pass
# Rounding room of the block bounds: an angle from arccos near 0 or pi is
# off by up to ~1e-8 rad, and a score by a few ulps.
_ANGLE_SLACK = 1e-6  # rad
_SCORE_SLACK = 1e-9  # relative
# The BLAS GEMM under `targets @ axes` forms the columns of each full group
# of _GEMM_GROUP with one arithmetic and a last partial group with another,
# which can round differently. A gather of whole groups from before the
# grid's own partial group gives those nodes the full grid's bits, and the
# grid's last _GEMM_GROUP + r columns, scored together, give its partial
# group's bits (held by the tests against the full grid).
_GEMM_GROUP = 8


@lru_cache(maxsize=64)
def _coarse_grid(bounds: OrientationBounds, step: float) -> tuple:
    """The `_axis_grid(bounds, step)` grid's axes, thetas and psis, with the
    centre axis (3, n_blocks) and angular radius of each BLOCK x BLOCK block
    in row-major block order: the radius is the largest angle from the centre
    to one of the block's nodes, plus _ANGLE_SLACK. Cached, as every search
    from one face direction reads the same coarse grid."""
    axes, thetas, psis = _axis_grid(bounds, step)
    grid = axes.reshape(3, len(thetas), len(psis))
    centres, radius = [], []
    for i in range(0, len(thetas), BLOCK):
        for j in range(0, len(psis), BLOCK):
            nodes = grid[:, i:i + BLOCK, j:j + BLOCK].reshape(3, -1)
            total = np.sum(nodes, axis=1)
            centre = total / np.linalg.norm(total)
            centres.append(centre)
            radius.append(np.max(np.arccos(np.clip(centre @ nodes, -1.0, 1.0))))
    return axes, thetas, psis, np.array(centres).T, np.array(radius) + _ANGLE_SLACK


def _gemm_gather(nodes: np.ndarray, n: int) -> np.ndarray:
    """Columns of an n-node grid, in order but for repeats, whose `targets @
    axes[:, columns]` gives each of the sorted `nodes` the bits of the full
    `targets @ axes`: the nodes before the grid's partial GEMM group, padded
    with repeats of the last to whole groups, then, if any node lies in the
    partial group, the grid's last _GEMM_GROUP + r columns."""
    whole = n - n % _GEMM_GROUP
    head = nodes[nodes < whole]
    columns = np.pad(head, (0, -len(head) % _GEMM_GROUP), mode="edge")
    if len(head) < len(nodes):
        columns = np.concatenate([columns, np.arange(max(whole - _GEMM_GROUP, 0), n)])
    return columns


def _block_bounds(centres, radius, u_bs, u_ue, u_uav) -> np.ndarray:
    """Upper bound of `_orientation_score` over each block's nodes, 0 where
    no node can see the BS, every UE cell and every UAV cell.

    A node lies within `radius` of its block's centre c, so its angle to a
    target u is at least angle(c, u) - radius and its cosine at most
    cos(max(0, angle(c, u) - radius)). The worst target of a row is the one
    farthest from c, so each row group (BS, UE cells, UAV cells) takes one
    arccos of its least cosine to c."""
    groups = [u_bs[None, :], u_ue] + ([] if u_uav is None else [u_uav])
    least = np.array([np.min(g @ centres, axis=0) for g in groups])
    bound = np.cos(np.maximum(0.0, np.arccos(np.clip(least, -1.0, 1.0)) - radius))
    return np.prod(bound, axis=0) * np.all(bound > PANEL_FOV_COS, axis=0)


def _bounded_coarse_argmax(coarse: tuple, u_bs, u_ue, u_uav):
    """Index of the first maximum of `_orientation_score` over the grid of a
    `_coarse_grid` record, bit for bit the full grid's; None when every score
    is 0.

    Branch and bound over BLOCK x BLOCK blocks (Hartley & Kahl 2009, IJCV 82):
    score the block with the best bound, then, in one gather in node order,
    every block whose bound reaches that score."""
    axes, thetas, psis, centres, radius = coarse
    n_theta, n_psi = len(thetas), len(psis)
    bound = _block_bounds(centres, radius, u_bs, u_ue, u_uav)
    top = int(np.argmax(bound))
    if bound[top] <= 0.0:
        return None
    col_blocks = -(-n_psi // BLOCK)
    row, col = divmod(top, col_blocks)
    lead = axes.reshape(3, n_theta, n_psi)[:, BLOCK * row:BLOCK * (row + 1),
                                           BLOCK * col:BLOCK * (col + 1)]
    floor = np.max(_orientation_score(lead.reshape(3, -1), u_bs, u_ue, u_uav))
    keep = (bound >= floor * (1.0 - _SCORE_SLACK)) & (bound > 0.0)
    nodes = keep.reshape(-1, col_blocks).repeat(BLOCK, 0).repeat(BLOCK, 1)
    gather = _gemm_gather(np.flatnonzero(nodes[:n_theta, :n_psi]), axes.shape[1])
    score = _orientation_score(axes[:, gather], u_bs, u_ue, u_uav)
    best = int(np.argmax(score))
    return None if score[best] <= 0.0 else int(gather[best])


def _orientation_score(axes: np.ndarray, u_bs, u_ue, u_uav) -> np.ndarray:
    """Worst-target cosine product; positive only when the BS, every UE cell
    and every UAV cell sit inside the panel field of view. The sizing is
    driven by the worst cell, so the worst-case product is the surrogate.

    `axes` is (3, n_axes), so each target's cosines form one contiguous row
    and the minima over targets run along whole rows. A row minimum is inside
    the field of view exactly when the whole row is, so the field-of-view
    test runs on three rows: the BS row and the two minima. Where all three
    pass, the product is that of the cosines themselves; elsewhere it is 0."""
    n_ue = len(u_ue)
    targets = np.vstack([u_bs[None, :], u_ue] if u_uav is None or not len(u_uav)
                        else [u_bs[None, :], u_ue, u_uav])
    cos = targets @ axes  # (1 + n_ue [+ n_uav], n_axes)
    worst = np.min(cos[1:n_ue + 1], axis=0)
    seen = (cos[0] > PANEL_FOV_COS) & (worst > PANEL_FOV_COS)
    score = cos[0] * worst
    if targets.shape[0] > n_ue + 1:
        worst = np.min(cos[n_ue + 1:], axis=0)
        seen &= worst > PANEL_FOV_COS
        score *= worst
    score *= seen
    return score


def orientation_search(ris_pos, bs_pos, ue_centers, uav_centers,
                       bounds: OrientationBounds) -> Orientation:
    """Orientation maximizing the worst-target boresight-cosine product.

    Grid search at ORIENTATION_STEP resolution over the bounds, then a 20x
    finer pass in a +-1.5 step window around the coarse optimum. Back-side
    directions contribute zero. The coarse pass scores only the blocks of
    nodes that an angular bound cannot rule out, and finds the full grid's
    first maximum bit for bit.
    """
    p = np.asarray(ris_pos, dtype=float)

    def unit_rows(points):
        ends = np.asarray(points, dtype=float).reshape(-1, 3)
        d = ends - p
        if np.any(np.vecdot(d, d) < 1e-18):  # before leg_geometry divides by a zero length
            raise InvalidInputError("target coincides with the RIS position")
        return leg_geometry(p, ends)[1]

    u_bs = unit_rows(bs_pos)[0]
    u_ue = unit_rows(ue_centers)
    u_uav = unit_rows(uav_centers) if uav_centers is not None and len(uav_centers) else None
    coarse = _coarse_grid(bounds, ORIENTATION_STEP)
    best = _bounded_coarse_argmax(coarse, u_bs, u_ue, u_uav)
    if best is None:
        raise UnreachableTargetsError("no orientation sees the BS and any target")
    thetas, psis = coarse[1:3]
    row, col = divmod(best, len(psis))
    theta, psi = thetas[row], psis[col]
    window = 1.5 * ORIENTATION_STEP
    fine = OrientationBounds(
        max(bounds.theta_low, theta - window), min(bounds.theta_high, theta + window),
        max(bounds.psi_low, psi - window), min(bounds.psi_high, psi + window))
    axes_f, thetas_f, psis_f = _axis_grid(fine, ORIENTATION_STEP / 20.0)
    row, col = divmod(int(np.argmax(_orientation_score(axes_f, u_bs, u_ue, u_uav))), len(psis_f))
    return Orientation(float(thetas_f[row]), float(psis_f[col]))


@dataclass(frozen=True)
class OptimizerContext:
    """Immutable inputs shared by every placement evaluation: the run's
    config and the objects built from it."""

    scene: object
    regions: list  # N DeployableRegion
    ue_grid: object
    uav_grid: object
    link: LinkBudget
    prop: PropagationConfig
    ofdm: OfdmParams
    waveform: OfdmWaveform  # the probing frame of the run, seeded by `seed`
    moments: WaveformMoments  # of `waveform` at zero delay
    cfg: object  # the run's cli.Config

    @property
    def wavelength(self) -> float:
        return self.ofdm.wavelength

    @property
    def cell_spacing(self) -> float:
        return self.wavelength / 2.0

    @property
    def cell_area(self) -> float:
        return self.cell_spacing**2

    @property
    def m_ref(self) -> int:
        return self.cfg.ref_cells_per_side**2

    @cached_property
    def bs_amp_gain(self) -> float:
        "Amplitude gain of the matched-beamformed BS array."
        return float(np.sqrt(math.prod(self.cfg.bs_array) * db2lin(self.cfg.bs_gain_dbi)))

    @cached_property
    def rcs_amp(self) -> float:
        "Scatter amplitude inserted between the two FSPL legs of a bounce."
        return float(np.sqrt(4.0 * np.pi * self.cfg.rcs) / self.wavelength)

    @cached_property
    def quant_eff(self) -> float:
        return quantization_efficiency(self.cfg.bits)

    @cached_property
    def uav_ranges(self) -> np.ndarray:
        "BS-to-UAV-cell distance per UAV cell."
        return leg_geometry(self.scene.bs_position, self.uav_grid.centers)[0]

    def region_bounds(self, region) -> OrientationBounds:
        "C4 orientation bounds: near the face normal, limited tilt."
        normal = region.face.normal
        psi0 = float(np.arctan2(normal[1], normal[0]))
        return OrientationBounds(-THETA_LIMIT, THETA_LIMIT,
                                 psi0 - PSI_HALFWIDTH, psi0 + PSI_HALFWIDTH)


def ris_paths(ctx: OptimizerContext, n: int, position) -> tuple:
    """Attenuation (1 + K,), departure direction (1 + K, 3), apparent far end
    (1 + K, 3) and bounce amplitude (1 + K,) of the dominant path of RIS n at
    a position to the BS (row 0) and to each of its K covered UE cells, every
    leg the straight leg to its apparent end (leg_geometry) times its bounce;
    UnreachableTargetsError when a leg has none."""
    p = np.asarray(position, dtype=float)
    try:
        path_b = dominant_path_between(ctx.scene, ctx.prop, p, ctx.scene.bs_position)
        ends, bounces = dominant_legs(ctx.scene, ctx.prop, p,
                                      ctx.ue_grid.centers[ctx.regions[n].covered_cells])
    except NoPathError as exc:
        raise UnreachableTargetsError(f"RIS {n} at {np.round(p, 2)}: {exc}") from exc
    apparent = np.vstack([path_b.apparent, ends])
    bounce = np.concatenate([[path_b.bounce_amp], bounces])
    length, dirs = leg_geometry(p, apparent)
    return fspl_amplitude(length, ctx.wavelength) * bounce, dirs, apparent, bounce


def reference_cascade(ctx: OptimizerContext, att, dirs, orientation: Orientation) -> np.ndarray:
    """Amplitude M_ref sqrt(eta q_L) (g_b a_b) (g_k a_k) of the M_ref panel's
    cascade from the BS leg (row 0) through each other leg k, from the legs'
    attenuations a_* and departure directions, with g_* the per-cell
    amplitude gains toward those directions."""
    g = att * cell_amplitude_gain(np.vecdot(dirs, orientation.normal), ctx.cell_area,
                                  ctx.wavelength)
    return ctx.m_ref * np.sqrt(ctx.cfg.efficiency * ctx.quant_eff) * g[0] * g[1:]


def reference_comm_snr(ctx: OptimizerContext, att, dirs,
                       orientation: Orientation) -> np.ndarray:
    """Reference per-UE-cell SNR of the M_ref panel at unit beta and omega,
    (P_t / sigma^2) G_bs |cascade|^2, from the attenuations and departure
    directions of the RIS's dominant paths, BS leg first (ris_paths)."""
    return (ctx.link.tx_power_w / ctx.link.noise_power_w * ctx.bs_amp_gain**2
            * reference_cascade(ctx, att, dirs, orientation) ** 2)


def round_trip_coeff(ctx: OptimizerContext, omega: float, d_bu, cascade=None):
    """Amplitude of the BS beam's round trip at power share omega through a UAV at
    distance d_bu from the BS, elementwise over d_bu and `cascade`: direct, or with the
    complex panel traversal amplitude `cascade` (BS leg, cells, UAV leg) BS->RIS->UAV->BS,
    whose reverse trip has the same delay and adds coherently, hence the 2."""
    lam = ctx.wavelength
    scale = np.sqrt(ctx.link.tx_power_w * omega) * ctx.bs_amp_gain**2
    if cascade is None:  # float_power: libm pow, as a scalar ** (see sensing.fim)
        return scale * np.float_power(fspl_amplitude(d_bu, lam), 2.0) * ctx.rcs_amp
    return 2.0 * scale * cascade * ctx.rcs_amp * fspl_amplitude(d_bu, lam)


def sensing_path(ctx: OptimizerContext, index: int, uav, omega: float, ris=None,
                 cascade=None, velocity=None) -> SensingPath:
    """Round trip (round_trip_coeff) of the BS beam at power share omega
    through a UAV, direct or through the RIS at `ris`. Doppler is the range
    rate of the two legs that end at the UAV; zero without a velocity."""
    bs = ctx.scene.bs_position
    uav = np.asarray(uav, dtype=float)
    far = bs if ris is None else np.asarray(ris, dtype=float)  # other end of the UAV's leg
    (d_far, d_bu), toward = leg_geometry(uav, np.vstack([far, bs]))  # the UAV's two legs
    hop = 0.0 if ris is None else leg_geometry(bs, far[None, :])[0][0]  # BS to RIS
    lam = ctx.wavelength
    coeff = round_trip_coeff(ctx, omega, float(d_bu), cascade)
    length = float(d_far + d_bu + hop)
    rate = 0.0 if velocity is None else float(  # -toward: the legs' directions into the UAV
        np.dot(velocity, -toward[0]) + np.dot(velocity, -toward[1]))
    return SensingPath(index=index, delay=length / SPEED_OF_LIGHT, doppler=-rate / lam,
                       coeff=coeff, carrier_hz=ctx.ofdm.carrier_hz)


def reference_sensing_crbs(ctx: OptimizerContext, position, orientation: Orientation,
                           att_b: float, dir_b) -> tuple:
    """Reference range and velocity CRB arrays over the UAV cells through the
    M_ref panel at unit beta, omega and size scale, from the comm reference's
    BS leg (ris_paths' row 0) and straight UAV legs (leg_geometry)."""
    d, unit = leg_geometry(position, ctx.uav_grid.centers)
    cascades = reference_cascade(ctx, np.concatenate([[att_b], fspl_amplitude(d, ctx.wavelength)]),
                                 np.vstack([dir_b, unit]), orientation)
    return fim(ctx.ofdm, np.abs(round_trip_coeff(ctx, 1.0, ctx.uav_ranges, cascades)),
               ctx.link.noise_psd_w_hz, ctx.moments)[:2]


def direct_power_share(ctx: OptimizerContext) -> float:
    """Smallest omega0 for which the direct beam meets both CRB caps at every
    UAV cell; zero in communication-only mode."""
    if ctx.cfg.mode == "comm-only":
        return 0.0
    range_crb, velocity_crb, _ = fim(
        ctx.ofdm, np.abs(round_trip_coeff(ctx, 1.0, ctx.uav_ranges)),
        ctx.link.noise_psd_w_hz, ctx.moments)
    worst = float(np.max([range_crb / ctx.cfg.range_crb_max,
                          velocity_crb / ctx.cfg.velocity_crb_max], initial=0.0))
    if worst >= 1.0:
        raise InfeasiblePowerError(
            f"direct sensing alone needs omega0 = {worst:.3f} >= 1")
    return float(min(worst * db2lin(OMEGA0_MARGIN_DB), 0.5 * (1.0 + worst)))


@dataclass(frozen=True)
class Step1Result:
    objective: float
    positions: list  # N 3-vectors
    orientations: list  # N Orientation
    sizes: list  # N RisSize (max over UAV cells)
    beta_per_uav: np.ndarray  # (M_u, N)
    omega_per_uav: np.ndarray  # (M_u, N+1), column 0 = omega0
    gamma_ref: list  # N arrays of per-UE-cell reference SNR


@dataclass(frozen=True)
class RisReference:
    "What step 1 needs of one RIS at a fixed position, which depends on that RIS alone."

    position: np.ndarray  # 3-vector
    orientation: Orientation
    gamma_ref: np.ndarray  # per-UE-cell reference SNR
    gamma_worst: float  # worst reference SNR over the served cells (gamma_ref > 0)
    crbs: tuple | None  # (range, velocity) CRB arrays over the UAV cells; None in comm-only


def ris_reference(ctx: OptimizerContext, n: int, position, paths=None) -> RisReference:
    """Orientation (the face normal in passive-orientation mode), reference SNR and
    CRBs of RIS n at a fixed position from its dominant paths (formed first when not
    given). UnreachableTargetsError when that RIS cannot serve its targets from there."""
    if paths is None:
        paths = ris_paths(ctx, n, position)
    region = ctx.regions[n]
    mode = ctx.cfg.mode
    comm_only = mode == "comm-only"
    p = np.asarray(position, dtype=float)

    def unreachable(why: str) -> UnreachableTargetsError:
        return UnreachableTargetsError(f"RIS {n} at {np.round(p, 2)}{why}")

    if mode == "passive-orientation":
        normal = region.face.normal
        orient = Orientation(0.0, float(np.arctan2(normal[1], normal[0])))
    else:
        orient = orientation_search(p, ctx.scene.bs_position,
                                    ctx.ue_grid.centers[region.covered_cells],
                                    None if comm_only else ctx.uav_grid.centers,
                                    ctx.region_bounds(region))
    att, dirs = paths[:2]
    gamma = reference_comm_snr(ctx, att, dirs, orient)
    if np.max(gamma) <= 0.0:
        raise unreachable(" reaches no UE cell")
    if np.min(gamma) <= 0.0 and mode != "passive-orientation":
        raise unreachable(" has a zero-SNR UE cell")
    try:
        crbs = None if comm_only else reference_sensing_crbs(ctx, p, orient, att[0], dirs[0])
    except UnobservablePathError as exc:
        raise unreachable(f": {exc}") from exc
    return RisReference(position=p, orientation=orient, gamma_ref=gamma,
                        gamma_worst=float(np.min(gamma[gamma > 0.0])), crbs=crbs)


def size_plan(ctx: OptimizerContext, refs: list, omega0: float) -> Step1Result:
    """Closed-form rest of step 1 from the per-RIS references: per UAV cell
    the best beta split of each RIS and the KKT power allocation across RISs;
    panel sizes take the worst (largest) UAV cell. The per-cell beta
    minimization is exact for the decoupled objective because E is monotone
    in the sum of the per-RIS KKT weights, each of which depends only on that
    RIS's own c_n. The power split and the objective take each RIS's coverage
    area over the UE cells it serves (gamma_ref > 0), which leaves out the cells
    a flush panel in passive-orientation mode does not reach. SizeCapError when
    a panel's side exceeds `size_cap`."""
    n_ris = len(refs)
    comm_only = ctx.cfg.mode == "comm-only"
    cov_areas = np.array([np.count_nonzero(r.gamma_ref > 0) * ctx.ue_grid.cell_area
                          for r in refs])
    m_u = 1 if comm_only else len(ctx.uav_grid.centers)
    betas = np.ones((m_u, n_ris))
    omegas = np.zeros((m_u, n_ris + 1))
    c_table = np.zeros((m_u, n_ris))
    grid = np.asarray(ctx.cfg.beta_grid, dtype=float)
    for n, ref in enumerate(refs):
        if comm_only:
            c_table[:, n] = ctx.link.snr_threshold_linear / ref.gamma_worst
            continue
        c_max = constraint_constants(ref.gamma_worst, *ref.crbs, ctx,
                                     grid[:, None]).c_max  # (beta grid, M_u)
        best = np.argmin(c_max, axis=0)  # the first minimum on a tie
        betas[:, n] = grid[best]
        c_table[:, n] = c_max[best, np.arange(m_u)]
    omegas[:, 0] = omega0
    omegas[:, 1:] = kkt_power_allocation(c_table, cov_areas, omega0)
    sizes = []
    objective = 0.0
    margin = db2lin(ctx.cfg.size_margin_db)
    for n in range(n_ris):
        u_star = int(np.argmax(c_table[:, n] / omegas[:, n + 1]))
        size = ris_size(c_table[u_star, n] * margin, omegas[u_star, n + 1],
                        ctx.cell_area, ctx.m_ref, ctx.cell_spacing)
        if size.side > ctx.cfg.size_cap:
            raise SizeCapError(f"RIS {n} at {np.round(refs[n].position, 2)} needs a "
                               f"{size.side:.4g} m panel side, over size_cap "
                               f"{ctx.cfg.size_cap:g} m")
        sizes.append(size)
        objective += size.area / cov_areas[n]
    return Step1Result(objective=float(objective), positions=[r.position for r in refs],
                       orientations=[r.orientation for r in refs], sizes=sizes,
                       beta_per_uav=betas, omega_per_uav=omegas,
                       gamma_ref=[r.gamma_ref for r in refs])


def step1_evaluate(positions, context: OptimizerContext, omega0: float | None = None) -> Step1Result:
    """Algorithm step 1 at fixed RIS positions: every RIS's paths, which reject a
    leg without one before any orientation search, a reference per RIS, then the sizing."""
    if len(positions) != len(context.regions):
        raise InvalidInputError("one position per deployable region required")
    if omega0 is None:
        omega0 = direct_power_share(context)
    paths = [ris_paths(context, n, p) for n, p in enumerate(positions)]
    return size_plan(context, [ris_reference(context, n, p, paths[n])
                               for n, p in enumerate(positions)], omega0)


def patch_points(coords, regions) -> list:
    "Mounting points of the per-RIS patch (u, v) pairs laid out in coords."
    return [region.point_at(coords[2 * n], coords[2 * n + 1])
            for n, region in enumerate(regions)]


@dataclass
class SimplexState:
    """Nelder-Mead simplex over per-RIS patch coordinates."""

    coords: np.ndarray  # (M_s + 1, 2N) patch (u, v) pairs
    objectives: np.ndarray  # (M_s + 1,)
    results: list  # Step1Result per vertex
    omega0: float  # direct-beam power share, the same at every placement
    iteration: int = 0
    evaluations: int = 0  # step-1 evaluations so far, resampled vertices included
    unreachable: int = 0  # of them, the ones that raised UnreachableTargetsError
    over_cap: int = 0  # of those, the ones whose panel exceeded size_cap (SizeCapError)

    def order(self):
        idx = np.argsort(self.objectives, kind="stable")
        self.coords = self.coords[idx]
        self.objectives = self.objectives[idx]
        self.results = [self.results[i] for i in idx]

    def evaluate(self, coords, context: OptimizerContext):
        "Objective and Step1Result at patch coordinates; inf and None where unreachable."
        self.evaluations += 1
        try:
            res = step1_evaluate(patch_points(coords, context.regions), context, self.omega0)
        except UnreachableTargetsError as exc:
            self.unreachable += 1
            self.over_cap += isinstance(exc, SizeCapError)
            return np.inf, None
        return res.objective, res


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    best_objective: float
    mean_spread: float
    std_spread: float
    max_spread: float


@dataclass(frozen=True)
class OptimizationResult:
    step1: Step1Result  # the plan at the best placement
    trace: list
    converged: bool
    iterations: int
    evaluations: int  # step-1 evaluations; for the path-loss baseline, its per-RIS checks
    unreachable: int  # of them, the ones that raised UnreachableTargetsError
    over_cap: int  # of those, the ones whose panel exceeded size_cap (SizeCapError)


def _project(coords: np.ndarray, regions) -> np.ndarray:
    out = coords.copy()
    for n, region in enumerate(regions):
        u, v = region.clamp(coords[2 * n], coords[2 * n + 1])
        out[2 * n], out[2 * n + 1] = u, v
    return out


def initial_simplex(context: OptimizerContext, seed: int = 0,
                    n_vertices: int | None = None) -> SimplexState:
    """Random vertices inside the regions; M_s = 2N by default. A vertex takes
    up to 50 samples; when none is evaluable, SizeCapError if one of them
    failed only on `size_cap`, else UnreachableTargetsError."""
    n_ris = len(context.regions)
    if n_vertices is None:
        n_vertices = 2 * n_ris + 1
    rng = np.random.default_rng(seed)
    state = SimplexState(coords=np.zeros((n_vertices, 2 * n_ris)),
                         objectives=np.zeros(n_vertices), results=[],
                         omega0=direct_power_share(context))
    for v in range(n_vertices):
        capped = state.over_cap
        for _ in range(50):  # resample until the vertex is evaluable
            for n, region in enumerate(context.regions):
                state.coords[v, 2 * n], state.coords[v, 2 * n + 1] = region.sample(rng)
            state.objectives[v], res = state.evaluate(state.coords[v], context)
            if res is not None:
                break
        else:
            if state.over_cap > capped:
                raise SizeCapError("could not sample an initial simplex vertex whose panels "
                                   f"fit size_cap {context.cfg.size_cap:g} m")
            raise UnreachableTargetsError(
                "could not sample an evaluable initial simplex vertex")
        state.results.append(res)
    return state


def nelder_mead_run(initial: SimplexState, context: OptimizerContext) -> OptimizationResult:
    """Derivative-free simplex search over the mounting patches.

    Standard reflect (1), expand (2), contract (0.5) and shrink (0.5) steps;
    proposals leaving a patch are projected to its nearest point. Terminates
    when every RIS's vertices sit within d_min of each other, or at the
    iteration cap (flagged non-converged).
    """
    regions = context.regions
    state = initial
    state.order()
    trace = []
    converged = False
    for it in range(1, context.cfg.max_iterations + 1):
        state.iteration = it
        spreads = _per_ris_spreads(state, regions)
        trace.append(TraceRecord(iteration=it, best_objective=float(state.objectives[0]),
                                 mean_spread=float(np.mean(spreads)),
                                 std_spread=float(np.std(spreads)),
                                 max_spread=float(np.max(spreads))))
        if np.max(spreads) <= context.cfg.d_min:
            converged = True
            break
        centroid = np.mean(state.coords[:-1], axis=0)
        worst = state.coords[-1]
        refl = _project(centroid + 1.0 * (centroid - worst), regions)
        f_refl, r_refl = state.evaluate(refl, context)
        if f_refl < state.objectives[0]:
            exp = _project(centroid + 2.0 * (centroid - worst), regions)
            f_exp, r_exp = state.evaluate(exp, context)
            if f_exp < f_refl:
                _replace_worst(state, exp, f_exp, r_exp)
            else:
                _replace_worst(state, refl, f_refl, r_refl)
        elif f_refl < state.objectives[-2]:
            _replace_worst(state, refl, f_refl, r_refl)
        else:
            if f_refl < state.objectives[-1]:
                contract = _project(centroid + 0.5 * (refl - centroid), regions)
            else:
                contract = _project(centroid + 0.5 * (worst - centroid), regions)
            f_con, r_con = state.evaluate(contract, context)
            if f_con < min(state.objectives[-1], f_refl):
                _replace_worst(state, contract, f_con, r_con)
            else:  # shrink toward the best vertex
                for v in range(1, state.coords.shape[0]):
                    state.coords[v] = _project(
                        state.coords[0] + 0.5 * (state.coords[v] - state.coords[0]), regions)
                    state.objectives[v], state.results[v] = state.evaluate(
                        state.coords[v], context)
        state.order()
    return OptimizationResult(step1=state.results[0], trace=trace, converged=converged,
                              iterations=state.iteration, evaluations=state.evaluations,
                              unreachable=state.unreachable, over_cap=state.over_cap)


def _per_ris_spreads(state: SimplexState, regions) -> np.ndarray:
    pts = np.array([patch_points(coords, regions) for coords in state.coords])
    spreads = []
    for n in range(len(regions)):
        p = pts[:, n, :]
        diff = p[:, None, :] - p[None, :, :]
        spreads.append(float(np.max(np.linalg.norm(diff, axis=-1))))
    return np.asarray(spreads)


def _replace_worst(state: SimplexState, coords, objective, result):
    state.coords[-1] = coords
    state.objectives[-1] = objective
    state.results[-1] = result


def pathloss_baseline(context: OptimizerContext, samples: int = 64,
                      seed: int = 0) -> OptimizationResult:
    """Comparison baseline: place each RIS at the patch point minimizing the
    summed free-space path loss to the BS and its covered UE cells, then size
    the plan once at those positions.

    Free space ignores blockage, so the cheapest sample can have no path to a
    cell. Each RIS takes the cheapest of its samples whose per-RIS reference
    (ris_reference) can be formed, and the sizing uses the references these
    checks accepted.
    """
    rng = np.random.default_rng(seed)
    omega0 = direct_power_share(context)
    refs = []
    checks = unreachable = 0
    for n, region in enumerate(context.regions):
        cells = context.ue_grid.centers[region.covered_cells]
        uvs, costs = [], []
        for _ in range(samples):
            u, v = region.sample(rng)
            p = region.point_at(u, v)
            cost = np.linalg.norm(p - context.scene.bs_position) ** 2
            costs.append(cost + float(np.mean(np.linalg.norm(cells - p, axis=1) ** 2)))
            uvs.append((u, v))
        for k in np.argsort(costs, kind="stable"):
            checks += 1
            try:
                refs.append(ris_reference(context, n, region.point_at(*uvs[k])))
            except UnreachableTargetsError:
                unreachable += 1
            else:
                break
        else:
            raise UnreachableTargetsError(
                f"RIS {n}: no evaluable point among {samples} samples")
    return OptimizationResult(step1=size_plan(context, refs, omega0), trace=[],
                              converged=True, iterations=0, evaluations=checks,
                              unreachable=unreachable, over_cap=0)
