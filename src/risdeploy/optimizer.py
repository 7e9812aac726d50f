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
from functools import lru_cache

import numpy as np

from .arrays import Orientation, OrientationBounds, panel_normal
from .channel import PANEL_FOV_RAD, LinkBudget, unit_cell_amplitude_gain
from .errors import (InfeasiblePowerError, InvalidInputError, NoPathError,
                     UnobservablePathError, UnreachableTargetsError)
from .propagation import PropagationConfig, dominant_path_between, fspl_amplitude
from .ris_bf import quantization_efficiency
from .sensing import CrbPair, OfdmParams, OfdmWaveform, SensingPath, WaveformMoments, fim
from .units import SPEED_OF_LIGHT, db2lin


@dataclass(frozen=True)
class ConstraintConstants:
    c1: float
    c2: float
    c3: float

    @property
    def c_max(self) -> float:
        return max(self.c1, self.c2, self.c3)


def constraint_constants(gamma_ref_worst: float, crb_ref: CrbPair, ctx: "OptimizerContext",
                         beta: float) -> ConstraintConstants:
    """Per-RIS normalized constraint constants for a candidate beta split.

    c1 compares the SNR threshold of `ctx.link` to the worst reference SNR
    over the RIS's UE cells; c2/c3 compare the reference range/velocity CRBs
    to the caps of `ctx.cfg`.
    """
    if not (0.0 < beta < 1.0):
        raise InvalidInputError("beta must be strictly inside (0, 1)")
    if gamma_ref_worst <= 0:
        raise InvalidInputError("reference SNR must be positive")
    return ConstraintConstants(
        c1=ctx.link.snr_threshold_linear / (beta * gamma_ref_worst),
        c2=crb_ref.range_crb / ((1.0 - beta) * ctx.cfg.range_crb_max),
        c3=crb_ref.velocity_crb / ((1.0 - beta) * ctx.cfg.velocity_crb_max),
    )


def kkt_power_allocation(c, cov_areas, omega0: float) -> np.ndarray:
    """Optimal BS power split across RISs for the sizing objective.

    omega_n proportional to (sqrt(c_n) / (2 A_n^cov))^(2/3), rescaled to sum
    to 1 - omega0 (the remainder of the power after the direct sensing beam).
    """
    c = np.asarray(c, dtype=float)
    areas = np.asarray(cov_areas, dtype=float)
    if c.shape != areas.shape or c.ndim != 1 or c.size == 0:
        raise InvalidInputError("c and cov_areas must be equal-length 1-D arrays")
    if np.any(c <= 0) or np.any(areas <= 0):
        raise InvalidInputError("constraint constants and areas must be positive")
    if not (0.0 <= omega0 < 1.0):
        raise InfeasiblePowerError(f"omega0 = {omega0} leaves no power for the RIS beams")
    w = (np.sqrt(c) / (2.0 * areas)) ** (2.0 / 3.0)
    return w / np.sum(w) * (1.0 - omega0)


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
    "Panel-normal direction vectors over a (theta_r, psi_r) grid (cached)."
    return _axis_grid_cached(round(bounds.theta_low, 12), round(bounds.theta_high, 12),
                             round(bounds.psi_low, 12), round(bounds.psi_high, 12),
                             round(step, 15))


@lru_cache(maxsize=64)
def _axis_grid_cached(theta_low, theta_high, psi_low, psi_high, step):
    thetas = np.arange(theta_low, theta_high + step / 2, step)
    psis = np.arange(psi_low, psi_high + step / 2, step)
    tg, pg = np.meshgrid(thetas, psis, indexing="ij")
    axes = np.ascontiguousarray(panel_normal(tg, pg).reshape(-1, 3).T)  # (3, n_axes)
    return thetas, psis, axes, tg.ravel(), pg.ravel()


_COS_FOV = float(np.cos(PANEL_FOV_RAD))


def _orientation_score(axes: np.ndarray, u_bs, u_ue, u_uav) -> np.ndarray:
    """Worst-target cosine product; positive only when the BS, every UE cell
    and every UAV cell sit inside the panel field of view. The sizing is
    driven by the worst cell, so the worst-case product is the surrogate.

    `axes` is (3, n_axes), so each target's cosines form one contiguous row
    and the minima over targets run along whole rows."""
    n_ue = len(u_ue)
    targets = np.vstack([u_bs[None, :], u_ue] if u_uav is None or not len(u_uav)
                        else [u_bs[None, :], u_ue, u_uav])
    cos = targets @ axes  # (1 + n_ue [+ n_uav], n_axes)
    cos *= cos > _COS_FOV  # outside the panel field of view counts as zero
    score = cos[0] * np.min(cos[1:n_ue + 1], axis=0)
    if targets.shape[0] > n_ue + 1:
        score *= np.min(cos[n_ue + 1:], axis=0)
    return score


def orientation_search(ris_pos, bs_pos, ue_centers, uav_centers,
                       bounds: OrientationBounds) -> Orientation:
    """Orientation maximizing the worst-target boresight-cosine product.

    Grid search at ORIENTATION_STEP resolution over the bounds, then a 20x
    finer pass in a +-1.5 step window around the coarse optimum. Back-side
    directions contribute zero.
    """
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
    _, _, axes, tg, pg = _axis_grid(bounds, ORIENTATION_STEP)
    score = _orientation_score(axes, u_bs, u_ue, u_uav)
    best = int(np.argmax(score))
    if score[best] <= 0.0:
        raise UnreachableTargetsError("no orientation sees the BS and any target")
    window = 1.5 * ORIENTATION_STEP
    fine = OrientationBounds(
        max(bounds.theta_low, tg[best] - window), min(bounds.theta_high, tg[best] + window),
        max(bounds.psi_low, pg[best] - window), min(bounds.psi_high, pg[best] + window))
    _, _, axes_f, tg_f, pg_f = _axis_grid(fine, ORIENTATION_STEP / 20.0)
    score_f = _orientation_score(axes_f, u_bs, u_ue, u_uav)
    best_f = int(np.argmax(score_f))
    return Orientation(float(tg_f[best_f]), float(pg_f[best_f]))


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

    @property
    def bs_amp_gain(self) -> float:
        "Amplitude gain of the matched-beamformed BS array."
        return float(np.sqrt(math.prod(self.cfg.bs_array) * db2lin(self.cfg.bs_gain_dbi)))

    @property
    def rcs_amp(self) -> float:
        "Scatter amplitude inserted between the two FSPL legs of a bounce."
        return float(np.sqrt(4.0 * np.pi * self.cfg.rcs) / self.wavelength)

    @property
    def quant_eff(self) -> float:
        return quantization_efficiency(self.cfg.bits)

    def region_bounds(self, region) -> OrientationBounds:
        "C4 orientation bounds: near the face normal, limited tilt."
        normal = region.normal()
        psi0 = float(np.arctan2(normal[1], normal[0]))
        return OrientationBounds(-THETA_LIMIT, THETA_LIMIT,
                                 psi0 - PSI_HALFWIDTH, psi0 + PSI_HALFWIDTH)


def reference_comm_snr(ctx: OptimizerContext, position, orientation: Orientation,
                       region) -> np.ndarray:
    """Reference per-UE-cell SNR of the M_ref panel at unit beta and omega.

    gamma_k = (P_t / sigma^2) q_L G_bs |a_b a_k|^2 eta (M_ref g_b g_k)^2, with
    a_* the dominant-path amplitudes of the two legs and g_* the per-cell
    amplitude gains toward the two legs' departure directions.
    """
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


def sensing_path(ctx: OptimizerContext, index: int, uav, omega: float, ris=None,
                 cascade=None, velocity=None) -> SensingPath:
    """Round trip of the BS beam at power share omega through a UAV.

    Without a RIS position this is the direct BS->UAV->BS path. With one it
    is the BS->RIS->UAV->BS path, whose panel traversal (BS leg, cells, UAV
    leg) has the complex amplitude `cascade`: the reference model in sizing,
    the synthesized panel sum in the closure. The reverse trip
    BS->UAV->RIS->BS has the same delay and adds coherently, hence the 2.
    Doppler is the range rate of the two legs that end at the UAV; zero
    without a velocity.
    """
    bs = ctx.scene.bs_position
    uav = np.asarray(uav, dtype=float)
    far = bs if ris is None else np.asarray(ris, dtype=float)  # other end of the UAV's leg
    d_bu = float(np.linalg.norm(uav - bs))
    d_far = float(np.linalg.norm(uav - far))
    lam = ctx.wavelength
    scale = np.sqrt(ctx.link.tx_power_w * omega) * ctx.bs_amp_gain**2
    if ris is None:
        coeff = scale * fspl_amplitude(d_bu, lam) ** 2 * ctx.rcs_amp
    else:
        coeff = 2.0 * scale * cascade * ctx.rcs_amp * fspl_amplitude(d_bu, lam)
    length = d_far + d_bu + float(np.linalg.norm(far - bs))
    rate = 0.0 if velocity is None else float(
        np.dot(velocity, (uav - far) / d_far) + np.dot(velocity, (uav - bs) / d_bu))
    return SensingPath(index=index, delay=length / SPEED_OF_LIGHT, doppler=-rate / lam,
                       coeff=coeff, carrier_hz=ctx.ofdm.carrier_hz)


def _reference_cascade(ctx: OptimizerContext, position, axis, uav_center) -> float:
    "Traversal amplitude of the M_ref reference panel from the BS to a UAV."
    bs = ctx.scene.bs_position
    d_b = float(np.linalg.norm(position - bs))
    d_u = float(np.linalg.norm(uav_center - position))
    cos_b = float(np.clip(np.dot((bs - position) / d_b, axis), 0.0, None))
    cos_u = float(np.clip(np.dot((uav_center - position) / d_u, axis), 0.0, None))
    lam = ctx.wavelength
    g_cells = (ctx.m_ref * np.sqrt(ctx.cfg.efficiency * ctx.quant_eff)
               * unit_cell_amplitude_gain(np.arccos(cos_b), ctx.cell_area, lam)
               * unit_cell_amplitude_gain(np.arccos(cos_u), ctx.cell_area, lam))
    return fspl_amplitude(d_b, lam) * g_cells * fspl_amplitude(d_u, lam)


def reference_sensing_crbs(ctx: OptimizerContext, position, orientation: Orientation) -> list:
    """Reference CRB pair per UAV cell at unit beta, omega and size scale."""
    p = np.asarray(position, dtype=float)
    axis = panel_normal(orientation.theta_r, orientation.psi_r)
    return [fim(ctx.ofdm, sensing_path(ctx, 1, center, 1.0, ris=p,
                                       cascade=_reference_cascade(ctx, p, axis, center)),
                ctx.link.noise_psd_w_hz, ctx.moments)
            for center in ctx.uav_grid.centers]


def direct_sensing_crb(ctx: OptimizerContext, uav_center) -> CrbPair:
    "Reference CRB of the direct BS->UAV->BS path at full power."
    return fim(ctx.ofdm, sensing_path(ctx, 0, uav_center, 1.0), ctx.link.noise_psd_w_hz,
               ctx.moments)


def direct_power_share(ctx: OptimizerContext) -> float:
    """Smallest omega0 for which the direct beam meets both CRB caps at every
    UAV cell; zero in communication-only mode."""
    if ctx.cfg.mode == "comm-only":
        return 0.0
    worst = 0.0
    for center in ctx.uav_grid.centers:
        ref = direct_sensing_crb(ctx, center)
        worst = max(worst, ref.range_crb / ctx.cfg.range_crb_max,
                    ref.velocity_crb / ctx.cfg.velocity_crb_max)
    if worst >= 1.0:
        raise InfeasiblePowerError(
            f"direct sensing alone needs omega0 = {worst:.3f} >= 1")
    if worst == 0.0:
        return 0.0
    return float(min(worst * db2lin(OMEGA0_MARGIN_DB), 0.5 * (1.0 + worst)))


@dataclass(frozen=True)
class Step1Result:
    objective: float
    positions: list  # N 3-vectors
    orientations: list  # N Orientation
    sizes: list  # N RisSize (max over UAV cells)
    beta_per_uav: np.ndarray  # (M_u, N)
    omega_per_uav: np.ndarray  # (M_u, N+1), column 0 = omega0
    c_per_uav: np.ndarray  # (M_u, N) chosen c_n
    gamma_ref: list  # N arrays of per-UE-cell reference SNR


@dataclass(frozen=True)
class RisReference:
    "What step 1 needs of one RIS at a fixed position, which depends on that RIS alone."

    position: np.ndarray  # 3-vector
    orientation: Orientation
    gamma_ref: np.ndarray  # per-UE-cell reference SNR
    gamma_worst: float  # worst reference SNR over the served cells (gamma_ref > 0)
    crbs: list | None  # reference CrbPair per UAV cell; None in comm-only mode


def ris_reference(ctx: OptimizerContext, n: int, position) -> RisReference:
    """Orientation (the face normal in passive-orientation mode), reference
    SNR and reference CRBs of RIS n at a fixed position. UnreachableTargetsError
    when that RIS cannot serve its targets from there."""
    region = ctx.regions[n]
    mode = ctx.cfg.mode
    comm_only = mode == "comm-only"
    p = np.asarray(position, dtype=float)

    def unreachable(why: str) -> UnreachableTargetsError:
        return UnreachableTargetsError(f"RIS {n} at {np.round(p, 2)}{why}")

    if mode == "passive-orientation":
        normal = region.normal()
        orient = Orientation(0.0, float(np.arctan2(normal[1], normal[0])))
    else:
        orient = orientation_search(p, ctx.scene.bs_position,
                                    ctx.ue_grid.centers[region.covered_cells],
                                    None if comm_only else ctx.uav_grid.centers,
                                    ctx.region_bounds(region))
    try:
        gamma = reference_comm_snr(ctx, p, orient, region)
    except NoPathError as exc:
        raise unreachable(f": {exc}") from exc
    if np.max(gamma) <= 0.0:
        raise unreachable(" reaches no UE cell")
    if np.min(gamma) <= 0.0 and mode != "passive-orientation":
        raise unreachable(" has a zero-SNR UE cell")
    try:
        crbs = None if comm_only else reference_sensing_crbs(ctx, p, orient)
    except UnobservablePathError as exc:
        raise unreachable(f": {exc}") from exc
    return RisReference(position=p, orientation=orient, gamma_ref=gamma,
                        gamma_worst=float(np.min(gamma[gamma > 0.0])), crbs=crbs)


def _best_beta(ctx: OptimizerContext, gamma_worst: float, crb: CrbPair):
    "Beta in the grid minimizing c_n = max(c1, c2, c3) for one RIS/UAV cell."
    best = None
    for beta in ctx.cfg.beta_grid:
        cc = constraint_constants(gamma_worst, crb, ctx, float(beta))
        if best is None or cc.c_max < best[1]:
            best = (float(beta), cc.c_max)
    return best


def size_plan(ctx: OptimizerContext, refs: list, omega0: float) -> Step1Result:
    """Closed-form rest of step 1 from the per-RIS references: per UAV cell
    the best beta split of each RIS and the KKT power allocation across RISs;
    panel sizes take the worst (largest) UAV cell. The per-cell beta
    minimization is exact for the decoupled objective because E is monotone
    in the sum of the per-RIS KKT weights, each of which depends only on that
    RIS's own c_n."""
    n_ris = len(refs)
    comm_only = ctx.cfg.mode == "comm-only"
    cov_areas = np.array([r.coverage_area for r in ctx.regions])
    m_u = 1 if comm_only else len(ctx.uav_grid.centers)
    betas = np.zeros((m_u, n_ris))
    omegas = np.zeros((m_u, n_ris + 1))
    c_table = np.zeros((m_u, n_ris))
    for u in range(m_u):
        for n, ref in enumerate(refs):
            if comm_only:
                beta, c_n = 1.0, ctx.link.snr_threshold_linear / ref.gamma_worst
            else:
                beta, c_n = _best_beta(ctx, ref.gamma_worst, ref.crbs[u])
            betas[u, n] = beta
            c_table[u, n] = c_n
        omegas[u, 0] = omega0
        omegas[u, 1:] = kkt_power_allocation(c_table[u], cov_areas, omega0)
    sizes = []
    objective = 0.0
    margin = db2lin(ctx.cfg.size_margin_db)
    for n in range(n_ris):
        u_star = int(np.argmax(c_table[:, n] / omegas[:, n + 1]))
        size = ris_size(c_table[u_star, n] * margin, omegas[u_star, n + 1],
                        ctx.cell_area, ctx.m_ref, ctx.cell_spacing)
        if size.side > ctx.cfg.size_cap:
            size = _square_panel(ctx.cfg.size_cap**2, ctx.cell_spacing)
        sizes.append(size)
        objective += size.area / cov_areas[n]
    return Step1Result(objective=float(objective), positions=[r.position for r in refs],
                       orientations=[r.orientation for r in refs], sizes=sizes,
                       beta_per_uav=betas, omega_per_uav=omegas, c_per_uav=c_table,
                       gamma_ref=[r.gamma_ref for r in refs])


def step1_evaluate(positions, context: OptimizerContext, omega0: float | None = None) -> Step1Result:
    "Algorithm step 1 at fixed RIS positions: a reference per RIS, then the sizing."
    if len(positions) != len(context.regions):
        raise InvalidInputError("one position per deployable region required")
    if omega0 is None:
        omega0 = direct_power_share(context)
    return size_plan(context, [ris_reference(context, n, p) for n, p in enumerate(positions)],
                     omega0)


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
        except UnreachableTargetsError:
            self.unreachable += 1
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
    patch_coords: np.ndarray
    evaluations: int  # step-1 evaluations; for the path-loss baseline, its per-RIS checks
    unreachable: int  # of them, the ones that raised UnreachableTargetsError


def _project(coords: np.ndarray, regions) -> np.ndarray:
    out = coords.copy()
    for n, region in enumerate(regions):
        u, v = region.clamp(coords[2 * n], coords[2 * n + 1])
        out[2 * n], out[2 * n + 1] = u, v
    return out


def initial_simplex(context: OptimizerContext, seed: int = 0,
                    n_vertices: int | None = None) -> SimplexState:
    "Random vertices inside the regions; M_s = 2N by default."
    n_ris = len(context.regions)
    if n_vertices is None:
        n_vertices = 2 * n_ris + 1
    rng = np.random.default_rng(seed)
    state = SimplexState(coords=np.zeros((n_vertices, 2 * n_ris)),
                         objectives=np.zeros(n_vertices), results=[],
                         omega0=direct_power_share(context))
    for v in range(n_vertices):
        for _ in range(50):  # resample until the vertex is evaluable
            for n, region in enumerate(context.regions):
                state.coords[v, 2 * n], state.coords[v, 2 * n + 1] = region.sample(rng)
            state.objectives[v], res = state.evaluate(state.coords[v], context)
            if res is not None:
                break
        else:
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
                              iterations=state.iteration, patch_coords=state.coords[0].copy(),
                              evaluations=state.evaluations, unreachable=state.unreachable)


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
    coords = np.zeros(2 * len(context.regions))
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
                continue
            coords[2 * n], coords[2 * n + 1] = uvs[k]
            break
        else:
            raise UnreachableTargetsError(
                f"RIS {n}: no evaluable point among {samples} samples")
    return OptimizationResult(step1=size_plan(context, refs, omega0), trace=[],
                              converged=True, iterations=0, patch_coords=coords,
                              evaluations=checks, unreachable=unreachable)
