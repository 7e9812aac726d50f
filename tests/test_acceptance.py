"""End-to-end acceptance suite, one test (and one printed verdict) per criterion.

A1  waveform constants              A4  explicit-gain scaling law
A2  power-allocation optimality     A5  placement-search convergence
A3  Fisher-information correctness  A6  deployment closure
A7  mode-comparison directions      A8  radar pipeline
A9  set-cover quality
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy import optimize as sciopt

from risdeploy import cli
from risdeploy.errors import InfeasibleCoverageError
from risdeploy.evaluation import closure_report
from risdeploy.optimizer import (direct_power_share, kkt_power_allocation,
                                 step1_evaluate)
from risdeploy.propagation import fspl_amplitude
from risdeploy.radar import (detect_paths, ls_position, range_velocity_map,
                             synthesize_returns)
from risdeploy.ris_bf import ris_cell_positions
from risdeploy.scene import DeployableRegion, select_ris_regions
from risdeploy.sensing import OfdmParams, OfdmWaveform, SensingPath, WaveformMoments, fim
from risdeploy.arrays import Orientation
from risdeploy.channel import cell_amplitude_gain
from risdeploy.errors import UnreachableTargetsError
from risdeploy.units import SPEED_OF_LIGHT, lin2db, wavelength

import conftest
from _oracles import fd_fim, moments_per_symbol


def _verdict(name: str, ok: bool, detail: str):
    line = f"{name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.record_verdict(line)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- A1


def test_a1_waveform_constants():
    p = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=2560, symbols=2048)
    t0 = p.frame_duration
    rr = p.range_resolution
    vr = p.velocity_resolution
    ok = (abs(t0 - 5.24e-3) / 5.24e-3 < 0.005
          and abs(rr - 0.15) / 0.15 < 0.01
          and abs(vr - 1.021) / 1.021 < 0.01)
    _verdict("A1 waveform constants", ok,
             f"T0={t0 * 1e3:.5f} ms (5.24 +-0.5%), "
             f"range res={rr:.4f} m (0.15 +-1%), velocity res={vr:.4f} m/s (1.021 +-1%)")


# ---------------------------------------------------------------- A2


def _alloc_objective(w, c, areas):
    return float(np.sum(np.sqrt(c / w) / areas))


def test_a2_power_allocation_optimality():
    rng = np.random.default_rng(2)
    worst_gap = 0.0
    beaten = True
    for _ in range(500):
        n = int(rng.integers(2, 5))
        c = rng.uniform(1e-3, 1.0, n)
        areas = rng.uniform(50.0, 2000.0, n)
        omega0 = float(rng.uniform(0.0, 0.6))
        budget = 1.0 - omega0
        w_kkt = kkt_power_allocation(c, areas, omega0)
        f_kkt = _alloc_objective(w_kkt, c, areas)
        # 200 random feasible splits per instance (1e5 total)
        rand = rng.dirichlet(np.ones(n), size=200) * budget
        f_rand = np.sum(np.sqrt(c / rand) / areas, axis=1)
        beaten &= bool(np.all(f_rand >= f_kkt - 1e-12))
        # numeric minimizer on the simplex
        res = sciopt.minimize(
            _alloc_objective, np.full(n, budget / n), args=(c, areas),
            method="SLSQP",
            bounds=[(1e-9, budget)] * n,
            constraints=[{"type": "eq", "fun": lambda w: np.sum(w) - budget}],
            options={"ftol": 1e-14, "maxiter": 200})
        gap = abs(f_kkt - res.fun) / res.fun
        worst_gap = max(worst_gap, gap)
    ok = beaten and worst_gap < 1e-6
    _verdict("A2 power allocation", ok,
             f"closed form beat 100000 random splits: {beaten}; "
             f"worst relative gap to SLSQP {worst_gap:.2e} (< 1e-6)")


# ---------------------------------------------------------------- A3


def test_a3_fisher_information():
    params = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=64, symbols=16)
    wave = OfdmWaveform(params, seed=7)
    rng = np.random.default_rng(3)
    dt = 1.0 / params.bandwidth_hz
    worst = 0.0
    for _ in range(20):
        delay = int(rng.integers(0, 40)) * dt
        doppler = float(rng.uniform(-5e4, 5e4))
        coeff = (rng.uniform(1e-8, 1e-6)
                 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        path = SensingPath(0, delay, doppler, coeff, params.carrier_hz)
        delayed = WaveformMoments(*moments_per_symbol(wave, delay, wave_seed=7))
        analytic = fim(params, abs(path.coeff), 3.16e-20, delayed)[2][:, :, 0]
        numeric = fd_fim(wave, path, 3.16e-20, wave_seed=7)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / np.abs(numeric))))
    # CRB scaling: 10-point |coeff| sweep, log-log slope must be -2
    amps = np.logspace(-8, -6, 10)
    mom = wave.moments()
    crbs = fim(params, amps, 1e-19, mom)[0]
    slope = np.polyfit(np.log(amps), np.log(crbs), 1)[0]
    ok = worst < 0.01 and abs(slope + 2.0) < 0.01
    _verdict("A3 Fisher information", ok,
             f"max FIM deviation from finite differences {worst:.2e} (< 1%), "
             f"CRB-vs-|coeff| log-log slope {slope:+.4f} (-2.00 +-0.01)")


# ---------------------------------------------------------------- A4


def test_a4_gain_scaling_law():
    lam = wavelength(28e9)
    spc = lam / 2.0
    cell_area = spc**2
    bs = np.array([170.0, 80.0, 25.0])
    ue = np.array([150.0, -40.0, -8.0])
    snrs = []
    sides = [4, 8, 16, 20]
    for side in sides:
        cells = ris_cell_positions(side, spc, np.zeros(3), Orientation(0.0, np.pi / 4))
        d_b = np.linalg.norm(cells - bs, axis=1)
        d_k = np.linalg.norm(cells - ue, axis=1)
        axis = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
        cos_b = (bs - cells) @ axis / d_b
        cos_k = (ue - cells) @ axis / d_k
        gains = np.array([
            cell_amplitude_gain(cb, cell_area, lam) * cell_amplitude_gain(ck, cell_area, lam)
            * fspl_amplitude(db, lam) * fspl_amplitude(dk, lam)
            for cb, ck, db, dk in zip(cos_b, cos_k, d_b, d_k)])
        # conjugate-matched continuous phases: every cell adds in phase
        snrs.append(float(np.sum(gains)) ** 2)
    m = np.array(sides, dtype=float) ** 2
    slope = np.polyfit(np.log(m), np.log(snrs), 1)[0]
    ok = abs(slope - 2.0) < 0.02
    _verdict("A4 gain scaling", ok,
             f"cascaded SNR vs cell count log-log slope {slope:.4f} (2.00 +-0.02) "
             f"over M in {[s * s for s in sides]}")


# ---------------------------------------------------------------- A5


def test_a5_placement_convergence(ctx_full, nm_result):
    best = [t.best_objective for t in nm_result.trace]
    monotone = all(b <= a + 1e-12 for a, b in zip(best, best[1:]))
    rng = np.random.default_rng(12)
    omega0 = direct_power_share(ctx_full)
    regions = ctx_full.regions
    best_random = np.inf
    for _ in range(10_000):
        positions = [r.point_at(*r.sample(rng)) for r in regions]
        try:
            obj = step1_evaluate(positions, ctx_full, omega0).objective
        except UnreachableTargetsError:
            continue
        best_random = min(best_random, obj)
    within = nm_result.step1.objective <= best_random * 1.02
    ok = (nm_result.converged and nm_result.iterations <= 500 and monotone
          and nm_result.trace[-1].max_spread <= 0.3 and within)
    _verdict("A5 placement convergence", ok,
             f"converged={nm_result.converged} in {nm_result.iterations} iters "
             f"(max spread {nm_result.trace[-1].max_spread:.3f} m <= 0.3), "
             f"monotone={monotone}, objective {nm_result.step1.objective:.6g} vs "
             f"10000-sample random best {best_random:.6g} (within 2%: {within})")


# ---------------------------------------------------------------- A6


def test_a6_deployment_closure(ctx_full, nm_result):
    report = closure_report(ctx_full, nm_result.step1)
    ok = (report.snr_margin_db >= -3.0
          and report.crb_range_margin_db >= -3.0
          and report.crb_velocity_margin_db >= -3.0)
    _verdict("A6 deployment closure", ok,
             f"SNR margin {report.snr_margin_db:+.2f} dB, CRB margins "
             f"{report.crb_range_margin_db:+.2f} dB (range) / "
             f"{report.crb_velocity_margin_db:+.2f} dB (velocity), all >= -3 dB; "
             f"scaling-vs-synthesis gap per RIS "
             f"{np.round(report.gain_gap_db, 2).tolist()} dB")


# ---------------------------------------------------------------- A7


def test_a7_mode_directions(compare_rows, ctx_full, nm_result):
    rows = {r["mode"]: r for r in compare_rows}
    full, comm = rows["full-isac"], rows["comm-only"]
    base, passive = rows["pathloss-baseline"], rows["passive-orientation"]
    comm_smaller = all(c < f for c, f in zip(comm["sizes_m"], full["sizes_m"]))
    comm_no_sensing = comm["sensing"] == "not available"
    base_bigger = all(b >= f for b, f in zip(base["sizes_m"], full["sizes_m"]))
    passive_short = passive["coverage_pct"] < 100.0
    # coarse phase control (1 bit) needs at least as much panel as 2 bits
    positions = [r.reference_point() for r in ctx_full.regions]
    sizes_l2 = [s.side for s in step1_evaluate(positions, ctx_full).sizes]
    ctx_l1 = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, bits=1))
    sizes_l1 = [s.side for s in step1_evaluate(positions, ctx_l1).sizes]
    l1_bigger = all(a >= b for a, b in zip(sizes_l1, sizes_l2))
    ok = all([comm_smaller, comm_no_sensing, base_bigger, passive_short, l1_bigger])
    _verdict("A7 mode directions", ok,
             f"comm-only smaller {comm['sizes_m']} < {full['sizes_m']}: {comm_smaller}, "
             f"sensing '{comm['sensing']}': {comm_no_sensing}; "
             f"baseline {base['sizes_m']} >= full-isac: {base_bigger}; "
             f"passive coverage {passive['coverage_pct']}% < 100%: {passive_short}; "
             f"1-bit sides {np.round(sizes_l1, 3).tolist()} >= 2-bit "
             f"{np.round(sizes_l2, 3).tolist()}: {l1_bigger}")


# ---------------------------------------------------------------- A8


def test_a8_radar_pipeline():
    params = OfdmParams(carrier_hz=28e9, bandwidth_hz=1e9, subcarriers=256, symbols=64)
    wave = OfdmWaveform(params, seed=0)
    rr, vr = params.range_resolution, params.velocity_resolution

    def mk(range_bin, vel_bin, coeff):
        return SensingPath(0, 2.0 * range_bin * rr / SPEED_OF_LIGHT,
                           2.0 * vel_bin * vr / params.wavelength, coeff,
                           params.carrier_hz)

    # noiseless single on-grid target lands on the exact bin
    y = synthesize_returns(wave, [mk(25, 6, 1e-6 + 0j)])
    rv = range_velocity_map(y, wave)
    power = rv.rows(0, params.subcarriers)  # the whole map, through its row accessor
    i, j = np.unravel_index(np.argmax(power), power.shape)
    exact = (i == 25) and (rv.velocity_axis[j] == pytest.approx(6 * vr))

    # direct + 2 RIS paths, noisy, all three recovered within one bin
    bins = [(20, 5), (60, -10), (110, 14)]
    paths = [mk(r, v, c) for (r, v), c in zip(bins, (2e-6, 1.2e-6, 0.8e-6))]
    y3 = synthesize_returns(wave, paths, noise_psd=1e-19, seed=7)
    report = detect_paths(range_velocity_map(y3, wave),
                          expected=3, threshold_db=12.0)
    got = sorted(d.range_est for d in report.detections)
    three_ok = (len(report.detections) == 3
                and all(abs(est - r * rr) <= rr + 1e-9
                        for est, (r, _) in zip(got, bins)))

    # zero-noise LS positioning is exact
    bs = np.array([0.0, 0.0, 20.0])
    ris = np.array([[60.0, 40.0, 15.0], [-30.0, 70.0, 12.0]])
    target = np.array([25.0, 35.0, 50.0])
    ranges = [np.linalg.norm(target - bs)]
    for r in ris:
        ranges.append(0.5 * (np.linalg.norm(bs - r) + np.linalg.norm(target - r)
                             + np.linalg.norm(target - bs)))
    ranges = np.asarray(ranges)
    pos, _ = ls_position(bs, ris, ranges, uav_height=50.0)
    ls_exact = float(np.linalg.norm(pos - target))

    # half-bin range perturbations: median error over 100 seeds
    errs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = ranges + rng.uniform(-rr / 2, rr / 2, ranges.shape)
        est, _ = ls_position(bs, ris, noisy, uav_height=50.0)
        errs.append(float(np.linalg.norm(est - target)))
    med = float(np.median(errs))

    ok = exact and three_ok and ls_exact <= 1e-6 and med <= 0.2
    _verdict("A8 radar pipeline", ok,
             f"on-grid target exact-bin: {exact}; 3-path CFAR within 1 bin: "
             f"{three_ok}; zero-noise LS error {ls_exact:.2e} m (<= 1e-6); "
             f"median error under half-bin perturbation {med:.3f} m (<= 0.2)")


# ---------------------------------------------------------------- A9


def _mock_region(cells):
    return DeployableRegion(covered_cells=sorted(cells), coverage_area=float(len(cells)))


def _brute_force_cover(universe, candidate_sets):
    for k in range(1, len(candidate_sets) + 1):
        for combo in itertools.combinations(range(len(candidate_sets)), k):
            if set().union(*(candidate_sets[i] for i in combo)) >= universe:
                return k
    return None


def test_a9_set_cover_quality():
    rng = np.random.default_rng(9)
    always_covers = True
    within_bound = 0
    exact = 0
    feasible = 0
    for _ in range(200):
        n_cells = int(rng.integers(4, 13))
        universe = set(range(n_cells))
        n_cand = int(rng.integers(2, 9))
        sets = [set(rng.choice(n_cells, size=rng.integers(1, n_cells + 1),
                               replace=False).tolist())
                for _ in range(n_cand)]
        if not set().union(*sets) >= universe:
            with pytest.raises(InfeasibleCoverageError):
                select_ris_regions(universe, [_mock_region(s) for s in sets])
            continue
        feasible += 1
        chosen = select_ris_regions(universe, [_mock_region(s) for s in sets])
        covered = set()
        for region in chosen:
            covered.update(region.covered_cells)
        always_covers &= covered >= universe
        opt = _brute_force_cover(universe, sets)
        if len(chosen) == opt:
            exact += 1
        if len(chosen) <= opt * (np.log(n_cells) + 1.0):
            within_bound += 1
    ok = always_covers and within_bound == feasible
    _verdict("A9 set cover", ok,
             f"{feasible} feasible instances, all covered: {always_covers}; "
             f"exact optimum on {exact}/{feasible}, within the ln(n)+1 bound on "
             f"{within_bound}/{feasible}")
