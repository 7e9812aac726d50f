import dataclasses
import types

import numpy as np
import pytest

from risdeploy import cli, optimizer
from risdeploy.arrays import Orientation, OrientationBounds
from risdeploy.channel import LinkBudget
from risdeploy.errors import (InfeasiblePowerError, InvalidInputError, SceneFormatError,
                              UnreachableTargetsError)
from risdeploy.optimizer import (constraint_constants,
                                 direct_power_share, initial_simplex,
                                 kkt_power_allocation, orientation_search,
                                 pathloss_baseline, ris_size, step1_evaluate)
from risdeploy.sensing import CrbPair

from _oracles import orientation_score_rows, same_bits, step1_evaluate_joint

WIDE = OrientationBounds(-np.pi / 3, np.pi / 3, -np.pi, np.pi)


def test_constraint_constants_formula():
    ctx = types.SimpleNamespace(cfg=cli.Config(scene="s.json", range_crb_max=4e-4,
                                               velocity_crb_max=1e-2),
                                link=LinkBudget(43.0, -165.0, 1e9, snr_threshold_db=20.0))
    crb = CrbPair(range_crb=8e-5, velocity_crb=3e-3, fim=np.eye(2))
    cc = constraint_constants(5e4, crb, ctx, beta=0.4)
    assert cc.c1 == pytest.approx(100.0 / (0.4 * 5e4))
    assert cc.c2 == pytest.approx(8e-5 / (0.6 * 4e-4))
    assert cc.c3 == pytest.approx(3e-3 / (0.6 * 1e-2))
    assert cc.c_max == max(cc.c1, cc.c2, cc.c3)
    with pytest.raises(InvalidInputError):
        constraint_constants(5e4, crb, ctx, beta=1.0)
    with pytest.raises(InvalidInputError):
        constraint_constants(0.0, crb, ctx, beta=0.5)
    with pytest.raises(SceneFormatError):
        cli.Config(scene="s.json", range_crb_max=0.0)


def test_kkt_allocation_stationarity_and_budget():
    c = np.array([0.02, 0.5, 0.13])
    areas = np.array([900.0, 350.0, 620.0])
    omega0 = 0.15
    w = kkt_power_allocation(c, areas, omega0)
    assert w.sum() == pytest.approx(1.0 - omega0)
    assert np.all(w > 0)
    # stationarity: sqrt(c_n)/A_n * omega_n^(-3/2) equal across RISs
    lam = np.sqrt(c) / areas * w ** (-1.5)
    np.testing.assert_allclose(lam, lam[0], rtol=1e-12)


def test_kkt_allocation_beats_random_splits():
    rng = np.random.default_rng(4)
    c = np.array([0.02, 0.5, 0.13, 0.07])
    areas = np.array([900.0, 350.0, 620.0, 120.0])
    omega0 = 0.1

    def objective(w):
        # total size-to-coverage ratio is proportional to sum sqrt(c/w)/A
        return np.sum(np.sqrt(c / w) / areas)

    best = objective(kkt_power_allocation(c, areas, omega0))
    for _ in range(2000):
        w = rng.dirichlet(np.ones(4)) * (1.0 - omega0)
        assert objective(w) >= best - 1e-12


def test_kkt_allocation_validation():
    with pytest.raises(InvalidInputError):
        kkt_power_allocation([0.1], [100.0, 200.0], 0.1)
    with pytest.raises(InvalidInputError):
        kkt_power_allocation([0.1, -0.2], [100.0, 200.0], 0.1)
    with pytest.raises(InfeasiblePowerError):
        kkt_power_allocation([0.1, 0.2], [100.0, 200.0], 1.0)


def test_ris_size_formula():
    size = ris_size(c_max=0.04, omega=0.25, cell_area=2.8e-5, m_ref=400, spacing=5.3e-3)
    assert size.area == pytest.approx(0.2 * 2.8e-5 * 400 / 0.5)
    assert size.side == pytest.approx(np.sqrt(size.area))
    assert size.cells_per_side == int(np.ceil(size.side / 5.3e-3))
    assert size.cell_count == size.cells_per_side**2
    # quadrupling c doubles the area; quadrupling omega halves it
    assert ris_size(0.16, 0.25, 2.8e-5, 400, 5.3e-3).area == pytest.approx(2 * size.area)
    assert ris_size(0.04, 1.0, 2.8e-5, 400, 5.3e-3).area == pytest.approx(size.area / 2)
    with pytest.raises(InfeasiblePowerError):
        ris_size(0.04, 0.0, 2.8e-5, 400, 5.3e-3)
    with pytest.raises(InvalidInputError):
        ris_size(-1.0, 0.25, 2.8e-5, 400, 5.3e-3)


def test_orientation_search_centers_on_targets():
    ris = np.zeros(3)
    bs = np.array([50.0, 10.0, 5.0])
    ue = np.array([[40.0, -15.0, -3.0], [60.0, 5.0, -4.0]])
    uav = np.array([[30.0, 0.0, 20.0]])
    orient = orientation_search(ris, bs, ue, uav, WIDE)
    axis = np.array([np.cos(orient.psi_r) * np.cos(orient.theta_r),
                     np.sin(orient.psi_r) * np.cos(orient.theta_r),
                     -np.sin(orient.theta_r)])
    for target in [bs, *ue, *uav]:
        u = target / np.linalg.norm(target)
        assert np.dot(axis, u) > np.cos(np.deg2rad(45))


def test_orientation_search_symmetric_geometry():
    # BS and a single UE mirrored about +x at equal range: boresight lands on +x
    ris = np.zeros(3)
    bs = np.array([100.0, 30.0, 0.0])
    ue = np.array([[100.0, -30.0, 0.0]])
    orient = orientation_search(ris, bs, ue, None, WIDE)
    assert abs(orient.psi_r) < np.deg2rad(0.2)
    assert abs(orient.theta_r) < np.deg2rad(0.2)


def test_orientation_search_unreachable():
    ris = np.zeros(3)
    bs = np.array([100.0, 0.0, 0.0])
    ue = np.array([[-100.0, 0.0, 0.0]])  # opposite the BS: no panel sees both
    with pytest.raises(UnreachableTargetsError):
        orientation_search(ris, bs, ue, None, WIDE)
    with pytest.raises(InvalidInputError):
        orientation_search(ris, ris, ue, None, WIDE)


def test_direct_power_share(ctx_full, monkeypatch):
    omega0 = direct_power_share(ctx_full)
    assert 0.0 < omega0 < 1.0
    comm = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode="comm-only"))
    assert direct_power_share(comm) == 0.0
    # the margin keeps the direct beam strictly above its bare requirement
    monkeypatch.setattr(optimizer, "OMEGA0_MARGIN_DB", 0.0)
    assert omega0 > direct_power_share(ctx_full) > 0.0


def test_step1_evaluate_structure(ctx_full):
    positions = [r.reference_point() for r in ctx_full.regions]
    res = step1_evaluate(positions, ctx_full)
    n = len(ctx_full.regions)
    m_u = len(ctx_full.uav_grid.centers)
    assert res.objective > 0
    assert len(res.sizes) == n and len(res.orientations) == n
    assert res.beta_per_uav.shape == (m_u, n)
    assert res.omega_per_uav.shape == (m_u, n + 1)
    np.testing.assert_allclose(res.omega_per_uav.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(np.isin(res.beta_per_uav, ctx_full.cfg.beta_grid))
    assert all(s.area > 0 and s.cells_per_side >= 1 for s in res.sizes)
    # every row satisfies KKT stationarity for its own c-values
    areas = np.array([r.coverage_area for r in ctx_full.regions])
    for u in range(m_u):
        lam = np.sqrt(res.c_per_uav[u]) / areas * res.omega_per_uav[u, 1:] ** (-1.5)
        np.testing.assert_allclose(lam, lam[0], rtol=1e-9)
    # objective equals the summed size-to-coverage ratio
    assert res.objective == pytest.approx(
        sum(s.area / a for s, a in zip(res.sizes, areas)))
    with pytest.raises(InvalidInputError):
        step1_evaluate(positions[:1], ctx_full)


def test_step1_beta_choice_is_per_cell_optimal(ctx_full):
    positions = [r.reference_point() for r in ctx_full.regions]
    res = step1_evaluate(positions, ctx_full)
    # the chosen c is the grid minimum: no other beta in the grid gives a
    # smaller c_max for any (uav, ris) pair
    from risdeploy.optimizer import _best_beta
    from risdeploy.optimizer import reference_sensing_crbs
    for n, region in enumerate(ctx_full.regions):
        gamma_worst = float(np.min(res.gamma_ref[n][res.gamma_ref[n] > 0]))
        crbs = reference_sensing_crbs(ctx_full, positions[n], res.orientations[n])
        for u in range(len(ctx_full.uav_grid.centers)):
            beta, c_n = _best_beta(ctx_full, gamma_worst, crbs[u])
            assert res.beta_per_uav[u, n] == beta
            assert res.c_per_uav[u, n] == pytest.approx(c_n)


def _step1_outcome(evaluate, positions, ctx):
    "The Step1Result, or the message of the UnreachableTargetsError raised."
    try:
        return evaluate(positions, ctx)
    except UnreachableTargetsError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", ["full-isac", "comm-only", "passive-orientation"])
def test_step1_evaluate_is_the_joint_loop(ctx_full, mode):
    # per-RIS references plus the closed-form sizing give the joint loop's
    # plan bit for bit, and raise where it raises, with its message
    ctx = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode=mode))
    rng = np.random.default_rng(2024)
    raised = 0
    for _ in range(20):
        positions = [r.point_at(*r.sample(rng)) for r in ctx.regions]
        want = _step1_outcome(step1_evaluate_joint, positions, ctx)
        got = _step1_outcome(step1_evaluate, positions, ctx)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            raised += 1
            continue
        assert same_bits(got.objective, want.objective)
        for field in ("beta_per_uav", "omega_per_uav", "c_per_uav"):
            assert same_bits(getattr(got, field), getattr(want, field)), field
        for a, b in zip(got.sizes, want.sizes, strict=True):
            assert same_bits([a.area, a.side], [b.area, b.side])
            assert a.cells_per_side == b.cells_per_side
        for a, b in zip(got.orientations, want.orientations, strict=True):
            assert same_bits([a.theta_r, a.psi_r], [b.theta_r, b.psi_r])
        for a, b in zip(got.gamma_ref, want.gamma_ref, strict=True):
            assert same_bits(a, b)
        for a, b in zip(got.positions, want.positions, strict=True):
            assert same_bits(a, b)
    assert 0 < raised < 20


def test_size_grows_when_power_shrinks(ctx_full):
    positions = [r.reference_point() for r in ctx_full.regions]
    base = step1_evaluate(positions, ctx_full, omega0=0.1)
    starved = step1_evaluate(positions, ctx_full, omega0=0.6)
    assert all(b.area < s.area for b, s in zip(base.sizes, starved.sizes))


def test_initial_simplex_deterministic(ctx_full):
    s1 = initial_simplex(ctx_full, seed=3)
    s2 = initial_simplex(ctx_full, seed=3)
    np.testing.assert_array_equal(s1.coords, s2.coords)
    np.testing.assert_array_equal(s1.objectives, s2.objectives)
    assert s1.coords.shape == (2 * len(ctx_full.regions) + 1, 2 * len(ctx_full.regions))
    assert np.all(np.isfinite(s1.objectives))


def test_nelder_mead_run_properties(nm_result, ctx_full):
    assert nm_result.converged
    assert nm_result.iterations <= ctx_full.cfg.max_iterations
    best = [t.best_objective for t in nm_result.trace]
    assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))
    assert nm_result.trace[-1].max_spread <= ctx_full.cfg.d_min
    assert nm_result.step1.objective == pytest.approx(best[-1])
    assert len(nm_result.step1.positions) == len(ctx_full.regions)


def test_pathloss_baseline_runs(ctx_full):
    base = pathloss_baseline(ctx_full, samples=16, seed=0)
    assert base.step1.objective > 0
    assert base.converged and base.iterations == 0
    for n, region in enumerate(ctx_full.regions):
        u, v = base.patch_coords[2 * n], base.patch_coords[2 * n + 1]
        cu, cv = region.clamp(u, v)
        assert (u, v) == (cu, cv)


def _cheapest_free_space_coords(ctx, samples, seed):
    "Per RIS, the patch point of least free-space cost among the samples."
    rng = np.random.default_rng(seed)
    coords = []
    for region in ctx.regions:
        cells = ctx.ue_grid.centers[region.covered_cells]
        uvs = [region.sample(rng) for _ in range(samples)]
        costs = [np.linalg.norm(region.point_at(*uv) - ctx.scene.bs_position) ** 2
                 + float(np.mean(np.linalg.norm(cells - region.point_at(*uv), axis=1) ** 2))
                 for uv in uvs]
        coords.extend(uvs[int(np.argmin(costs))])
    return np.array(coords)


def test_pathloss_baseline_keeps_an_evaluable_cheapest_point(ctx_full):
    base = pathloss_baseline(ctx_full, seed=0)
    np.testing.assert_array_equal(base.patch_coords,
                                  _cheapest_free_space_coords(ctx_full, 64, 0))


def test_pathloss_baseline_skips_points_without_a_path(ctx_full):
    # at seed 12 the cheapest free-space point of RIS 1 has no path to a cell
    with pytest.raises(UnreachableTargetsError):
        step1_evaluate([r.point_at(*uv) for r, uv in zip(
            ctx_full.regions, _cheapest_free_space_coords(ctx_full, 64, 12).reshape(-1, 2))],
            ctx_full)
    base = pathloss_baseline(ctx_full, seed=12)
    assert base.step1.objective > 0
    assert len(base.step1.positions) == len(ctx_full.regions)


def test_pathloss_baseline_evaluates_step1_once(ctx_full, monkeypatch):
    # each sample is checked by its per-RIS reference, and the plan is sized
    # once from the references the checks accepted; step1_evaluate, which
    # would form them again, does not run, and the count is the checks'
    calls = {"step1_evaluate": 0, "ris_reference": 0, "size_plan": 0, "raised": 0}

    def counted(name):
        original = getattr(optimizer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return original(*args, **kwargs)
            except UnreachableTargetsError:
                calls["raised"] += 1
                raise
        return wrapper

    for name in ("step1_evaluate", "ris_reference", "size_plan"):
        monkeypatch.setattr(optimizer, name, counted(name))
    base = pathloss_baseline(ctx_full, seed=12)
    assert (calls["step1_evaluate"], calls["size_plan"]) == (0, 1)
    assert base.evaluations == calls["ris_reference"] == len(ctx_full.regions) + 1
    assert base.unreachable == calls["raised"] == 1  # seed 12 skips one sample


def test_one_search_computes_the_direct_power_share_once(ctx_full, monkeypatch):
    # the share is the same at every placement: the simplex holds it for the
    # initial vertices and every iteration
    calls = []
    share = optimizer.direct_power_share

    def counted(ctx):
        calls.append(ctx)
        return share(ctx)

    monkeypatch.setattr(optimizer, "direct_power_share", counted)
    short = dataclasses.replace(ctx_full, cfg=dataclasses.replace(ctx_full.cfg,
                                                                  max_iterations=3))
    result = cli.optimize(short)
    assert result.iterations == 3 and result.evaluations > len(result.trace)
    assert len(calls) == 1
    assert np.all(result.step1.omega_per_uav[:, 0] == share(ctx_full))


@pytest.mark.parametrize("with_uav", [True, False])
def test_orientation_score_matches_row_major_reference(ctx_full, with_uav):
    region = ctx_full.regions[0]
    p = region.reference_point()

    def unit_rows(points):
        d = np.asarray(points, dtype=float).reshape(-1, 3) - p
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    u_bs = unit_rows(ctx_full.scene.bs_position)[0]
    u_ue = unit_rows(ctx_full.ue_grid.centers[region.covered_cells])
    u_uav = unit_rows(ctx_full.uav_grid.centers) if with_uav else None
    _, _, axes, _, _ = optimizer._axis_grid(ctx_full.region_bounds(region),
                                            optimizer.ORIENTATION_STEP)
    score = optimizer._orientation_score(axes, u_bs, u_ue, u_uav)
    ref = orientation_score_rows(np.ascontiguousarray(axes.T), u_bs, u_ue, u_uav)
    assert axes.shape == (3, len(ref))
    assert int(np.argmax(score)) == int(np.argmax(ref))
    assert np.max(ref) > 0
    np.testing.assert_allclose(score, ref, rtol=0, atol=1e-15)


def test_passive_orientation_uses_face_normal(ctx_full):
    passive = dataclasses.replace(
        ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode="passive-orientation"))
    positions = [r.reference_point() for r in passive.regions]
    res = step1_evaluate(positions, passive)
    for region, orient in zip(passive.regions, res.orientations):
        normal = region.normal()
        assert orient.theta_r == 0.0
        assert orient.psi_r == pytest.approx(float(np.arctan2(normal[1], normal[0])))
