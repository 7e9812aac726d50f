import dataclasses
import gc
import tracemalloc
import types

import numpy as np
import pytest

from risdeploy import cli, optimizer, propagation
from risdeploy.arrays import Orientation, OrientationBounds, panel_normal
from risdeploy.channel import LinkBudget
from risdeploy.errors import (InfeasiblePowerError, InvalidInputError, SceneFormatError,
                              SizeCapError, UnreachableTargetsError)
from risdeploy.optimizer import (constraint_constants,
                                 direct_power_share, initial_simplex,
                                 kkt_power_allocation, orientation_search,
                                 pathloss_baseline, reference_sensing_crbs, ris_size,
                                 step1_evaluate)
from risdeploy.scene import Building, line_of_sight

from _oracles import (best_beta_per_cell, orientation_score_masked, orientation_score_rows,
                      orientation_search_full, reference_sensing_crbs_per_cell, same_bits,
                      step1_evaluate_joint)
from conftest import bench_city_config, bs_leg

WIDE = OrientationBounds(-np.pi / 3, np.pi / 3, -np.pi, np.pi)


def test_constraint_constants_formula():
    ctx = types.SimpleNamespace(cfg=cli.Config(scene="s.json", range_crb_max=4e-4,
                                               velocity_crb_max=1e-2),
                                link=LinkBudget(43.0, -165.0, 1e9, snr_threshold_db=20.0))
    cc = constraint_constants(5e4, 8e-5, 3e-3, ctx, beta=0.4)
    assert cc.c1 == pytest.approx(100.0 / (0.4 * 5e4))
    assert cc.c2 == pytest.approx(8e-5 / (0.6 * 4e-4))
    assert cc.c3 == pytest.approx(3e-3 / (0.6 * 1e-2))
    assert cc.c_max == max(cc.c1, cc.c2, cc.c3)
    with pytest.raises(InvalidInputError):
        constraint_constants(5e4, 8e-5, 3e-3, ctx, beta=1.0)
    with pytest.raises(InvalidInputError):
        constraint_constants(0.0, 8e-5, 3e-3, ctx, beta=0.5)
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
    _assert_kkt_sized(ctx_full, positions, res,
                      np.array([r.coverage_area for r in ctx_full.regions]))
    with pytest.raises(InvalidInputError):
        step1_evaluate(positions[:1], ctx_full)


def _assert_kkt_sized(ctx, positions, res, areas):
    """Every row of `res` satisfies KKT stationarity over the coverage `areas`
    for its own c-values, formed again from the reference CRBs at the chosen
    beta, and the objective is the summed size-to-coverage ratio."""
    c = np.zeros(res.beta_per_uav.shape)
    for k, gamma in enumerate(res.gamma_ref):
        range_crb, velocity_crb = reference_sensing_crbs(ctx, positions[k],
                                                         res.orientations[k],
                                                         *bs_leg(ctx, positions[k]))
        c[:, k] = constraint_constants(float(np.min(gamma[gamma > 0])), range_crb,
                                       velocity_crb, ctx, res.beta_per_uav[:, k]).c_max
    for u in range(c.shape[0]):
        lam = np.sqrt(c[u]) / areas * res.omega_per_uav[u, 1:] ** (-1.5)
        np.testing.assert_allclose(lam, lam[0], rtol=1e-9)
    assert res.objective == pytest.approx(
        sum(s.area / a for s, a in zip(res.sizes, areas)))


def test_step1_beta_choice_is_per_cell_optimal(ctx_full):
    positions = [r.reference_point() for r in ctx_full.regions]
    res = step1_evaluate(positions, ctx_full)
    # the chosen beta is the grid minimum: no other beta in the grid gives a
    # smaller c_max for any (uav, ris) pair, and the first one on a tie
    for n, region in enumerate(ctx_full.regions):
        gamma_worst = float(np.min(res.gamma_ref[n][res.gamma_ref[n] > 0]))
        range_crb, velocity_crb = reference_sensing_crbs(ctx_full, positions[n],
                                                         res.orientations[n],
                                                         *bs_leg(ctx_full, positions[n]))
        for u in range(len(ctx_full.uav_grid.centers)):
            beta, c_n = best_beta_per_cell(ctx_full, gamma_worst, range_crb[u],
                                           velocity_crb[u])
            assert res.beta_per_uav[u, n] == beta
            assert constraint_constants(gamma_worst, range_crb[u], velocity_crb[u], ctx_full,
                                        res.beta_per_uav[u, n]).c_max == c_n


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
        for field in ("beta_per_uav", "omega_per_uav"):
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


def test_step1_evaluate_is_the_joint_loop_with_blocked_legs(ctx_full, monkeypatch):
    # a wall in front of RIS 0's face blocks some of its UE legs, which then
    # take a reflection (pl_max_db raised to 110 dB) or have no path; the
    # blocked legs go through enumerate_paths one at a time, and the plan and
    # the messages stay the per-leg joint loop's
    wall = Building.box(45.0, 70.0, 91.0, 92.0, 10.0)
    ctx = dataclasses.replace(
        ctx_full, scene=dataclasses.replace(ctx_full.scene,
                                            buildings=ctx_full.scene.buildings + (wall,)),
        prop=dataclasses.replace(ctx_full.prop, pl_max_db=110.0))
    fallback = []
    per_leg = propagation.enumerate_paths

    def counted(*args, **kwargs):
        fallback.append(args[2:])
        return per_leg(*args, **kwargs)

    monkeypatch.setattr(propagation, "enumerate_paths", counted)
    rng = np.random.default_rng(2024)
    planned_with_fallback = raised = 0
    for _ in range(20):
        positions = [r.point_at(*r.sample(rng)) for r in ctx.regions]
        want = _step1_outcome(step1_evaluate_joint, positions, ctx)
        before = len(fallback)
        got = _step1_outcome(step1_evaluate, positions, ctx)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            raised += 1
            continue
        planned_with_fallback += len(fallback) > before
        assert same_bits(got.objective, want.objective)
        for field in ("beta_per_uav", "omega_per_uav"):
            assert same_bits(getattr(got, field), getattr(want, field)), field
        for a, b in zip(got.gamma_ref, want.gamma_ref, strict=True):
            assert same_bits(a, b)
    assert all(not line_of_sight(ctx.scene, a, b) for a, b in fallback)  # blocked legs only
    assert 0 < raised < 20 and planned_with_fallback > 0


def test_reference_crbs_are_the_per_cell_loop(ctx_full):
    # on the demo the SNR constant c1 binds at every chosen beta, so the plan
    # alone would not show a change in the reference CRBs: compare them
    rng = np.random.default_rng(5)
    compared = 0
    for _ in range(10):
        for region in ctx_full.regions:
            p = region.point_at(*region.sample(rng))
            normal = region.face.normal
            theta, dpsi = rng.uniform(-0.5, 0.5, 2)
            orient = Orientation(float(theta), float(np.arctan2(normal[1], normal[0]) + dpsi))
            range_crb, velocity_crb = reference_sensing_crbs(ctx_full, p, orient,
                                                             *bs_leg(ctx_full, p))
            want = reference_sensing_crbs_per_cell(ctx_full, p, orient)
            assert same_bits(range_crb, want[0])
            assert same_bits(velocity_crb, want[1])
            compared += want.shape[1]
    assert compared == 20 * len(ctx_full.uav_grid.centers)


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
    for region, position in zip(ctx_full.regions, base.step1.positions):
        face = region.face  # the position in patch coordinates
        u, v = float((position - face.origin) @ face.u_hat), float(position[2])
        assert region.u_min - 1e-9 <= u <= region.u_max + 1e-9
        assert region.v_min - 1e-9 <= v <= region.v_max + 1e-9


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
    coords = _cheapest_free_space_coords(ctx_full, 64, 0).reshape(-1, 2)
    np.testing.assert_array_equal(base.step1.positions,
                                  [r.point_at(*uv) for r, uv in zip(ctx_full.regions, coords)])


def test_pathloss_baseline_skips_points_without_a_path(ctx_full):
    # at seed 12 the cheapest free-space point of RIS 1 has no path to a cell
    with pytest.raises(UnreachableTargetsError):
        step1_evaluate([r.point_at(*uv) for r, uv in zip(
            ctx_full.regions, _cheapest_free_space_coords(ctx_full, 64, 12).reshape(-1, 2))],
            ctx_full)
    base = pathloss_baseline(ctx_full, seed=12)
    assert base.step1.objective > 0
    assert len(base.step1.positions) == len(ctx_full.regions)


def test_step1_rejects_a_leg_without_a_path_before_any_orientation_search(ctx_full,
                                                                          monkeypatch):
    # at seed 12 the cheapest free-space point of RIS 1 has no path to a
    # covered UE cell: every RIS's paths are formed first, so no orientation
    # search runs (RIS 0's included), and the message is the joint loop's
    positions = [r.point_at(*uv) for r, uv in zip(
        ctx_full.regions, _cheapest_free_space_coords(ctx_full, 64, 12).reshape(-1, 2))]
    want = _step1_outcome(step1_evaluate_joint, positions, ctx_full)
    assert want.startswith("RIS 1 at ") and "no propagation path" in want
    searches = []
    search = optimizer.orientation_search

    def counted(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(optimizer, "orientation_search", counted)
    with pytest.raises(UnreachableTargetsError) as raised:
        step1_evaluate(positions, ctx_full)
    assert str(raised.value) == want
    assert searches == []


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
    axes, _, _ = optimizer._axis_grid(ctx_full.region_bounds(region),
                                            optimizer.ORIENTATION_STEP)
    score = optimizer._orientation_score(axes, u_bs, u_ue, u_uav)
    ref = orientation_score_rows(np.ascontiguousarray(axes.T), u_bs, u_ue, u_uav)
    assert axes.shape == (3, len(ref))
    assert int(np.argmax(score)) == int(np.argmax(ref))
    assert np.max(ref) > 0
    np.testing.assert_allclose(score, ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("with_uav", [True, False])
def test_three_row_mask_keeps_the_masked_score(ctx_full, with_uav):
    # the field-of-view test on the BS row and the two minima gives the
    # masked score's argmax and, where it is positive, its bits; elsewhere 0
    def unit_rows(points, p):
        d = np.asarray(points, dtype=float).reshape(-1, 3) - p
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    rng = np.random.default_rng(11)
    positive = 0
    for region in ctx_full.regions:
        axes, _, _ = optimizer._axis_grid(ctx_full.region_bounds(region),
                                                optimizer.ORIENTATION_STEP)
        for _ in range(15):
            p = region.point_at(*region.sample(rng))
            u_bs = unit_rows(ctx_full.scene.bs_position, p)[0]
            u_ue = unit_rows(ctx_full.ue_grid.centers[region.covered_cells], p)
            u_uav = unit_rows(ctx_full.uav_grid.centers, p) if with_uav else None
            score = optimizer._orientation_score(axes, u_bs, u_ue, u_uav)
            ref = orientation_score_masked(axes, u_bs, u_ue, u_uav)
            assert int(np.argmax(score)) == int(np.argmax(ref))
            seen = ref > 0
            assert np.array_equal(score > 0, seen)
            assert same_bits(score[seen], ref[seen])
            assert np.all(score[~seen] == 0.0)
            positive += bool(seen.any())
    assert positive > 0


def test_passive_orientation_uses_face_normal(ctx_full):
    passive = dataclasses.replace(
        ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode="passive-orientation"))
    positions = [r.reference_point() for r in passive.regions]
    res = step1_evaluate(positions, passive)
    for region, orient in zip(passive.regions, res.orientations):
        normal = region.face.normal
        assert orient.theta_r == 0.0
        assert orient.psi_r == pytest.approx(float(np.arctan2(normal[1], normal[0])))


def test_passive_orientation_sizes_for_the_cells_it_serves(ctx_full):
    # at the reference points a flush panel leaves some covered cells unserved
    # (gamma_ref == 0): the power split and the objective take the area of
    # the served cells, not the region's whole coverage area
    passive = dataclasses.replace(
        ctx_full, cfg=dataclasses.replace(ctx_full.cfg, mode="passive-orientation"))
    positions = [r.reference_point() for r in passive.regions]
    res = step1_evaluate(positions, passive)
    served = np.array([np.count_nonzero(g > 0) for g in res.gamma_ref]) * passive.ue_grid.cell_area
    assert np.any(served < [r.coverage_area for r in passive.regions])
    _assert_kkt_sized(passive, positions, res, served)


@pytest.fixture(scope="module")
def ctx_city(tmp_path_factory):
    "The bench city's context, in full-isac."
    return cli.build_context(cli.load_config(bench_city_config(tmp_path_factory.mktemp("city"))))


def _search_outcome(search, *args):
    "A search's orientation as its bits, or its error message."
    try:
        found = search(*args)
    except UnreachableTargetsError as exc:
        return str(exc)
    return np.array([found.theta_r, found.psi_r]).tobytes()


@pytest.mark.parametrize("scene", ["demo", "city"])
@pytest.mark.parametrize("with_uav", [True, False], ids=["full-isac", "comm-only"])
def test_bounded_coarse_search_is_the_full_grid(ctx_full, ctx_city, scene, with_uav,
                                                monkeypatch):
    # on seeded placements the bounded coarse pass finds the full grid's first
    # maximum, so the search gives the full-grid orientation bit for bit, and it
    # scores a small share of the coarse nodes; with the BS mirrored through
    # the RIS onto a UE cell's far side both raise with one message
    ctx = ctx_full if scene == "demo" else ctx_city
    scored = []
    score = optimizer._orientation_score

    def counted(axes, *args):
        scored.append(axes.shape[1])
        return score(axes, *args)

    rng = np.random.default_rng(26)
    coarse = []
    for k in range(40):
        region = ctx.regions[k % len(ctx.regions)]
        p = region.point_at(*region.sample(rng))
        targets = [ctx.scene.bs_position, ctx.ue_grid.centers[region.covered_cells],
                   ctx.uav_grid.centers if with_uav else None]
        bounds = ctx.region_bounds(region)
        want = _search_outcome(orientation_search_full, p, *targets, bounds)
        with monkeypatch.context() as mp:
            mp.setattr(optimizer, "_orientation_score", counted)
            assert _search_outcome(orientation_search, p, *targets, bounds) == want
        coarse.append(sum(scored[:-1]))  # the last call is the fine pass
        del scored[:]
        behind = [2.0 * p - targets[1][0]] + targets[1:]  # the BS opposite a UE cell
        message = _search_outcome(orientation_search_full, p, *behind, bounds)
        assert message == "no orientation sees the BS and any target"
        assert _search_outcome(orientation_search, p, *behind, bounds) == message
    n_coarse = optimizer._axis_grid(bounds, optimizer.ORIENTATION_STEP)[0].shape[1]
    assert np.median(coarse) < n_coarse / 8


def test_gemm_gather_gives_each_node_the_full_grids_bits(ctx_full):
    # the cosines of a gather hold the full grid's bits for every node in it,
    # the nodes of the grid's partial GEMM group included
    region = ctx_full.regions[0]
    axes = optimizer._axis_grid(ctx_full.region_bounds(region), optimizer.ORIENTATION_STEP)[0]
    n = axes.shape[1]
    assert n % optimizer._GEMM_GROUP
    rng = np.random.default_rng(8)
    for _ in range(60):
        targets = rng.normal(size=(int(rng.integers(2, 60)), 3))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        full = targets @ axes
        nodes = np.sort(rng.choice(n, size=int(rng.integers(1, 2000)), replace=False))
        nodes[-1] = n - 1 - int(rng.integers(0, 3))  # a node of the partial group
        nodes = np.unique(nodes)
        columns = optimizer._gemm_gather(nodes, n)
        assert set(columns.tolist()) >= set(nodes.tolist())
        assert same_bits(targets @ axes[:, columns], full[:, columns])


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_bounded_coarse_search_keeps_the_first_of_a_tie():
    # a grid whose psi nodes are exact multiples of 1/128 rad, symmetric about
    # 0, and BS and UE mirrored in y: the nodes at +-psi score the same bits,
    # and the best pair (psi nodes 7 and 8) lies in two blocks; the first in
    # node order wins, as on the full grid
    coarse = optimizer._coarse_grid(OrientationBounds(-1.0, 1.0, -7.5 / 64, 7.5 / 64), 1.0 / 64)
    axes, _, psis = coarse[:3]
    assert np.array_equal(psis[:8], -psis[15:7:-1])
    u_bs, u_ue = _unit([100.0, 30.0, 5.0]), _unit([[100.0, -30.0, 5.0]])
    score = optimizer._orientation_score(axes, u_bs, u_ue, None)
    ties = np.flatnonzero(score == np.max(score))
    assert len(ties) == 2 and [t % len(psis) // optimizer.BLOCK for t in ties] == [0, 1]
    assert optimizer._bounded_coarse_argmax(coarse, u_bs, u_ue, None) == ties[0]


def test_bounded_coarse_search_scores_the_grids_last_nodes_as_the_full_grid():
    # targets past the grid's last corner put the maximum on its last node, in
    # the grid's partial GEMM group, which the gather scores as the full grid does
    bounds = OrientationBounds(-np.pi / 3, np.pi / 3, -1.4, 1.4)
    coarse = optimizer._coarse_grid(bounds, optimizer.ORIENTATION_STEP)
    axes, thetas, psis = coarse[:3]
    n = axes.shape[1]
    assert n % optimizer._GEMM_GROUP
    beyond = panel_normal(thetas[-1] + 0.2, psis[-1] + 0.2)
    u_bs = _unit(beyond + [0.0, 0.0, 0.05])
    u_ue = np.array([_unit(beyond - [0.0, 0.0, 0.05])])
    score = optimizer._orientation_score(axes, u_bs, u_ue, None)
    assert int(np.argmax(score)) == n - 1
    assert optimizer._bounded_coarse_argmax(coarse, u_bs, u_ue, None) == n - 1
    args = (np.zeros(3), u_bs, u_ue, None, bounds)
    assert _search_outcome(orientation_search, *args) == _search_outcome(
        orientation_search_full, *args)


def test_searches_hold_no_fine_grid(ctx_full):
    # each face direction keeps its coarse grid, and each search forms its
    # fine window and lets it go: after a warm-up search, 100 searches at
    # sampled points of the region hold less memory than one fine grid
    region = ctx_full.regions[0]
    bounds = ctx_full.region_bounds(region)
    targets = [ctx_full.scene.bs_position, ctx_full.ue_grid.centers[region.covered_cells],
               ctx_full.uav_grid.centers]
    step = optimizer.ORIENTATION_STEP
    fine = sum(a.nbytes for a in optimizer._axis_grid(
        OrientationBounds(0.0, 3.0 * step, 0.0, 3.0 * step), step / 20.0))
    _search_outcome(orientation_search, region.reference_point(), *targets, bounds)
    rng = np.random.default_rng(35)
    points = [region.point_at(*region.sample(rng)) for _ in range(100)]
    tracemalloc.start()
    try:
        for p in points:
            _search_outcome(orientation_search, p, *targets, bounds)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < fine


def _capped(ctx, cap):
    return dataclasses.replace(ctx, cfg=dataclasses.replace(ctx.cfg, size_cap=cap))


def test_size_cap_rejects_a_larger_panel_as_the_joint_loop_does(ctx_full):
    # a placement whose plan needs a panel side over size_cap raises
    # SizeCapError, naming the cap, with the joint loop's message; the others
    # keep the uncapped plan
    ctx = _capped(ctx_full, 0.92)
    rng = np.random.default_rng(2024)
    capped = kept = 0
    for _ in range(20):
        positions = [r.point_at(*r.sample(rng)) for r in ctx.regions]
        want = _step1_outcome(step1_evaluate_joint, positions, ctx)
        got = _step1_outcome(step1_evaluate, positions, ctx)
        if isinstance(want, str):
            assert got == want
            capped += "size_cap 0.92 m" in got
            continue
        kept += 1
        assert max(s.side for s in got.sizes) <= 0.92
        assert same_bits(got.objective, step1_evaluate(positions, ctx_full).objective)
    assert capped > 0 and kept > 0
    with pytest.raises(SizeCapError, match="size_cap 0.3 m"):
        initial_simplex(_capped(ctx_full, 0.3), seed=0)
    with pytest.raises(SizeCapError, match="size_cap 0.3 m"):
        pathloss_baseline(_capped(ctx_full, 0.3), seed=0)
