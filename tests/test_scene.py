import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from risdeploy import cli, optimizer, propagation
from risdeploy import scene as scene_mod
from risdeploy.errors import (InfeasibleCoverageError, InvalidInputError,
                              SceneFormatError, UnreachableTargetsError)
from risdeploy.scene import (Bounds, Building, DeployableRegion, Rect, Scene,
                             _segments_hit_prism, build_grids, line_of_sight,
                             point_in_polygon, scene_from_dict, segments_clear,
                             select_ris_regions)

import city
from _oracles import point_in_polygon_scalar, same_bits, segment_hits_prism_scalar
from conftest import bench_city_config, demo_config_path

SQUARE = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


def simple_scene(buildings=()):
    return Scene(buildings=tuple(buildings), bs_position=np.array([50.0, 50.0, 10.0]),
                 bounds=Bounds(np.zeros(3), np.array([100.0, 100.0, 50.0])))


def test_point_in_polygon():
    # inside, outside, on an edge (boundary counts as inside), on a vertex
    points = np.array([[5.0, 5.0], [10.5, 5.0], [10.0, 5.0], [0.0, 0.0]])
    assert point_in_polygon(points, SQUARE).tolist() == [True, False, True, True]
    concave = np.array([[0, 0], [10, 0], [10, 10], [5, 5], [0, 10]], dtype=float)
    # the second point lies inside the notch
    assert point_in_polygon([[1.0, 1.0], [5.0, 8.0]], concave).tolist() == [True, False]
    assert point_in_polygon(np.empty((0, 2)), SQUARE).shape == (0,)


def test_building_validation():
    with pytest.raises(SceneFormatError):
        Building(np.array([[0.0, 0.0], [1.0, 0.0]]), 5.0)
    with pytest.raises(SceneFormatError):
        Building(SQUARE, -1.0)
    bowtie = np.array([[0, 0], [10, 10], [10, 0], [0, 10]], dtype=float)
    with pytest.raises(SceneFormatError):
        Building(bowtie, 5.0)


def test_face_normals_point_outward():
    b = Building.box(0.0, 10.0, 0.0, 10.0, 5.0)
    assert len(b.faces) == len(b.footprint)
    for f, face in enumerate(b.faces):
        p1, p2 = b.footprint[f], b.footprint[(f + 1) % len(b.footprint)]
        mid = (p1 + p2) / 2.0
        n = face.normal
        assert n[2] == 0.0
        assert np.linalg.norm(n) == pytest.approx(1.0)
        assert point_in_polygon([mid + 0.01 * n[:2], mid - 0.01 * n[:2]],
                                b.footprint).tolist() == [False, True]


def test_faces_keep_the_per_edge_rounding():
    # each face's length, direction and normal have the bits of the formulas
    # on that edge alone: np.linalg.norm of the edge, and the normal flipped
    # where a point 1e-6 m along it lies inside
    rng = np.random.default_rng(3)
    for _ in range(50):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 7))
        fp = rng.uniform(-1e3, 1e3, 2) + rng.uniform(1.0, 50.0) * np.column_stack(
            [np.cos(angles), np.sin(angles)])
        blg = Building(fp, 10.0)
        for f, face in enumerate(blg.faces):
            p1, p2 = fp[f], fp[(f + 1) % len(fp)]
            edge = np.array([p2[0] - p1[0], p2[1] - p1[1], 0.0])
            n = np.array([edge[1], -edge[0]]) / np.linalg.norm(p2 - p1)
            if point_in_polygon_scalar((p1 + p2) / 2.0 + 1e-6 * n, fp):
                n = -n
            assert face.length == float(np.linalg.norm(edge))
            assert same_bits(face.u_hat, edge / np.linalg.norm(edge))
            assert same_bits(face.normal, np.array([n[0], n[1], 0.0]))


def test_line_of_sight_blocked_and_clear():
    b = Building.box(4.0, 6.0, -1.0, 1.0, 10.0)
    scn = simple_scene([b])
    # straight through the prism, below the roof
    assert not line_of_sight(scn, [0.0, 0.0, 5.0], [10.0, 0.0, 5.0])
    # same ground track but both endpoints above the roof
    assert line_of_sight(scn, [0.0, 0.0, 12.0], [10.0, 0.0, 12.0])
    # descending over the roof, dipping into the prism
    assert not line_of_sight(scn, [0.0, 0.0, 12.0], [10.0, 0.0, 1.0])
    # passing beside the footprint
    assert line_of_sight(scn, [0.0, 5.0, 5.0], [10.0, 5.0, 5.0])
    with pytest.raises(InvalidInputError):
        line_of_sight(scn, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])


def test_line_of_sight_grazing_endpoint_on_wall():
    b = Building.box(4.0, 6.0, -1.0, 1.0, 10.0)
    scn = simple_scene([b])
    # from a point on the wall plane going away from the prism
    assert line_of_sight(scn, [4.0, 0.0, 5.0], [0.0, 0.0, 5.0])
    # from the same point going into the prism
    assert not line_of_sight(scn, [4.0, 0.0, 5.0], [10.0, 0.0, 5.0])


def test_vertical_segment_inside_prism():
    b = Building.box(4.0, 6.0, -1.0, 1.0, 10.0)
    scn = simple_scene([b])
    assert not line_of_sight(scn, [5.0, 0.0, 1.0], [5.0, 0.0, 9.0])
    assert line_of_sight(scn, [5.0, 2.0, 1.0], [5.0, 2.0, 9.0])


# Coordinates on a half-metre grid put segment endpoints on walls, edges and
# roofs and make segments run exactly along faces; free floats cover the rest.
_GRID = st.integers(-4, 24).map(lambda k: k / 2.0)
_COORD = st.one_of(_GRID, st.floats(-2.0, 12.0, allow_nan=False))


@st.composite
def _footprints(draw):
    "Box or L-shaped footprint with vertices on the half-metre grid."
    x0, xm, x1 = sorted(draw(st.lists(st.integers(0, 20), min_size=3, max_size=3,
                                      unique=True)))
    y0, ym, y1 = sorted(draw(st.lists(st.integers(0, 20), min_size=3, max_size=3,
                                      unique=True)))
    x0, xm, x1, y0, ym, y1 = (k / 2.0 for k in (x0, xm, x1, y0, ym, y1))
    if draw(st.booleans()):
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    return np.array([[x0, y0], [x1, y0], [x1, ym], [xm, ym], [xm, y1], [x0, y1]])


@st.composite
def _scene_and_segment(draw):
    buildings = [Building(fp, draw(st.integers(1, 16)) / 2.0)
                 for fp in draw(st.lists(_footprints(), max_size=4))]
    a = np.array([draw(_COORD), draw(_COORD), draw(_COORD.map(abs))])
    b = np.array([draw(_COORD), draw(_COORD), draw(_COORD.map(abs))])
    kind = draw(st.sampled_from(["free", "vertical", "horizontal", "axis"]))
    if kind == "vertical":
        b[:2] = a[:2]
    elif kind == "horizontal":
        b[2] = a[2]
    elif kind == "axis":
        keep = draw(st.integers(0, 2))
        b = np.where(np.arange(3) == keep, b, a)
    return simple_scene(buildings), a, b


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scene_and_segment())
def test_culled_line_of_sight_matches_every_prism(case):
    scn, a, b = case
    assume(np.linalg.norm(b - a) >= 1e-9)
    expected = not any(segment_hits_prism_scalar(a, b, blg) for blg in scn.buildings)
    assert line_of_sight(scn, a, b) == expected


@st.composite
def _scene_and_fan(draw):
    "Up to four prisms and 1-6 segments from one start point that lies on a coordinate plane."
    buildings = [Building(fp, draw(st.integers(1, 16)) / 2.0)
                 for fp in draw(st.lists(_footprints(), max_size=4))]
    a = np.array([draw(_COORD), draw(_COORD), draw(_COORD.map(abs))])
    plane = draw(st.integers(0, 2))
    a[plane] = 0.0  # so that an end can differ from a by a subnormal along this axis
    ends = []
    for _ in range(draw(st.integers(1, 6))):
        b = np.array([draw(_COORD), draw(_COORD), draw(_COORD.map(abs))])
        kind = draw(st.sampled_from(["free", "vertical", "axis", "subnormal"]))
        if kind == "vertical":
            b[:2] = a[:2]
        elif kind == "axis":
            keep = draw(st.integers(0, 2))
            b = np.where(np.arange(3) == keep, b, a)
        elif kind == "subnormal":
            b[plane] = draw(st.sampled_from([5e-324, -5e-324, 1e-310]))
        if np.linalg.norm(b - a) >= 1e-9:
            ends.append(b)
    assume(ends)
    return simple_scene(buildings), a, np.array(ends)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scene_and_fan())
def test_batched_segments_match_line_of_sight(case):
    # one slab test for segments that share a start point decides each one
    # as the one-segment test and the scalar test against every prism do
    scn, a, ends = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clear = segments_clear(scn, a, ends)
    assert clear.tolist() == [line_of_sight(scn, a, b) for b in ends]
    assert clear.tolist() == [not any(segment_hits_prism_scalar(a, b, blg)
                                      for blg in scn.buildings) for b in ends]


def test_a_cut_shorter_than_two_eps_does_not_block():
    # the segment clips the corner (0, 0) inside the footprint for a
    # parameter span of 1e-9: too short an interval to be tested, as in the
    # scalar test
    blg = Building(SQUARE, 5.0)
    a, b = np.array([-5.0, 5.0 + 1e-8, 2.0]), np.array([5.0, -5.0 + 1e-8, 2.0])
    assert not segment_hits_prism_scalar(a, b, blg)
    assert not _segments_hit_prism(a, b[None, :], blg)[0]
    assert line_of_sight(simple_scene([blg]), a, b)


def test_subnormal_direction_culls_without_warning():
    # d_y = 5e-324 overflows the slab division (lo - a) / d_y to inf
    scn = simple_scene([Building.box(0, 10, 0, 10, 5)])
    a, b = np.array([-5.0, 0.0, 2.0]), np.array([15.0, 5e-324, 2.0])
    expected = not segment_hits_prism_scalar(a, b, scn.buildings[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert line_of_sight(scn, a, b) == expected


def _start(draw, buildings):
    """A start point: free, or 1e-3 m off a face of one of the buildings, where
    every candidate point and RIS position lies."""
    if buildings and draw(st.booleans()):
        face = draw(st.sampled_from(draw(st.sampled_from(buildings)).faces))
        u, v = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        return (face.origin + u * face.length * face.u_hat + np.array([0.0, 0.0, v * face.height])
                + 1e-3 * face.normal)
    return np.array([draw(_COORD), draw(_COORD), draw(_COORD.map(abs))])


@st.composite
def _scene_and_fans(draw):
    """Up to four prisms and 1-8 segments, each from one of 1-4 start points
    (_start). A near-vertical segment moves less than 1e-12 m in the plane; a
    subnormal one starts on a coordinate plane and ends a subnormal off it."""
    buildings = [Building(fp, draw(st.integers(1, 16)) / 2.0)
                 for fp in draw(st.lists(_footprints(), max_size=4))]
    pool = [_start(draw, buildings) for _ in range(draw(st.integers(1, 4)))]
    starts, ends = [], []
    for _ in range(draw(st.integers(1, 8))):
        a = pool[draw(st.integers(0, len(pool) - 1))].copy()
        b = np.array([draw(_COORD), draw(_COORD), draw(_COORD.map(abs))])
        kind = draw(st.sampled_from(["free", "vertical", "near-vertical", "horizontal", "axis",
                                     "subnormal"]))
        if kind == "vertical":
            b[:2] = a[:2]
        elif kind == "near-vertical":  # moves less than 1e-12 in the plane
            b[:2] = a[:2] + draw(st.sampled_from([-4e-13, 4e-13]))
        elif kind == "horizontal":
            b[2] = a[2]
        elif kind == "axis":
            keep = draw(st.integers(0, 2))
            b = np.where(np.arange(3) == keep, b, a)
        elif kind == "subnormal":
            plane = draw(st.integers(0, 2))
            a[plane] = 0.0
            b = a.copy()
            b[plane] = draw(st.sampled_from([5e-324, -5e-324, 1e-310]))
            b[(plane + 1) % 3] = draw(_COORD.map(abs))
        if np.linalg.norm(b - a) >= 1e-9:
            starts.append(a)
            ends.append(b)
    assume(ends)
    return simple_scene(buildings), np.array(starts), np.array(ends)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scene_and_fans())
def test_prism_kernel_matches_the_scalar_oracle(case):
    # every (segment, prism) pair, entered box or not, boolean for boolean;
    # the segments from one start point answer the same with that point alone
    scn, starts, ends = case
    same = np.all(starts == starts[0], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clear = segments_clear(scn, starts, ends)
        for blg in scn.buildings:
            want = [segment_hits_prism_scalar(a, b, blg) for a, b in zip(starts, ends)]
            assert _segments_hit_prism(starts, ends, blg).tolist() == want
            assert (_segments_hit_prism(starts[0], ends[same], blg).tolist()
                    == [hit for hit, one in zip(want, same) if one])
    assert clear.tolist() == [line_of_sight(scn, a, b) for a, b in zip(starts, ends)]


@st.composite
def _footprint_and_points(draw):
    """A box or L footprint (_footprints) and 1-12 points: on a vertex, on an
    edge, within 2e-12 m of an edge, on the half-metre grid or free."""
    fp = draw(_footprints())
    points = []
    for _ in range(draw(st.integers(1, 12))):
        i = draw(st.integers(0, len(fp) - 1))
        q1, q2 = fp[i], fp[(i + 1) % len(fp)]
        on_edge = q1 + draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                      st.floats(0.0, 1.0))) * (q2 - q1)
        kind = draw(st.sampled_from(["vertex", "edge", "near", "grid", "free"]))
        if kind == "vertex":
            p = q1
        elif kind == "edge":
            p = on_edge
        elif kind == "near":
            p = on_edge + np.array(draw(st.lists(st.sampled_from(
                [-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]), min_size=2, max_size=2)))
        elif kind == "grid":
            p = np.array([draw(_GRID), draw(_GRID)])
        else:
            p = np.array([draw(_COORD), draw(_COORD)])
        points.append(p)
    return fp, np.array(points)


@settings(max_examples=300, deadline=None)
@given(_footprint_and_points())
def test_batched_point_test_matches_the_scalar_oracle(case):
    fp, points = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = point_in_polygon(points, fp)
    assert inside.tolist() == [point_in_polygon_scalar(p, fp) for p in points]


def _tested_pairs(monkeypatch, scn, starts, ends):
    "segments_clear's answer, and the (end, building index) pairs it hands to the prism kernel."
    tested = []

    def counting(starts, ends, building):
        i = next(i for i, blg in enumerate(scn.buildings) if blg is building)
        tested.extend((tuple(end), i) for end in ends)
        return _segments_hit_prism(starts, ends, building)

    monkeypatch.setattr(scene_mod, "_segments_hit_prism", counting)
    return segments_clear(scn, starts, ends).tolist(), tested


def test_line_of_sight_tests_only_prisms_whose_box_it_enters(ctx_full, monkeypatch):
    scn = ctx_full.scene
    uavs = ctx_full.uav_grid.centers
    clear, tested = _tested_pairs(monkeypatch, scn, scn.bs_position, uavs)
    assert clear == [True] * len(uavs) and tested == []
    # building 0 spans x 30-80, y 60-70, 16 m high; cross it along y at 8 m
    crossing = (55.0, 75.0, 8.0)
    clear, tested = _tested_pairs(monkeypatch, scn, [55.0, 55.0, 8.0], [crossing])
    assert clear == [False] and tested == [(crossing, 0)]
    # the same legs from a start per segment, in one call
    starts = np.vstack([np.tile(scn.bs_position, (len(uavs), 1)), [55.0, 55.0, 8.0]])
    clear, tested = _tested_pairs(monkeypatch, scn, starts, np.vstack([uavs, crossing]))
    assert clear == [True] * len(uavs) + [False] and tested == [(crossing, 0)]


def _scalar_geometry(mp):
    "Answer every point and prism test with the scalar oracles, one point or pair at a time."
    def points_inside(points, polygon):
        return np.array([point_in_polygon_scalar(p, polygon) for p in np.asarray(points)],
                        dtype=bool)

    def hits(starts, ends, building):
        return np.array([segment_hits_prism_scalar(a, b, building)
                         for a, b in zip(np.broadcast_to(starts, ends.shape), ends)], dtype=bool)

    mp.setattr(scene_mod, "point_in_polygon", points_inside)
    mp.setattr(scene_mod, "_segments_hit_prism", hits)


def _face_bits(face):
    return (face.origin.tobytes(), face.u_hat.tobytes(), face.normal.tobytes(), face.length,
            face.height)


def _context_answers(cfg):
    "build_context's grids, uncovered cells and regions (building, face, covered cells, area)."
    uncovered, candidates = [], scene_mod.candidate_regions

    def spy(scn, ue_grid, cells, *args):
        uncovered.extend(cells)
        return candidates(scn, ue_grid, cells, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene_mod, "candidate_regions", spy)
        ctx = cli.build_context(cfg)
    regions = [(r.building, _face_bits(r.face), list(r.covered_cells), r.coverage_area)
               for r in ctx.regions]
    return ctx.ue_grid.centers.tobytes(), ctx.uav_grid.centers.tobytes(), uncovered, regions


@pytest.mark.parametrize("city_seed, fillers", [(None, None), (1, 6), (2, 6), (3, 6), (1, 30)],
                         ids=["demo", "city-1", "city-2", "city-3", "city-36-buildings"])
def test_context_matches_the_scalar_geometry(city_seed, fillers, tmp_path, monkeypatch):
    # the array point and prism tests give build_context the grids, uncovered
    # cells and regions of the scalar oracles, bit for bit
    path = demo_config_path()
    if city_seed is not None:
        monkeypatch.setattr(city, "FILLERS", fillers)
        path = city.write(tmp_path, city_seed, Path(path))
    cfg = cli.load_config(path)
    got = _context_answers(cfg)
    with pytest.MonkeyPatch.context() as mp:
        _scalar_geometry(mp)
        want = _context_answers(cfg)
    assert got[3], "no candidate region"
    assert got == want


def test_ris_paths_match_the_scalar_geometry(tmp_path):
    # seeded placements on every region of the bench city, bit for bit
    ctx = cli.build_context(cli.load_config(bench_city_config(tmp_path)))
    rng = np.random.default_rng(5)
    placements = [(n, region.point_at(*region.sample(rng)))
                  for n, region in enumerate(ctx.regions) for _ in range(6)]

    def answers():
        out = []
        for n, position in placements:
            try:
                out.append(optimizer.ris_paths(ctx, n, position))
            except UnreachableTargetsError:
                out.append(None)
        return out

    got = answers()
    with pytest.MonkeyPatch.context() as mp:
        _scalar_geometry(mp)
        want = answers()
    # low placements lose the BS behind the front building; the rest see every leg
    assert None in got and any(paths is not None for paths in got)
    assert [paths is None for paths in got] == [paths is None for paths in want]
    for g, w in zip(got, want):
        if g is not None:
            assert all(same_bits(x, y) for x, y in zip(g, w))


def test_bench_city_context_makes_few_line_of_sight_calls(tmp_path, monkeypatch):
    # the BS's legs to the UE cells, every face's legs to the BS and the UAV
    # cells, and every qualifying face's legs to the uncovered cells: one
    # batched call each
    calls, batched = [], scene_mod.segments_clear

    def counted(scene, starts, ends):
        calls.append(len(ends))
        return batched(scene, starts, ends)

    monkeypatch.setattr(scene_mod, "segments_clear", counted)
    monkeypatch.setattr(propagation, "segments_clear", counted)
    cli.build_context(cli.load_config(bench_city_config(tmp_path)))
    assert len(calls) <= 4, calls


def test_build_grids_counts_and_centers():
    scn = simple_scene()
    g = build_grids(scn, 5.0, 1.5, Rect(0.0, 0.0, 20.0, 10.0))
    assert len(g) == 4 * 2
    assert g.cell_area == 25.0
    np.testing.assert_allclose(g.centers[0], [2.5, 2.5, 1.5])
    np.testing.assert_allclose(g.centers[-1], [17.5, 7.5, 1.5])
    assert np.all(g.centers[:, 2] == 1.5)


def test_build_grids_excludes_buildings_and_validates():
    b = Building.box(0.0, 10.0, 0.0, 10.0, 5.0)
    scn = simple_scene([b])
    g = build_grids(scn, 5.0, 1.5, Rect(0.0, 0.0, 20.0, 10.0))
    assert len(g) == 4  # the two columns over the footprint are dropped
    assert np.all(g.centers[:, 0] > 10.0)
    with pytest.raises(InvalidInputError):
        build_grids(scn, 50.0, 1.5, Rect(0.0, 0.0, 20.0, 10.0))
    with pytest.raises(InvalidInputError):
        build_grids(scn, 0.0, 1.5)
    rect = build_grids(scn, (10.0, 5.0), 1.5, Rect(0.0, 0.0, 20.0, 10.0))
    assert rect.cell_area == 50.0


def _mock_region(cells):
    return DeployableRegion(covered_cells=list(cells), coverage_area=float(len(cells)))


def test_select_ris_regions_greedy():
    cands = [_mock_region([0, 1, 2]), _mock_region([2, 3]), _mock_region([3, 4, 5])]
    chosen = select_ris_regions([0, 1, 2, 3, 4, 5], cands)
    covered = set()
    for r in chosen:
        covered.update(r.covered_cells)
    assert covered == {0, 1, 2, 3, 4, 5}
    assert len(chosen) == 2  # {0,1,2} + {3,4,5}


def test_select_ris_regions_orphans():
    with pytest.raises(InfeasibleCoverageError) as err:
        select_ris_regions([0, 1, 9], [_mock_region([0, 1])])
    assert err.value.orphan_cells == [9]


def test_scene_from_dict_errors():
    # each case has a UE area, so that it fails for its own reason
    box = {"lo": [0, 0, 0], "hi": [1, 1, 1]}
    ue = [[0, 0, 1, 1]]
    for raw, field in [({"bs": [0, 0, 0], "bounds": box, "ue_areas": ue}, "buildings"),
                       ({"buildings": [{"height": 5}], "bs": [0, 0, 0], "bounds": box,
                         "ue_areas": ue}, "buildings.footprint"),
                       ({"buildings": [], "bs": [0, 0], "bounds": box, "ue_areas": ue}, "bs"),
                       # BS outside bounds
                       ({"buildings": [], "bs": [5, 0, 0], "bounds": box, "ue_areas": ue}, "bs")]:
        with pytest.raises(SceneFormatError) as exc:
            scene_from_dict(raw)
        assert exc.value.field == field


_SCENE = {"buildings": [{"footprint": [[0, 0], [10, 0], [10, 10], [0, 10]], "height": 5}],
          "bs": [50, 50, 10], "bounds": {"lo": [0, 0, 0], "hi": [100, 100, 50]},
          "ue_areas": [[20, 20, 40, 40]], "uav_area": [60, 60, 80, 80]}


def _with_height(height):
    return [{**_SCENE["buildings"][0], "height": height}]


@pytest.mark.parametrize("key, value, field", [
    ("buildings", _with_height(None), "buildings.height"),
    ("buildings", _with_height(float("nan")), "buildings.height"),
    ("buildings", _with_height("5"), "buildings.height"),
    ("bs", ["a", 0, 0], "bs"),
    ("ue_areas", [[1, 2, 3]], "ue_areas"),
    ("uav_area", [60, "x", 80, 80], "uav_area"),
    ("buildings", "x", "buildings"),
    (None, [], "<root>"),
    ("ue_areas", [[70, 75, 45, 90]], "ue_areas"),
    ("uav_area", [80, 60, 60, 80], "uav_area"),
    ("ue_areas", [], "ue_areas"),
], ids=["height-null", "height-nan", "height-string", "bs-string", "ue-area-3",
        "uav-area-string", "buildings-string", "root-list", "ue-area-inverted",
        "uav-area-inverted", "ue-areas-empty"])
def test_malformed_scene_names_its_field(key, value, field, tmp_path):
    # written as JSON (NaN included) and loaded as a scene file is
    raw = value if key is None else {**_SCENE, key: value}
    (tmp_path / "scene.json").write_text(json.dumps(raw))
    with pytest.raises(SceneFormatError) as exc:
        scene_mod.load_scene(tmp_path / "scene.json")
    assert exc.value.field == field


def test_scene_keeps_unknown_keys_and_builds_from_the_schema():
    scn = scene_from_dict({**_SCENE, "bs_orientation_psi": 1.5, "note": "kept"})
    assert len(scn.buildings) == 1 and scn.buildings[0].height == 5.0
    assert scn.uav_area == Rect(60, 60, 80, 80) and scn.ue_areas == (Rect(20, 20, 40, 40),)


def test_region_patch_geometry(ctx_full):
    region = ctx_full.regions[0]
    p = region.point_at(region.u_min, region.v_min)
    q = region.point_at(region.u_min + 1.0, region.v_min)
    assert np.linalg.norm(q - p) == pytest.approx(1.0, abs=1e-9)
    assert p[2] == pytest.approx(region.v_min)
    u, v = region.clamp(region.u_max + 5.0, region.v_min - 5.0)
    assert (u, v) == (region.u_max, region.v_min)
    n = region.face.normal
    assert np.linalg.norm(n) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = region.sample(rng)
        assert region.u_min <= u <= region.u_max
        assert region.v_min <= v <= region.v_max
