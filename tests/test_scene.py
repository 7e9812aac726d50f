import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from risdeploy import scene as scene_mod
from risdeploy.errors import (InfeasibleCoverageError, InvalidInputError,
                              SceneFormatError)
from risdeploy.scene import (Bounds, Building, DeployableRegion, Rect, Scene,
                             _segment_hits_prism, build_grids, line_of_sight,
                             point_in_polygon, scene_from_dict, select_ris_regions)

SQUARE = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


def simple_scene(buildings=()):
    return Scene(buildings=tuple(buildings), bs_position=np.array([50.0, 50.0, 10.0]),
                 bounds=Bounds(np.zeros(3), np.array([100.0, 100.0, 50.0])))


def test_point_in_polygon():
    assert point_in_polygon((5.0, 5.0), SQUARE)
    assert not point_in_polygon((10.5, 5.0), SQUARE)
    assert point_in_polygon((10.0, 5.0), SQUARE)  # boundary counts as inside
    assert point_in_polygon((0.0, 0.0), SQUARE)  # vertex
    concave = np.array([[0, 0], [10, 0], [10, 10], [5, 5], [0, 10]], dtype=float)
    assert point_in_polygon((1.0, 1.0), concave)
    assert not point_in_polygon((5.0, 8.0), concave)  # inside the notch


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
    for f in range(b.num_faces):
        p1, p2 = b.face_vertices(f)
        mid = (p1 + p2) / 2.0
        n = b.face_normal(f)
        assert n[2] == 0.0
        assert np.linalg.norm(n) == pytest.approx(1.0)
        assert not point_in_polygon(mid + 0.01 * n[:2], b.footprint)
        assert point_in_polygon(mid - 0.01 * n[:2], b.footprint)


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
    expected = not any(_segment_hits_prism(a, b, blg) for blg in scn.buildings)
    assert line_of_sight(scn, a, b) == expected


def test_subnormal_direction_culls_without_warning():
    # d_y = 5e-324 overflows the slab division (lo - a) / d_y to inf
    scn = simple_scene([Building.box(0, 10, 0, 10, 5)])
    a, b = np.array([-5.0, 0.0, 2.0]), np.array([15.0, 5e-324, 2.0])
    expected = not _segment_hits_prism(a, b, scn.buildings[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert line_of_sight(scn, a, b) == expected


def _tested_prisms(monkeypatch, scn, a, b):
    "Indices of the buildings line_of_sight hands to the exact prism test."
    tested = []

    def counting(a, b, building):
        tested.append(next(i for i, blg in enumerate(scn.buildings) if blg is building))
        return _segment_hits_prism(a, b, building)

    monkeypatch.setattr(scene_mod, "_segment_hits_prism", counting)
    return line_of_sight(scn, a, b), tested


def test_line_of_sight_tests_only_prisms_whose_box_it_enters(ctx_full, monkeypatch):
    scn = ctx_full.scene
    for uav in ctx_full.uav_grid.centers:
        clear, tested = _tested_prisms(monkeypatch, scn, scn.bs_position, uav)
        assert clear and tested == []
    # building 0 spans x 30-80, y 60-70, 16 m high; cross it along y at 8 m
    clear, tested = _tested_prisms(monkeypatch, scn, [55.0, 55.0, 8.0], [55.0, 75.0, 8.0])
    assert not clear and tested == [0]


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
    return DeployableRegion(patch=None, covered_cells=list(cells),
                            coverage_area=float(len(cells)))


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
    with pytest.raises(SceneFormatError):
        scene_from_dict({"bs": [0, 0, 0], "bounds": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})
    with pytest.raises(SceneFormatError):
        scene_from_dict({"buildings": [{"height": 5}], "bs": [0, 0, 0],
                         "bounds": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})
    with pytest.raises(SceneFormatError):
        scene_from_dict({"buildings": [], "bs": [0, 0], "bounds": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})
    with pytest.raises(SceneFormatError):  # BS outside bounds
        scene_from_dict({"buildings": [], "bs": [5, 0, 0], "bounds": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})


def test_region_patch_geometry(ctx_full):
    region = ctx_full.regions[0]
    patch = region.patch
    p = region.point_at(patch.u_min, patch.v_min)
    q = region.point_at(patch.u_min + 1.0, patch.v_min)
    assert np.linalg.norm(q - p) == pytest.approx(1.0, abs=1e-9)
    assert p[2] == pytest.approx(patch.v_min)
    u, v = region.clamp(patch.u_max + 5.0, patch.v_min - 5.0)
    assert (u, v) == (patch.u_max, patch.v_min)
    n = region.normal()
    assert np.linalg.norm(n) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = region.sample(rng)
        assert patch.u_min <= u <= patch.u_max
        assert patch.v_min <= v <= patch.v_max
