import json
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
                             point_in_polygon, scene_from_dict, segments_clear,
                             select_ris_regions)

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
    assert len(b.faces) == len(b.footprint)
    for f, face in enumerate(b.faces):
        p1, p2 = b.footprint[f], b.footprint[(f + 1) % len(b.footprint)]
        mid = (p1 + p2) / 2.0
        n = face.normal
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
    # as the one-segment test and the exact test against every prism do
    scn, a, ends = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clear = segments_clear(scn, a, ends)
    assert clear.tolist() == [line_of_sight(scn, a, b) for b in ends]
    assert clear.tolist() == [not any(_segment_hits_prism(a, b, blg) for blg in scn.buildings)
                              for b in ends]


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
